"""Tests for the JSON interchange documents and their strict parser."""

import json
import random

import numpy as np
import pytest

from coarselab.errors import InvalidInputError
from coarselab.expander_zoo import FiniteGroupTable, cayley_graph
from coarselab.graph_core import GraphFamily, build_graph, split_components
from coarselab.jsonio import (
    canonical_json,
    parse_graph,
    parse_group_table,
    parse_map_family,
    parse_points,
    serialize_graph,
    serialize_graph_family,
    serialize_map_family,
    serialize_points,
)
from coarselab.metric_diag import MapEntry, MapFamily
from coarselab.wreath import WreathGroup, wreath_cayley

from groups import cyclic_group, serialize_group_table, symmetric_group
from oracles import graphs_equal, per_edge_graph_from_document, reference_json


def c4():
    return cayley_graph(cyclic_group(4))


def assert_round_trip(g):
    text = serialize_graph(g)
    back = parse_graph(text)
    assert graphs_equal(g, back)
    # canonical form is a fixpoint
    assert serialize_graph(back) == text


class TestGraphRoundTrip:
    def test_square_cycle(self):
        assert_round_trip(c4())

    def test_labels_loops_and_inverses(self):
        g = build_graph(
            3,
            [(0, 1, "a"), (1, 2, "a^-1"), (2, 2, "b"), (0, 2, None)],
            alphabet=["a", "b", "c"],
        )
        assert_round_trip(g)
        back = parse_graph(serialize_graph(g))
        assert back.alphabet == frozenset({"a", "b", "c"})
        assert back.labels()[2] == "a^-1"

    def test_wreath_ball_with_annotations(self):
        W = WreathGroup(Q=cyclic_group(2), B=cyclic_group(2), proj=(0, 1))
        g = wreath_cayley(W).graph
        assert_round_trip(g)
        back = parse_graph(serialize_graph(g))
        # tuples come back as lists but the content survives
        assert back.annotations["vertex_b_names"] == list(g.annotations["vertex_b_names"])

    def test_random_graphs(self):
        rng = random.Random(20240905)
        for _ in range(30):
            n = rng.randint(1, 8)
            symbols = ["a", "b", "c"][: rng.randint(0, 3)]
            edges = []
            for _ in range(rng.randint(0, 12)):
                lab = None
                if symbols and rng.random() < 0.7:
                    lab = rng.choice(symbols)
                    if rng.random() < 0.3:
                        lab += "^-1"
                edges.append((rng.randrange(n), rng.randrange(n), lab))
            assert_round_trip(build_graph(n, edges, alphabet=symbols))

    def test_trailing_newline_and_sorted_keys(self):
        text = serialize_graph(c4())
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == canonical_json(json.loads(text))

    def test_reverse_orientation(self):
        doc = {
            "format_version": "1",
            "alphabet": ["a"],
            "vertices": 2,
            "edges": [{"u": 0, "v": 1, "label": "a", "orientation": "reverse"}],
        }
        g = parse_graph(json.dumps(doc))
        assert (g.src[0], g.dst[0], g.labels()[0]) == (1, 0, "a")

    def test_graphs_equal_discriminates(self):
        assert graphs_equal(c4(), c4())
        assert not graphs_equal(c4(), cayley_graph(cyclic_group(5)))
        a = build_graph(2, [(0, 1, "a")], alphabet=["a"])
        b = build_graph(2, [(0, 1, "b")], alphabet=["b"])
        assert not graphs_equal(a, b)


# symbols with escapes: non-ASCII, a control character, a quote and a backslash
SYMBOLS = ["a", "b", "\u00e9", "c\x07", "\u2713", 'q"\\']
SPECIAL_FLOATS = [-0.0, 1e-300, 1e16, float("nan"), float("inf"), float("-inf"), 0.1, 2.5]


def random_value(rng, depth=0):
    """A seeded JSON value: scalars of every kind, bool next to int,
    numpy float64, empty and nested containers, tuples."""
    kind = rng.randrange(12 if depth < 3 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 1, -7, 2**70, True])
    if kind == 2:
        return rng.choice(SPECIAL_FLOATS)
    if kind == 3:
        return np.float64(rng.choice(SPECIAL_FLOATS))
    if kind == 4:
        return rng.choice(SYMBOLS) * rng.randint(0, 2)
    if kind == 5:
        return rng.choice([[], {}, ()])
    if kind == 6:
        return [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
    if kind == 7:
        return tuple(rng.choice(SPECIAL_FLOATS) for _ in range(rng.randint(1, 5)))
    if kind == 8:
        return [rng.choice(SYMBOLS) for _ in range(rng.randint(1, 4))]
    if kind == 9:
        return [rng.choice([1, True, 1.0, None, "1"]) for _ in range(rng.randint(1, 4))]
    if kind == 10:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return {rng.choice(SYMBOLS) + str(i): random_value(rng, depth + 1) for i in range(rng.randint(1, 3))}


def random_labeled_graph(rng):
    n = rng.randint(1, 7)
    alphabet = rng.sample(SYMBOLS, rng.randint(0, 3))
    edges = []
    for _ in range(rng.randint(0, 10)):
        lab = None
        if alphabet and rng.random() < 0.7:
            lab = rng.choice(alphabet) + ("^-1" if rng.random() < 0.3 else "")
        edges.append((rng.randrange(n), rng.randrange(n), lab))
    annotations = {"note": random_value(rng, 1)} if rng.random() < 0.7 else None
    return build_graph(n, edges, alphabet=alphabet, annotations=annotations)


class TestCanonicalWriter:
    """The template writer is held byte-equal to ``json.dumps``."""

    def test_scalars_and_containers(self):
        # rows that compare equal but write different bytes: 1, true, 1.0; 0.0, -0.0
        trap = [(1,), (True,), (1.0,), [1], (0.0,), (-0.0,), (1, True), (True, 1), (None,), ("1",)]
        for value in [
            {}, [], (), {"a": [], "b": {}, "c": ()}, [1, True, 1.0, None], [True, False],
            SPECIAL_FLOATS, [np.float64(x) for x in SPECIAL_FLOATS], 2**70, -0.0,
            {"\u00e9\x07": ["\u2713", 'q"\\', "\n\t"]}, ((1, 2), [], ((3,),)),
            [(0, 2), (1,), (0, 2), (), (1,), [], (0, 2)], [[3, 4], (3, 4), [3, 4], (), [], (5,), [5]],
            trap, trap * 3, [trap, trap, [trap]],
            {"rows": [(q,) for q in range(5)] * 4 + [(1,), (True,), (1.0,)] * 2},
            [(1, [2]), (1, [2]), (1, (2,)), [1, {"a": (1,)}], [1, {"a": (True,)}]],
        ]:
            assert canonical_json(value) == reference_json(value)

    def test_seeded_documents(self):
        rng = random.Random(20261019)
        for _ in range(300):
            doc = {"format_version": "1", "payload": random_value(rng)}
            assert canonical_json(doc) == reference_json(doc)

    def test_seeded_graphs_families_and_map_families(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_labeled_graph(rng)
            assert serialize_graph(g) == reference_json(g)
            comps = tuple(random_labeled_graph(rng) for _ in range(rng.randint(1, 3)))
            fam = GraphFamily(tuple(split_components(h).components[0] for h in comps))
            notes = {"seed": rng.randint(0, 9), "lambda": "1/6", "x": random_value(rng, 1)}
            assert serialize_graph_family(fam, notes) == reference_json(
                {"format_version": "1", "graphs": fam.components, "annotations": notes}
            )
            assert serialize_graph_family(fam) == reference_json({"format_version": "1", "graphs": fam.components})
            n = rng.randint(1, 5)
            src = build_graph(n, [(i, (i + 1) % n, rng.choice([None, "a", "a^-1"])) for i in range(n)])
            pts = np.array([[rng.choice(SPECIAL_FLOATS[:3] + SPECIAL_FLOATS[6:]) for _ in range(2)] for _ in range(n)])
            mapping = tuple(rng.randrange(n) for _ in range(n))
            mf = MapFamily((MapEntry(src, pts, mapping), MapEntry(np.zeros((n, n)), src, mapping)))
            assert serialize_map_family(mf) == reference_json({
                "format_version": "1",
                "entries": [
                    {"source": {"graph": src}, "target": {"points": pts.tolist()}, "mapping": list(mapping)},
                    {"source": {"matrix": np.zeros((n, n)).tolist()}, "target": {"graph": src}, "mapping": list(mapping)},
                ],
            })

    def test_wreath_element_names(self):
        names = ["e", "\u03c3", "\u03c4\x01", 'x"y', "\\", "\u2713"]
        table = FiniteGroupTable([[(a + b) % 6 for b in range(6)] for a in range(6)], generators=(1, 5), element_names=names)
        g = wreath_cayley(WreathGroup(Q=cyclic_group(2), B=table, proj=(0, 1, 0, 1, 0, 1))).graph
        assert "\u2713" in g.annotations["vertex_b_names"]
        assert serialize_graph(g) == reference_json(g)

    def test_non_json_annotations_are_refused(self):
        cases = [
            ({"x": {1, 2}}, "annotation value of type set is not JSON-serializable"),
            ({"x": [np.int64(3)]}, "annotation value of type int64 is not JSON-serializable"),
            ({"x": {1: 2}}, "annotation keys must be strings"),
        ]
        for annotations, message in cases:
            g = build_graph(2, [(0, 1)], annotations=annotations)
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                serialize_graph(g)
            fam = GraphFamily((build_graph(1, []),))
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                serialize_graph_family(fam, annotations)


def random_edge_document(rng, strict):
    """A seeded graph document with reverse, omitted and null fields,
    keys in any order, and unknown fields when ``strict`` is off."""
    n = rng.randint(1, 8)
    alphabet = rng.sample(SYMBOLS, rng.randint(0, 3))
    edges = []
    for _ in range(rng.randint(0, 12)):
        rec = {"u": rng.randrange(n), "v": rng.randrange(n)}
        if rng.random() < 0.5:
            rec["label"] = None
            if alphabet and rng.random() < 0.8:
                rec["label"] = rng.choice(alphabet) + ("^-1" if rng.random() < 0.3 else "")
        if rng.random() < 0.6:
            rec["orientation"] = rng.choice(["forward", "reverse"])
        if not strict and rng.random() < 0.3:
            rec["weight"] = rng.random()
        keys = list(rec)
        rng.shuffle(keys)
        edges.append({k: rec[k] for k in keys})
    doc = {"format_version": "1", "alphabet": alphabet, "vertices": n, "edges": edges}
    if rng.random() < 0.3:
        doc["annotations"] = {"note": rng.choice(SYMBOLS)}
    return doc


# one corruption of an edge record each, with the message the walk names
CORRUPTIONS = [
    (lambda e, n: e.update(u=True), "field 'u' must be an integer"),
    (lambda e, n: e.update(v=1.0), "field 'v' must be an integer"),
    (lambda e, n: e.update(u=-1), "endpoint u = -1 out of range"),
    (lambda e, n: e.update(v=n), f"endpoint v = "),
    (lambda e, n: e.pop("u"), "missing field 'u'"),
    (lambda e, n: e.update(weight=3), "unknown field 'weight'"),
    (lambda e, n: e.update(label=7), "field 'label' must be a string or null"),
    (lambda e, n: e.update(label=["a"]), "field 'label' must be a string or null"),
    (lambda e, n: e.update(label="zz"), "label 'zz' outside the declared alphabet"),
    (lambda e, n: e.update(orientation="up"), "'forward' or 'reverse'"),
    (lambda e, n: e.update(orientation=["reverse"]), "'forward' or 'reverse'"),
    (lambda e, n: e.update(orientation=None), "'forward' or 'reverse'"),
]


def graph_state(g):
    arrays = (g.src, g.dst, g.codes, g.out, g.first, g.component_ids)
    return (*(a.tolist() for a in arrays), g.symbols, g.is_connected, g.alphabet, g.annotations)


def parse_both(doc, strict=True):
    """The bulk parse and the per-edge reference on one document, each as
    its graph's dart tuples, out-darts, components, alphabet and
    annotations, or as its error message."""
    out = []
    for parse in (lambda: parse_graph(json.dumps(doc), strict=strict),
                  lambda: per_edge_graph_from_document(json.loads(json.dumps(doc)), strict=strict)):
        try:
            out.append(graph_state(parse()))
        except InvalidInputError as err:
            out.append(str(err))
    return out


class TestBulkParse:
    """The bulk-checked parse is held equal to the per-edge reference."""

    def test_seeded_documents_build_the_same_graph(self):
        rng = random.Random(11)
        for trial in range(300):
            strict = trial % 2 == 0
            got, ref = parse_both(random_edge_document(rng, strict), strict)
            assert not isinstance(ref, str) and got == ref

    def test_seeded_corruptions_name_the_same_first_edge(self):
        rng = random.Random(12)
        for trial in range(400):
            doc = random_edge_document(rng, strict=True)
            if not doc["edges"]:
                continue
            for _ in range(rng.randint(1, 2)):
                corrupt, _ = rng.choice(CORRUPTIONS)
                e = rng.choice(doc["edges"])
                if "u" in e:
                    corrupt(e, doc["vertices"])
            got, ref = parse_both(doc)
            assert got == ref
        for corrupt, message in CORRUPTIONS:
            doc = {"format_version": "1", "alphabet": ["a"], "vertices": 4,
                   "edges": [{"u": 0, "v": 1, "label": "a"} for _ in range(5)]}
            corrupt(doc["edges"][3], 4)
            got, ref = parse_both(doc)
            assert got == ref and got.startswith("edge 3: ") and message in got

    def test_first_bad_edge_is_named_past_edge_zero(self):
        base = [{"u": 0, "v": 1, "label": "a"}, {"u": 1, "v": 2, "orientation": "reverse"}]
        cases = [
            ({"u": True, "v": 1}, "edge 2: field 'u' must be an integer"),
            ({"u": 0, "v": 99}, r"edge 2: endpoint v = 99 out of range \[0, 4\)"),
            ({"u": 0, "v": 1, "label": "z"}, "edge 2: label 'z' outside the declared alphabet"),
            ({"u": 0, "v": 1, "weight": 3}, "edge 2: unknown field 'weight'"),
        ]
        for bad, message in cases:
            doc = {"format_version": "1", "alphabet": ["a"], "vertices": 4,
                   "edges": base + [bad, {"u": 0, "v": 7}]}
            with pytest.raises(InvalidInputError, match=message):
                parse_graph(json.dumps(doc))
        doc["edges"] = base + [{"u": 0, "v": 1, "weight": 3}]
        assert parse_graph(json.dumps(doc), strict=False).edge_count == 3

    def test_family_members_match_the_reference(self):
        rng = random.Random(13)
        for _ in range(40):
            members = [random_edge_document(rng, True) for _ in range(rng.randint(1, 3))]
            fam_doc = {"format_version": "1", "graphs": members}
            try:
                fam = parse_graph(json.dumps(fam_doc))
            except InvalidInputError as err:
                assert "not connected" in str(err)
                continue
            for g, m in zip(fam.components, members):
                assert graph_state(g) == graph_state(per_edge_graph_from_document(m))


class TestGraphErrors:
    def base(self):
        return {
            "format_version": "1",
            "alphabet": [],
            "vertices": 4,
            "edges": [],
        }

    def parse(self, doc, **kw):
        return parse_graph(json.dumps(doc), **kw)

    def test_malformed_json_names_position(self):
        with pytest.raises(InvalidInputError, match="line 1 column"):
            parse_graph("{bad")

    def test_not_utf8(self):
        with pytest.raises(InvalidInputError, match="UTF-8"):
            parse_graph(b"\xff\xfe{}")

    def test_version_checked(self):
        doc = self.base()
        doc["format_version"] = "2"
        with pytest.raises(InvalidInputError, match="unsupported format_version '2'"):
            self.parse(doc)
        del doc["format_version"]
        with pytest.raises(InvalidInputError, match="missing field 'format_version'"):
            self.parse(doc)

    def test_unknown_field_strict_vs_lax(self):
        doc = self.base()
        doc["color"] = "blue"
        with pytest.raises(InvalidInputError, match="unknown field 'color'"):
            self.parse(doc)
        assert self.parse(doc, strict=False).vertex_count == 4

    def test_edge_index_named_on_bad_endpoint(self):
        doc = self.base()
        doc["edges"] = [{"u": 0, "v": 1}, {"u": 0, "v": 99}]
        with pytest.raises(InvalidInputError, match=r"edge 1: endpoint v = 99"):
            self.parse(doc)

    def test_label_outside_alphabet(self):
        doc = self.base()
        doc["alphabet"] = ["a"]
        doc["edges"] = [{"u": 0, "v": 1, "label": "z"}]
        with pytest.raises(InvalidInputError, match="edge 0: label 'z' outside"):
            self.parse(doc)
        # formal inverses of declared symbols are fine
        doc["edges"] = [{"u": 0, "v": 1, "label": "a^-1"}]
        assert self.parse(doc).labels()[0] == "a^-1"

    def test_unknown_edge_field(self):
        doc = self.base()
        doc["edges"] = [{"u": 0, "v": 1, "weight": 3}]
        with pytest.raises(InvalidInputError, match="edge 0: unknown field 'weight'"):
            self.parse(doc)

    def test_bad_orientation(self):
        doc = self.base()
        doc["edges"] = [{"u": 0, "v": 1, "orientation": "up"}]
        with pytest.raises(InvalidInputError, match="'forward' or 'reverse'"):
            self.parse(doc)

    def test_counts_must_be_integers(self):
        doc = self.base()
        doc["vertices"] = True
        with pytest.raises(InvalidInputError, match="'vertices' must be an integer"):
            self.parse(doc)
        doc = self.base()
        doc["edges"] = [{"u": 0.5, "v": 1}]
        with pytest.raises(InvalidInputError, match="edge 0.*'u' must be an integer"):
            self.parse(doc)

    def test_edges_must_be_list(self):
        doc = self.base()
        doc["edges"] = {"u": 0}
        with pytest.raises(InvalidInputError, match="'edges' must be a list"):
            self.parse(doc)

    def test_top_level_must_be_object(self):
        with pytest.raises(InvalidInputError, match="JSON object"):
            parse_graph("[1, 2]")


class TestFamilyDocuments:
    def test_round_trip_with_annotations(self):
        fam = split_components(
            build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        )
        text = serialize_graph_family(fam, annotations={"note": "two triangles"})
        back = parse_graph(text)
        assert isinstance(back, GraphFamily)
        assert len(back) == 2
        for mine, theirs in zip(fam.components, back.components):
            assert graphs_equal(mine, theirs)

    def test_member_errors_name_their_slot(self):
        doc = {
            "format_version": "1",
            "graphs": [
                {"format_version": "1", "alphabet": [], "vertices": 1, "edges": []},
                {"format_version": "1", "alphabet": [], "vertices": 0, "edges": []},
            ],
        }
        with pytest.raises(InvalidInputError, match=r"graphs\[1\]"):
            parse_graph(json.dumps(doc))

    def test_empty_family_rejected(self):
        doc = {"format_version": "1", "graphs": []}
        with pytest.raises(InvalidInputError, match="nonempty"):
            parse_graph(json.dumps(doc))


class TestGroupTables:
    def test_round_trip(self):
        for table in (cyclic_group(6, generators=(1, 3)), symmetric_group(3)):
            back = parse_group_table(serialize_group_table(table))
            assert back.order == table.order
            assert set(back.generators) == set(table.generators)
            assert np.array_equal(back.mul_table, table.mul_table)
            assert all(back.name(i) == table.name(i) for i in range(table.order))

    def test_row_length_checked(self):
        doc = {"format_version": "1", "mul": [[0, 1], [1]]}
        with pytest.raises(InvalidInputError, match="mul row 1 has 1 entries"):
            parse_group_table(json.dumps(doc))

    def test_group_axioms_still_enforced(self):
        doc = {"format_version": "1", "mul": [[0, 1], [1, 1]]}
        with pytest.raises(InvalidInputError):
            parse_group_table(json.dumps(doc))

    def test_names_length_checked(self):
        doc = {"format_version": "1", "mul": [[0, 1], [1, 0]], "names": ["e"]}
        with pytest.raises(InvalidInputError, match="list of 2 strings"):
            parse_group_table(json.dumps(doc))


class TestMapFamilyDocuments:
    def family(self):
        return MapFamily(
            (
                MapEntry(c4(), np.eye(4), (0, 1, 2, 3)),
                MapEntry(
                    np.array([[0.0, 1.0], [1.0, 0.0]]),
                    cayley_graph(cyclic_group(3)),
                    (0, 2),
                ),
            )
        )

    def test_round_trip(self):
        mf = self.family()
        back = parse_map_family(serialize_map_family(mf))
        assert len(back) == 2
        assert graphs_equal(back.entries[0].source, c4())
        assert np.array_equal(back.entries[0].target, np.eye(4))
        assert np.array_equal(
            back.entries[1].source, np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert back.entries[1].mapping == (0, 2)

    def test_source_union_enforced(self):
        doc = json.loads(serialize_map_family(self.family()))
        doc["entries"][0]["source"] = {}
        with pytest.raises(InvalidInputError, match="entry 0: source needs exactly one"):
            parse_map_family(json.dumps(doc))

    def test_entry_validation_is_indexed(self):
        doc = json.loads(serialize_map_family(self.family()))
        doc["entries"][1]["mapping"] = [0]
        with pytest.raises(InvalidInputError, match="entry 1: map table has 1 entries"):
            parse_map_family(json.dumps(doc))

    def test_entries_nonempty(self):
        doc = {"format_version": "1", "entries": []}
        with pytest.raises(InvalidInputError, match="nonempty"):
            parse_map_family(json.dumps(doc))


class TestPointsDocuments:
    def test_round_trip(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        back = parse_points(serialize_points(pts))
        assert np.array_equal(back, pts)

    def test_ragged_rejected(self):
        doc = {"format_version": "1", "points": [[0.0], [1.0, 2.0]]}
        with pytest.raises(InvalidInputError, match="inconsistent lengths"):
            parse_points(json.dumps(doc))

    def test_flat_list_rejected(self):
        doc = {"format_version": "1", "points": [0.0, 1.0]}
        with pytest.raises(InvalidInputError, match="list of rows"):
            parse_points(json.dumps(doc))
