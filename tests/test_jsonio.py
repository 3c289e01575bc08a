"""Tests for the JSON interchange documents and their strict parser."""

import json
import random

import numpy as np
import pytest

from coarselab.errors import InvalidInputError
from coarselab.expander_zoo import cayley_graph
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
from oracles import graphs_equal


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
        assert back.dart_label(2) == "a^-1"

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
        assert (g.dart_source(0), g.dart_target(0), g.dart_label(0)) == (1, 0, "a")

    def test_graphs_equal_discriminates(self):
        assert graphs_equal(c4(), c4())
        assert not graphs_equal(c4(), cayley_graph(cyclic_group(5)))
        a = build_graph(2, [(0, 1, "a")], alphabet=["a"])
        b = build_graph(2, [(0, 1, "b")], alphabet=["b"])
        assert not graphs_equal(a, b)


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
        assert self.parse(doc).dart_label(0) == "a^-1"

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
            assert all(
                back.mul(a, b) == table.mul(a, b)
                for a in range(table.order)
                for b in range(table.order)
            )
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
