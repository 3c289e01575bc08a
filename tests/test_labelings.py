"""Tests for reduced labelings, pieces, C'(lambda), presentations, and
cover-induced surjection checks."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import coarselab.labelings as labelings
from coarselab.covers_walls import CoveringMap, homology_cover, iterate_homology_cover
from coarselab.errors import CapExceededError, InvalidInputError, VerificationError
from coarselab.expander_zoo import FiniteGroupTable, cayley_graph
from coarselab.graph_core import GraphFamily, build_graph, girth, inverse_label, split_components
from coarselab.labelings import (
    LABEL_BATCH,
    PIECE_DART_CAP,
    Presentation,
    SmallCancellationReport,
    _pair_components,
    _piece_analysis,
    canonical_word,
    check_reduced,
    check_small_cancellation,
    enumerate_pieces,
    free_reduce,
    graphical_presentation,
    random_labeling,
    word_inverse,
)
from groups import cyclic_group, named_cayley_graph
from oracles import (
    edge_list,
    follow_word,
    loop_check_reduced,
    naive_piece_summary,
    naive_pointed_classes,
    naive_pointed_equivalent,
    naive_word_starts,
    random_multigraph,
    random_reduced_family,
    simple_cycle_words,
    verify_covering,
    walked_pieces,
)
from paper_checks import _evaluate_word, coset_enumeration_order, verify_cover_surjection
from test_golden_artifacts import HASH_SENSITIVE_EDGES, LABELED_EDGES

SRC = Path(__file__).resolve().parents[1] / "src"


def labeled_cycle(word):
    n = len(word)
    return build_graph(n, [(i, (i + 1) % n, word[i]) for i in range(n)])


# -- words -----------------------------------------------------------------


def test_word_utilities():
    assert word_inverse(("a", "b^-1")) == ("b", "a^-1")
    assert free_reduce(("a", "b", "b^-1", "a", "a^-1", "a^-1")) == ()
    assert free_reduce(("a", "a", "b")) == ("a", "a", "b")
    assert canonical_word(("b", "a", "a")) == ("a^-1", "a^-1", "b^-1")


# -- reducedness ------------------------------------------------------------


def test_check_reduced_uniform_cycle():
    # outgoing labels at each vertex are a and a^-1, which differ
    assert check_reduced(labeled_cycle("aaaa")).ok


def test_check_reduced_rejects_parallel_same_label():
    g = build_graph(2, [(0, 1, "a"), (0, 1, "a")])
    res = check_reduced(g)
    assert not res.ok
    assert res.vertex == 0
    d1, d2 = res.darts
    assert g.labels()[d1] == g.labels()[d2] == "a"
    assert g.src[d1] == g.src[d2] == 0


def test_check_reduced_loop_is_fine():
    g = build_graph(1, [(0, 0, "a")])
    assert check_reduced(g).ok


def test_check_reduced_needs_labels():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(InvalidInputError, match="unlabeled"):
        check_reduced(g)


def test_check_reduced_matches_the_loop_on_labeled_multigraphs():
    # seeded multigraphs with a doubled edge and a loop, a few darts left
    # unlabeled: the verdict, the counterexample and the error all match
    rng = Random(23)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(1, 8)
        g = random_multigraph(rng, n, rng.randrange(0, 2 * n))
        symbols = ["a", "b", "c", "a^-1", "b^-1", "c^-1"] + [None] * (rng.random() < 0.2)
        labeled = build_graph(n, [(u, v, rng.choice(symbols)) for u, v, _ in edge_list(g)], alphabet="abc")
        try:
            want = loop_check_reduced(labeled)
        except InvalidInputError as err:
            with pytest.raises(InvalidInputError, match=str(err)):
                check_reduced(labeled)
            outcomes.add("unlabeled")
            continue
        assert check_reduced(labeled) == want
        outcomes.add(want.ok)
    assert outcomes == {True, False, "unlabeled"}


def test_relabeled_candidates_read_as_their_built_families():
    # a candidate of the search shares the darts of the unlabeled family
    # and reads edge k backwards where its signed label is an inverse; its
    # reducedness and C'(lambda) verdict are those of the family built
    # edge by edge, which is the labeling the search returns
    symbols = ("a", "b", "c")
    cycle = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    rng = np.random.default_rng(29)
    verdicts = set()
    for signed in rng.integers(6, size=(1000, 24)):
        rows = np.split(signed, 3)
        built = GraphFamily(tuple(
            build_graph(8, [(u, v, symbols[s]) if s < 3 else (v, u, symbols[s - 3])
                            for (u, v, _), s in zip(edge_list(cycle), row.tolist())], alphabet=symbols)
            for row in rows
        ))
        shared = GraphFamily(tuple(
            cycle.relabel(np.stack((row, (row + 3) % 6), axis=1).reshape(-1), symbols) for row in rows
        ))
        for a, b, row in zip(built.components, shared.components, rows):
            assert check_reduced(a).ok == check_reduced(b).ok
            assert edge_list(labelings._oriented(cycle, row, symbols)) == edge_list(a)
        if all(check_reduced(g).ok for g in built.components):
            verdict = check_small_cancellation(built, Fraction(1, 2)).passed
            assert check_small_cancellation(shared, Fraction(1, 2)).passed == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- pieces -----------------------------------------------------------------


def test_uniform_cycle_has_no_pieces():
    # all occurrences of a^k are related by rotations of the cycle
    fam = GraphFamily((labeled_cycle("aaaa"),))
    assert enumerate_pieces(fam) == ()


def test_aaab_piece():
    fam = GraphFamily((labeled_cycle("aaab"),))
    pieces = enumerate_pieces(fam)
    assert [p.word for p in pieces] == [("a", "a")]
    piece = pieces[0]
    assert piece.length == 2 and not piece.infinite
    assert piece.components == (0,)
    assert sorted((o.component, o.start) for o in piece.occurrences) == [(0, 0), (0, 1)]
    for occ in piece.occurrences:
        g = fam.components[occ.component]
        assert tuple(g.labels()[d] for d in occ.darts) == piece.word


def test_aaab_small_cancellation_threshold():
    # the length-2 piece needs 2 < lambda*4, so 1/2 fails and 3/4 passes
    fam = GraphFamily((labeled_cycle("aaab"),))
    half = check_small_cancellation(fam, Fraction(1, 2))
    assert not half.passed
    assert half.girths == (4,)
    assert half.max_piece_length == (2,)
    assert half.violations
    assert check_small_cancellation(fam, Fraction(3, 4)).passed


def test_two_cycles_share_aab():
    fam = GraphFamily((labeled_cycle("aabab"), labeled_cycle("aabba")))
    pieces = enumerate_pieces(fam)
    longest = max(p.length for p in pieces)
    assert longest >= 3
    target = ("a", "a", "b")
    assert any(
        len(p.word) >= 3
        and any(
            form[i : i + 3] == target
            for form in (p.word, word_inverse(p.word))
            for i in range(len(form) - 2)
        )
        for p in pieces
    )
    report = check_small_cancellation(fam, Fraction(1, 2))
    assert report.max_piece_length == (3, 3)
    assert not report.passed


def test_identical_components_share_everything():
    # two copies of the same labeled cycle: every occurrence pair is
    # related by an isomorphism between the components, so no pieces
    fam = GraphFamily((labeled_cycle("aaaa"), labeled_cycle("aaaa")))
    assert enumerate_pieces(fam) == ()


def test_infinite_piece_from_common_power():
    # a^k is readable around both cycles for every k, and the two
    # components have different sizes, so no isomorphism relates them
    fam = GraphFamily((labeled_cycle("aaaa"), labeled_cycle("aaaaaa")))
    pieces = enumerate_pieces(fam)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.infinite and piece.length == math.inf
    assert set(piece.word) == {"a"}
    assert piece.components == (0, 1)
    report = check_small_cancellation(fam, Fraction(99, 1))
    assert not report.passed
    assert report.max_piece_length == (math.inf, math.inf)


def test_piece_enumeration_cap():
    fam = GraphFamily((labeled_cycle("aaab"),))
    with pytest.raises(CapExceededError):
        enumerate_pieces(fam, cap=7)
    # the verdict needs no enumeration, but the cap still holds up front
    with pytest.raises(CapExceededError):
        check_small_cancellation(fam, Fraction(1, 2), cap=7)


def test_report_evidence_must_agree_with_verdict():
    fam = GraphFamily((labeled_cycle("aaab"),))
    forged = SmallCancellationReport(
        lambda_value=Fraction(1, 2), girths=(4,), passed=True, family=fam, cap=PIECE_DART_CAP
    )
    with pytest.raises(VerificationError, match="disagrees"):
        forged.violations


def _random_reduced_multigraph_family(rng):
    """Components of a random multigraph (a loop, a doubled edge, often
    trees and isolated vertices) under a random reduced labeling, or
    None when ten labelings in a row were not reduced."""
    n = rng.randrange(2, 8)
    base = random_multigraph(rng, n, rng.randrange(1, n + 3))
    symbols = ["a", "b", "c"][: rng.randrange(2, 4)]
    for _ in range(10):
        edges = []
        for u, v, _ in edge_list(base):
            if rng.randrange(2):
                u, v = v, u
            edges.append((u, v, rng.choice(symbols)))
        fam = split_components(build_graph(n, edges, alphabet=symbols))
        if all(check_reduced(g).ok for g in fam.components):
            return fam
    return None


def test_pair_walk_verdict_matches_piece_enumeration():
    rng = Random(61)
    verdicts = []
    oracle_checked = 0
    while len(verdicts) < 600:
        fam = _random_reduced_multigraph_family(rng)
        if fam is None:
            continue
        girths = [girth(g) for g in fam.components]
        finite = [gr for gr in girths if gr is not math.inf]
        # lambda*girth integral on some component puts a piece exactly at
        # the bound there; a second, arbitrary lambda covers the rest
        lams = [Fraction(rng.randrange(1, 2 * gr + 1), gr) for gr in finite[:1]]
        lams.append(Fraction(rng.randrange(1, 12), rng.randrange(1, 8)))
        _, per_comp_max = _piece_analysis(fam, PIECE_DART_CAP)
        # the verdict walks the pair graph and the enumeration reads it in
        # bulk; small families are also held against the independent oracle
        references = [per_comp_max]
        if sum(g.edge_count for g in fam.components) <= 10:
            references.append(naive_piece_summary(fam)["per_comp_max"])
            oracle_checked += 1
        for lam in lams:
            passed = check_small_cancellation(fam, lam).passed
            for reference in references:
                expected = all(
                    longest == 0 or longest < (math.inf if gr is math.inf else lam * gr)
                    for longest, gr in zip(reference, girths)
                )
                assert passed == expected
            verdicts.append(passed)
    assert 100 < sum(verdicts) < 500
    assert oracle_checked > 250


def test_infinite_pieces_are_cyclically_reduced_closed_walks():
    rng = Random(62)
    checked = 0
    while checked < 150:
        fam = _random_reduced_multigraph_family(rng)
        if fam is None:
            continue
        for piece in enumerate_pieces(fam):
            if not piece.infinite:
                continue
            w = piece.word
            assert free_reduce(w) == w and free_reduce(w[-1:] + w[:1]) == w[-1:] + w[:1]
            closed = [
                (ci, v)
                for ci, g in enumerate(fam.components)
                for v in range(g.vertex_count)
                if (darts := follow_word(g, v, w)) is not None and g.dst[darts[-1]] == v
            ]
            assert any(
                not naive_pointed_equivalent(fam, p, q)
                for i, p in enumerate(closed)
                for q in closed[i + 1 :]
            ), (w, closed)
            checked += 1


def test_each_piece_word_listed_once():
    # a is read along a tree path of the pair walk from the 2-vertex
    # component to a loop, and as a period around the two a-loops; it is
    # listed once, as infinite
    fam = GraphFamily(
        (
            build_graph(2, [(1, 0, "a"), (0, 1, "b")]),
            build_graph(1, [(0, 0, "a")]),
            build_graph(1, [(0, 0, "a"), (0, 0, "b")]),
        )
    )
    pieces = enumerate_pieces(fam)
    words = [p.word for p in pieces]
    assert len(words) == len(set(words))
    assert [p.infinite for p in pieces if p.word == ("a",)] == [True]


def test_mirror_pair_components_give_one_period():
    # the pair walk from (a, b) and its mirror from (b, a) read the same
    # cycle, as [a^-1, b] and as [a, b^-1], a rotation of its inverse;
    # only the component entered at the smallest pair node is read
    g = build_graph(
        4, [(3, 0, "b"), (0, 2, "b"), (0, 2, "a"), (1, 2, "c"), (3, 0, "a"), (1, 1, "a")]
    )
    pieces = enumerate_pieces(GraphFamily((g,)))
    assert [p.word for p in pieces if p.infinite] == [("a^-1", "b")]


def test_pieces_require_reduced_labeling():
    g = build_graph(2, [(0, 1, "a"), (0, 1, "a")])
    with pytest.raises(InvalidInputError, match="not reduced"):
        enumerate_pieces(GraphFamily((g,)))


def test_pieces_deterministic():
    rng = Random(411)
    for _ in range(20):
        fam = random_reduced_family(rng)
        assert enumerate_pieces(fam) == enumerate_pieces(fam)


def _looped_triangle(loop):
    return build_graph(3, [(0, 1, "a"), (1, 2, "a"), (2, 0, "a"), (0, 0, loop)])


def _symmetric_families():
    """Families with large pointed classes: uniform cycles next to a copy
    or a double cover of themselves (in both orders), (ab)^k cycles, the
    homology cover of the Cayley graph of Z/6, and two triangles whose
    starts carry equally many labels but different ones."""
    return [
        GraphFamily(comps)
        for comps in (
            (labeled_cycle("aaaaa"), labeled_cycle("aaaaa")),
            (labeled_cycle("aaaaa"), labeled_cycle("a" * 10)),
            (labeled_cycle("a" * 10), labeled_cycle("aaaaa")),
            (labeled_cycle("ab" * 3),),
            (labeled_cycle("ab" * 2), labeled_cycle("ab" * 4)),
            (homology_cover(cayley_graph(cyclic_group(6))).cover,),
            (_looped_triangle("b"), _looped_triangle("c")),
        )
    ]


def test_pair_walk_flags_exactly_the_equivalent_components():
    rng = Random(500)
    seeded = [random_reduced_family(rng) for _ in range(25)]
    shapes = set()
    for i, fam in enumerate(seeded + _symmetric_families()):
        points = [(ci, v) for ci, g in enumerate(fam.components) for v in range(g.vertex_count)]
        naive = naive_pointed_classes(fam)
        flagged = set()
        for _, tree, closing, equivalent in _pair_components(fam, PIECE_DART_CAP):
            pairs = [divmod(u, len(points)) for u in tree]
            for x, y in pairs:
                assert equivalent == (naive[points[x]] == naive[points[y]])
            if equivalent:
                flagged.update(pairs)
                flagged.update((y, x) for x, y in pairs)
            if i < len(seeded):
                shapes.add((equivalent, closing is None))
        # every start carries a label here, so every equivalent pair of
        # distinct starts is walked, itself or as a mirror
        assert flagged == {
            (x, y)
            for x, p in enumerate(points)
            for y, q in enumerate(points)
            if x != y and naive[p] == naive[q]
        }
    assert {flag for flag, _ in shapes} == {True, False}
    assert {tree for _, tree in shapes} == {True, False}


def _assert_pieces_match_oracle(fam):
    expected = naive_piece_summary(fam)
    report = check_small_cancellation(fam, Fraction(1, 2))
    assert list(report.max_piece_length) == expected["per_comp_max"]
    girths = [girth(g) for g in fam.components]
    for lam in (Fraction(1, 6), Fraction(1, 3), Fraction(1), Fraction(2)):
        assert check_small_cancellation(fam, lam).passed == all(
            longest == 0 or longest < (math.inf if gr is math.inf else lam * gr)
            for longest, gr in zip(expected["per_comp_max"], girths)
        )
    pieces = enumerate_pieces(fam)
    has_infinite = any(p.infinite for p in pieces)
    assert has_infinite == expected["infinite"]
    if not expected["infinite"]:
        assert {p.word for p in pieces} == expected["maximal_words"]
    for piece in pieces:
        starts = naive_word_starts(fam, piece.word)
        assert {s[0] for s in starts} == set(piece.components)
        classes = []
        for s in starts:
            for c in classes:
                if naive_pointed_equivalent(fam, s, c[0]):
                    c.append(s)
                    break
            else:
                classes.append([s])
        assert len(classes) == len(piece.occurrences)
        occ_points = {(o.component, o.start) for o in piece.occurrences}
        assert occ_points <= set(starts)


def test_pieces_agree_with_naive_oracle():
    # spec-level invariant: 200 random reduced labelings, <= 10 edges,
    # alphabet <= 2, compared against the VF2 + simultaneous-DFS oracle
    rng = Random(20260814)
    for _ in range(200):
        _assert_pieces_match_oracle(random_reduced_family(rng))


@pytest.mark.parametrize("index", range(len(_symmetric_families())))
def test_symmetric_pieces_agree_with_naive_oracle(index):
    _assert_pieces_match_oracle(_symmetric_families()[index])


def _reduced_labeling(g, symbols, rng):
    """A seeded reduced labeling of ``g``: each edge in turn takes a
    random symbol and orientation that no dart at either end carries yet,
    and the draw starts over when some edge has none left."""
    while True:
        carried = [set() for _ in range(g.vertex_count)]
        edges = []
        for u, v, _ in edge_list(g):
            options = [
                (a, b, s)
                for s in symbols
                for a, b in ((u, v), (v, u))
                if s not in carried[a] and inverse_label(s) not in carried[b]
            ]
            if not options:
                break
            a, b, s = rng.choice(options)
            carried[a].add(s)
            carried[b].add(inverse_label(s))
            edges.append((a, b, s))
        else:
            return build_graph(g.vertex_count, edges, alphabet=symbols)


def _cyclic_word(rng, length):
    """A uniformly drawn cyclically reduced word over a, b, c."""
    symbols = [s for x in "abc" for s in (x, inverse_label(x))]
    while True:
        word = [rng.choice(symbols)]
        while len(word) < length:
            s = rng.choice(symbols)
            if s != inverse_label(word[-1]):
                word.append(s)
        if word[0] != inverse_label(word[-1]):
            return word


def _labeled_cycles(seed, count, length):
    """``count`` cycles of ``length`` reading seeded cyclically reduced
    words over three symbols."""
    rng = Random(seed)
    return GraphFamily(
        tuple(
            build_graph(length, [(i, (i + 1) % length, s) for i, s in enumerate(_cyclic_word(rng, length))])
            for _ in range(count)
        )
    )


def _complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _cover_labelings():
    """Seeded reduced labelings of the K4 homology cover over three
    symbols and of K6 over six and eight, whose pair nodes carry three or
    more common labels.  (The K6 homology cover has 30,720 darts, fifteen
    times the dart cap.)"""
    k4_cover = homology_cover(_complete(4)).cover
    families = []
    for seed in range(4):
        families.append(GraphFamily((_reduced_labeling(k4_cover, "abc", Random(seed)),)))
        for symbols in ("abcdef", "abcdefgh"):
            families.append(GraphFamily((_reduced_labeling(_complete(6), symbols, Random(seed)),)))
    return families


def _assert_bulk_equals_walk(fam, cap=PIECE_DART_CAP):
    pieces, per_comp_max = _piece_analysis(fam, cap)
    assert (pieces, per_comp_max) == walked_pieces(fam, cap)
    assert all(type(x) is int or x == math.inf for x in per_comp_max)
    for p in pieces:
        assert all(type(v) is int for o in p.occurrences for v in (o.component, o.start, *o.darts))
    return pieces


def test_bulk_pieces_equal_the_walked_pieces_on_small_families():
    rng = Random(1907)
    for fam in [random_reduced_family(rng) for _ in range(200)] + _symmetric_families():
        _assert_bulk_equals_walk(fam)


def test_bulk_pieces_equal_the_walked_pieces_on_labeled_covers():
    leaves = set()
    for fam in _cover_labelings():
        assert _assert_bulk_equals_walk(fam)
        for _, tree, closing, equivalent in _pair_components(fam, PIECE_DART_CAP):
            if closing is None and not equivalent:
                ups = [up for up, _ in tree.values()]
                leaves.add(sum(1 for u in tree if ups.count(u) + (tree[u][0] >= 0) == 1))
    # trees with more than two leaves, whose leaf-to-leaf words branch
    assert max(leaves) > 3


@pytest.mark.parametrize("edges", [LABELED_EDGES, HASH_SENSITIVE_EDGES])
def test_bulk_pieces_equal_the_walked_pieces_on_cyclic_components(edges):
    fam = split_components(build_graph(max(max(u, v) for u, v, _ in edges) + 1, edges))
    assert any(p.infinite for p in _assert_bulk_equals_walk(fam))


def test_bulk_pieces_equal_the_walked_pieces_on_long_cycles():
    _assert_bulk_equals_walk(_labeled_cycles(3, 8, 60))
    # 10 x C100 has exactly the cap's 2,000 darts
    near_cap = _labeled_cycles(4, 10, 100)
    assert sum(g.dart_count for g in near_cap.components) == PIECE_DART_CAP
    _assert_bulk_equals_walk(near_cap)


def test_bulk_pieces_peak_memory_at_the_dart_cap():
    """A uniformly labeled C_1000 holds the cap's 2,000 darts, and every
    two of its starts pair: 999,000 pair nodes.  The resident set of a
    fresh process grows by at most 64 MB while its pieces are read."""
    script = (
        "import resource\n"
        "from coarselab.graph_core import GraphFamily, build_graph\n"
        "from coarselab.labelings import enumerate_pieces\n"
        "fam = GraphFamily((build_graph(1000, [(i, (i + 1) % 1000, 'a') for i in range(1000)]),))\n"
        "enumerate_pieces(GraphFamily((build_graph(4, [(i, (i + 1) % 4, 'a') for i in range(4)]),)))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert enumerate_pieces(fam) == ()\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 64


def test_only_cyclic_components_take_the_breadth_first_walk(monkeypatch):
    entered = []
    inner = labelings._walk_pair_component

    def counted(moves, root):
        entered.append(root)
        return inner(moves, root)

    # on these cycles every inequivalent component is a tree
    trees = _labeled_cycles(3, 8, 60)
    cyclic = split_components(build_graph(7, LABELED_EDGES))
    expected = [
        tree for fam in (trees, cyclic)
        for _, tree, closing, equivalent in _pair_components(fam, PIECE_DART_CAP)
        if closing is not None and not equivalent
    ]
    monkeypatch.setattr(labelings, "_walk_pair_component", counted)
    assert not any(p.infinite for p in enumerate_pieces(trees))
    assert entered == []
    assert any(p.infinite for p in enumerate_pieces(cyclic))
    assert sorted(entered) == sorted(min(tree) for tree in expected) and entered


@pytest.mark.parametrize(
    "comps, empty",
    [
        ((build_graph(1, []),), True),
        ((build_graph(1, [(0, 0, "a")]),), True),
        ((labeled_cycle("aaaaa"),), True),
        ((build_graph(1, []), labeled_cycle("aaaa")), True),
        ((build_graph(1, []), labeled_cycle("aab")), False),
    ],
    ids=["edgeless", "lone_loop", "uniform_cycle", "isolated_beside_uniform_cycle", "isolated_beside_cycle"],
)
def test_families_with_few_or_no_pair_nodes(comps, empty):
    # no two starts share a label, or only equivalent ones do, or a start
    # that carries no label sits beside the pairs
    fam = GraphFamily(comps)
    pieces = _assert_bulk_equals_walk(fam)
    report = check_small_cancellation(fam, Fraction(1, 2))
    assert enumerate_pieces(fam) == tuple(pieces)
    assert (pieces == []) == empty
    if empty:
        assert report.max_piece_length == (0,) * len(comps) and report.passed


def test_lambda_monotonicity():
    rng = Random(77)
    ladder = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)]
    for _ in range(30):
        fam = random_reduced_family(rng)
        flags = [check_small_cancellation(fam, lam).passed for lam in ladder]
        assert flags == sorted(flags)


# -- pieces in covers --------------------------------------------------------


def test_cover_pieces_project_to_base():
    base = labeled_cycle("aaab")
    cm = homology_cover(base)
    base_fam = GraphFamily((base,))
    cover_fam = GraphFamily((cm.cover,))
    base_pieces = enumerate_pieces(base_fam)
    cover_pieces = enumerate_pieces(cover_fam)
    # piece lengths are preserved by the covering
    assert {p.word for p in base_pieces} == {p.word for p in cover_pieces}
    base_maps = None
    for piece in cover_pieces:
        for occ in piece.occurrences:
            projected = tuple(cm.dart_map[d] for d in occ.darts)
            assert tuple(base.labels()[d] for d in projected) == piece.word
            downstairs = follow_word(base, cm.vertex_map[occ.start], piece.word)
            assert downstairs == projected


def test_cover_of_reduced_base_is_reduced():
    rng = Random(9021)
    for _ in range(15):
        fam = random_reduced_family(rng, max_components=1)
        base = fam.components[0]
        cm = homology_cover(base)
        assert check_reduced(cm.cover).ok
        deep = iterate_homology_cover(base, 2, vertex_cap=200000)
        assert check_reduced(deep.cover).ok


# -- random labelings --------------------------------------------------------


def test_random_labeling_deterministic():
    cycle = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    fam = GraphFamily((cycle,))
    a = random_labeling(fam, 2, Fraction(1, 2), seed=11)
    b = random_labeling(fam, 2, Fraction(1, 2), seed=11)
    assert a.success == b.success
    assert a.attempts == b.attempts
    if a.success:
        assert [list(edge_list(g)) for g in a.family.components] == [
            list(edge_list(g)) for g in b.family.components
        ]


def test_random_labeling_small_cycle_succeeds():
    cycle = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    fam = GraphFamily((cycle,))
    out = random_labeling(fam, 2, Fraction(1, 2), seed=5, max_attempts=5000)
    assert out.success
    assert out.attempts >= 1
    assert out.report.passed
    for g in out.family.components:
        assert check_reduced(g).ok
        assert g.vertex_count == 6 and g.edge_count == 6
    # the verifier must agree when rerun from scratch
    assert check_small_cancellation(out.family, Fraction(1, 2)).passed


def test_random_labeling_precondition():
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidInputError, match="not > 1"):
        random_labeling(GraphFamily((tri,)), 1, Fraction(1, 6), seed=0)


def test_random_labeling_stream_ignores_the_budget():
    cycle = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    fam = GraphFamily((cycle, cycle))
    first = random_labeling(fam, 4, Fraction(1, 4), seed=0, max_attempts=3 * LABEL_BATCH)
    assert first.success
    win = first.attempts
    assert win % LABEL_BATCH not in (0, 1)
    for budget in (win, 2 * win, 10 * LABEL_BATCH):
        again = random_labeling(fam, 4, Fraction(1, 4), seed=0, max_attempts=budget)
        assert again.attempts == win
        assert [list(edge_list(g)) for g in again.family.components] == [
            list(edge_list(g)) for g in first.family.components
        ]
    # one short of the winner, in the winner's batch: the search stops at
    # exactly the budget and never looks at the rest of the batch
    short = random_labeling(fam, 4, Fraction(1, 4), seed=0, max_attempts=win - 1)
    assert not short.success and short.attempts == win - 1


def test_random_labeling_takes_the_girths_once(monkeypatch):
    # girths do not depend on the labels: the search computes them once per
    # component, while every reduced candidate still faces the checker

    cycle = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    fam = GraphFamily((cycle, cycle, build_graph(5, [(i, (i + 1) % 5) for i in range(5)])))
    girths, checked = [], []
    inner_girth, inner_check = labelings.girth, labelings.check_small_cancellation

    def count_girth(g, sources=None):
        girths.append(g.vertex_count)
        return inner_girth(g, sources)

    def count_check(candidate, lam, cap=labelings.PIECE_DART_CAP, girths=None):
        report = inner_check(candidate, lam, cap, girths=girths)
        checked.append(report.girths == tuple(inner_girth(g) for g in candidate.components))
        return report

    monkeypatch.setattr(labelings, "girth", count_girth)
    monkeypatch.setattr(labelings, "check_small_cancellation", count_check)
    out = random_labeling(fam, 3, Fraction(1, 4), seed=0, max_attempts=2000)
    assert girths == [8, 8, 5]
    assert len(checked) > 10 and all(checked)
    assert not out.success and out.attempts == 2000


def test_small_cancellation_girths_must_match_the_family():
    cycle = build_graph(6, [(i, (i + 1) % 6, "a") for i in range(6)])
    fam = GraphFamily((cycle,))
    assert check_small_cancellation(fam, Fraction(1, 2), girths=(6,)).girths == (6,)
    with pytest.raises(InvalidInputError):
        check_small_cancellation(fam, Fraction(1, 2), girths=(6, 6))


def test_small_cancellation_reads_any_infinite_girth():
    # a forest's girth may come in as any float infinity, not only the
    # math.inf object that girth returns
    fam = GraphFamily((build_graph(3, [(0, 1, "a"), (1, 2, "b")]),))
    computed = check_small_cancellation(fam, "1/6")
    for inf in (float("inf"), np.inf):
        report = check_small_cancellation(fam, "1/6", girths=[inf])
        assert report.passed == computed.passed
        assert report.violations == computed.violations == ()


def test_random_labeling_reports_failure_budget():
    cycle = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    out = random_labeling(GraphFamily((cycle,)), 1, Fraction(3, 8), seed=1, max_attempts=4)
    # alphabet of one symbol forces a^8 around the cycle whenever the
    # orientation is consistent; pieces then never beat 3 = lambda*8,
    # and inconsistent orientations are not even reduced
    assert not out.success
    assert out.attempts == 4
    assert out.family is None


# -- presentations -----------------------------------------------------------


def test_presentation_abab():
    fam = GraphFamily((labeled_cycle("abab"),))
    pres = graphical_presentation(fam)
    assert pres.alphabet == ("a", "b")
    assert pres.relators == (("a", "b", "a", "b"),)


def test_presentation_theta():
    theta = build_graph(2, [(0, 1, "a"), (0, 1, "b"), (0, 1, "c")])
    pres = graphical_presentation(GraphFamily((theta,)))
    assert len(pres.relators) == 2
    for r in pres.relators:
        assert free_reduce(r) == r and len(r) == 2
    # in Z/5 with a = b = c = 1 the relators die, and so does every
    # simple closed path of the theta graph
    z5 = cyclic_group(5)
    assignment = {"a": 1, "b": 1, "c": 1}
    assert all(_evaluate_word(z5, assignment, r) == z5.identity for r in pres.relators)
    cycles = simple_cycle_words(theta)
    assert len(cycles) == 3
    assert all(_evaluate_word(z5, assignment, w) == z5.identity for w in cycles)


def test_presentation_cayley_z4_defines_group_of_order_4():
    z4 = cyclic_group(4)
    g = named_cayley_graph(z4, "a")
    pres = graphical_presentation(GraphFamily((g,)))
    assert coset_enumeration_order(pres) == z4.order == 4


def test_presentation_rank_cap():
    theta = build_graph(2, [(0, 1, "a"), (0, 1, "b"), (0, 1, "c")])
    with pytest.raises(CapExceededError, match="rank"):
        graphical_presentation(GraphFamily((theta,)), rank_cap=1)


def test_presentation_requires_reduced():
    g = build_graph(2, [(0, 1, "a"), (0, 1, "a")])
    with pytest.raises(InvalidInputError, match="not reduced"):
        graphical_presentation(GraphFamily((g,)))


# -- coset enumeration -------------------------------------------------------


def test_coset_enumeration_known_orders():
    assert coset_enumeration_order(Presentation(("a",), (("a",) * 4,))) == 4
    s3 = Presentation(("a", "b"), (("a", "a"), ("b", "b"), ("a", "b") * 3))
    assert coset_enumeration_order(s3) == 6
    a5 = Presentation(("a", "b"), (("a", "a"), ("b", "b", "b"), ("a", "b") * 5))
    assert coset_enumeration_order(a5) == 60
    q8 = Presentation(
        ("a", "b"),
        (("a",) * 4, ("a", "a", "b^-1", "b^-1"), ("b^-1", "a", "b", "a")),
    )
    assert coset_enumeration_order(q8) == 8


def test_coset_enumeration_collapse_to_trivial():
    pres = Presentation(("a",), (("a", "a", "a"), ("a", "a", "a", "a")))
    assert coset_enumeration_order(pres) == 1


def test_coset_enumeration_cap_on_free_group():
    with pytest.raises(CapExceededError, match="cosets"):
        coset_enumeration_order(Presentation(("a", "b"), ()), max_cosets=200)


# -- covers and quotients ----------------------------------------------------


def c3_cover():
    base = named_cayley_graph(cyclic_group(3), "a")
    return homology_cover(base)


def test_check_label_preserving_cover_accepts_homology_cover():
    cm = c3_cover()
    assert cm.cover.vertex_count == 6
    assert verify_covering(cm).deck_order == 2


def test_check_label_preserving_cover_identity():
    base = named_cayley_graph(cyclic_group(3), "a")
    ident = CoveringMap(
        base=base,
        cover=base,
        vertex_map=tuple(range(base.vertex_count)),
        dart_map=tuple(range(base.dart_count)),
        deck_rank=0,
    )
    assert verify_covering(ident).deck_order == 1


def test_check_label_preserving_cover_rejects_relabeled_dart():
    cm = c3_cover()
    edges = list(edge_list(cm.cover))
    u, v, _ = edges[0]
    edges[0] = (u, v, "a^-1")
    tampered = CoveringMap(
        base=cm.base,
        cover=build_graph(cm.cover.vertex_count, edges, alphabet=cm.cover.alphabet),
        vertex_map=cm.vertex_map,
        dart_map=cm.dart_map,
        deck_rank=cm.deck_rank,
        single_step=cm.single_step,
    )
    with pytest.raises(VerificationError, match="label not preserved"):
        verify_covering(tampered)


def test_verify_cover_surjection_z3():
    cm = c3_cover()
    base_pres = graphical_presentation(GraphFamily((cm.base,)))
    cover_pres = graphical_presentation(GraphFamily((cm.cover,)))
    assert canonical_word(base_pres.relators[0]) == ("a",) * 3
    assert canonical_word(cover_pres.relators[0]) == ("a",) * 6
    report = verify_cover_surjection(cm, [(cyclic_group(3), {"a": 1})])
    assert report.ok and bool(report)
    assert report.base_quotient_ok == (True,)
    assert report.cover_failures == ()


def test_verify_cover_surjection_flags_z4():
    # Z/4 is not a quotient of the base group Z/3: the base relator
    # a^3 maps to 3 != 0, and the cover relator a^6 maps to 2 != 0
    cm = c3_cover()
    report = verify_cover_surjection(
        cm, [(cyclic_group(3), {"a": 1}), (cyclic_group(4), {"a": 1})]
    )
    assert not report.ok and not bool(report)
    assert report.base_quotient_ok == (True, False)
    assert len(report.cover_failures) == 1
    qi, relator, value = report.cover_failures[0]
    assert qi == 1
    assert canonical_word(relator) == ("a",) * 6
    assert value == 2


def test_verify_cover_surjection_trivial_quotient():
    cm = c3_cover()
    trivial = FiniteGroupTable([[0]])
    report = verify_cover_surjection(cm, [(trivial, {"a": 0})])
    assert report.ok
    assert report.base_quotient_ok == (True,)


def test_verify_cover_surjection_missing_symbol():
    cm = c3_cover()
    with pytest.raises(InvalidInputError, match="interpretation"):
        verify_cover_surjection(cm, [(cyclic_group(3), {})])
