import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from coarselab import graph_core, jsonio
from coarselab.errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
)
from coarselab.graph_core import (
    DIAMETER_BLOCK,
    GraphFamily,
    LabeledGraph,
    adjacency_spectrum,
    boundary_size,
    build_graph,
    cheeger_exact,
    diameter,
    distance_matrix,
    girth,
    inverse_label,
    split_components,
    two_coloring,
)
from coarselab.covers_walls import homology_cover, iterate_homology_cover
from coarselab.expander_zoo import cayley_graph, lps_graph

from groups import cyclic_group, symmetric_group
from oracles import (
    all_character_blocks_spectrum,
    bfs_distances,
    bfs_two_coloring,
    complete,
    degrees,
    dense_eigvalsh,
    dense_laplacian_lambda2,
    dg_ratio,
    edge_list,
    lifted_character_residual,
    multi_k4,
    naive_cheeger,
    naive_girth,
    naive_xor_rank,
    petersen,
    prism,
    random_connected_graph,
    random_graph,
    random_multigraph,
    scipy_distance_matrix,
)


def cycle(n: int) -> LabeledGraph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> LabeledGraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildGraph:
    def test_labeled_triangle_has_six_darts(self):
        g = build_graph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])
        assert g.dart_count == 6
        assert g.edge_count == 3
        assert g.alphabet == {"a", "b", "c"}

    def test_single_vertex_no_edges(self):
        g = build_graph(1, [])
        assert girth(g) is math.inf
        assert g.is_connected

    def test_parallel_edges_accepted(self):
        g = build_graph(2, [(0, 1, "a"), (0, 1, "a")])
        assert g.edge_count == 2
        assert girth(g) == 2

    def test_dart_involution(self):
        g = build_graph(3, [(0, 1, "a"), (1, 2, "b^-1")])
        for d in range(g.dart_count):
            r = d ^ 1
            assert g.src[d] == g.dst[r]
            assert g.labels()[r] == inverse_label(g.labels()[d])

    def test_double_inverse_is_identity(self):
        for lab in ("a", "a^-1", "x7", None):
            assert inverse_label(inverse_label(lab)) == lab

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(2, [(0, 2)])

    def test_label_outside_alphabet_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(2, [(0, 1, "c")], alphabet=["a", "b"])

    def test_inverse_marker_forbidden_in_alphabet(self):
        with pytest.raises(InvalidInputError):
            build_graph(2, [(0, 1)], alphabet=["a^-1"])

    def test_inverse_labels_use_declared_base(self):
        g = build_graph(2, [(0, 1, "a^-1")], alphabet=["a"])
        assert g.labels()[0] == "a^-1"
        assert g.labels()[1] == "a"

    def test_loop_degree_counts_twice(self):
        g = build_graph(1, [(0, 0)])
        assert degrees(g)[0] == 2
        assert girth(g) == 1


class TestDistances:
    def test_bfs_symmetry_and_triangle_inequality_exhaustive(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(2, 13)
            g = random_connected_graph(rng, n, rng.randrange(0, 8))
            dist = [bfs_distances(g, s) for s in range(n)]
            for a in range(n):
                for b in range(n):
                    assert dist[a][b] == dist[b][a]
                    for c in range(n):
                        assert dist[a][c] <= dist[a][b] + dist[b][c]

    def test_distance_matrix_matches_bfs(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(2, 12)
            g = random_graph(rng, n, rng.randrange(1, 14))
            mat = distance_matrix(g)
            for s in range(n):
                row = bfs_distances(g, s)
                for t in range(n):
                    expect = math.inf if row[t] < 0 else row[t]
                    assert mat[s][t] == expect

    @staticmethod
    def assert_equals_scipy(g, sources=None):
        got = distance_matrix(g, sources)
        want = scipy_distance_matrix(g, sources)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_distance_matrix_equals_scipy_on_multigraphs(self):
        rng = random.Random(12)
        kinds = set()
        for i in range(200):
            n = rng.randrange(1, 16)
            bipartite = n > 1 and i % 3 == 0
            g = random_multigraph(rng, n, rng.randrange(0, 2 * n), bipartite)
            kinds.add(("components", len(set(g.component_ids)) > 1))
            kinds.add(("isolated", min(degrees(g)) == 0))
            picks = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
            for sources in (None, [], picks, picks + picks, picks[::-1], tuple(picks), np.array(picks)):
                self.assert_equals_scipy(g, sources)
        assert kinds == {(k, b) for k in ("components", "isolated") for b in (False, True)}

    def test_distance_matrix_equals_scipy_on_benchmark_covers(self):
        for base in (prism(4), complete(5), petersen(), prism(6)):
            self.assert_equals_scipy(homology_cover(base).cover)

    def test_distance_matrix_equals_scipy_on_lps_from_its_identity(self):
        g, table = lps_graph(13, 5)
        self.assert_equals_scipy(g, [table.identity])

    def test_sources_that_are_not_vertices_are_rejected(self):
        g = path(4)
        for bad in ([-1], [4], [0, 7], np.array([-2]), [[0]]):
            with pytest.raises(InvalidInputError):
                distance_matrix(g, bad)
        with pytest.raises(InvalidInputError):
            diameter(g, [4])

    def test_stamp_dtype_holds_every_stamp(self):
        # the stamps of one level run from -1 down to -(their count)
        assert graph_core._stamp_dtype(0) == np.int32
        assert graph_core._stamp_dtype(2**31) == np.int32
        assert graph_core._stamp_dtype(2**31 + 1) == np.int64

    def test_stamp_bound_is_rows_times_darts(self, monkeypatch):
        seen = []
        real = graph_core._stamp_dtype
        monkeypatch.setattr(graph_core, "_stamp_dtype", lambda count: seen.append(count) or real(count))
        # five edges, a loop at vertex 4 among them, give ten darts
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 3), (4, 4)])
        distance_matrix(g, [1, 2, 2])
        assert seen == [3 * 10]

    def test_each_level_holds_each_new_pair_once(self):
        # every edge of a path tripled: without the dedupe, level k of the
        # walk from 0 would hold 3^k copies of vertex k
        import tracemalloc

        g = build_graph(12, [(i, i + 1) for i in range(11) for _ in range(3)])
        tracemalloc.start()
        try:
            dist = distance_matrix(g, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.tolist() == [list(range(12))]
        assert peak < 2**16

    def test_memory_follows_darts_not_the_largest_degree(self):
        # a star: at level 2 each leaf row expands the hub's 300 darts, so a
        # level holds up to rows * dart_count / 2 candidates, in a few int64
        # arrays; rows padded to the largest degree would give level 3
        # rows * 299 * 300 candidates, about 215 MB per int64 array
        import tracemalloc

        leaves = 300
        g = build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        tracemalloc.start()
        try:
            top = diameter(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top == 2
        assert peak < 64 * g.vertex_count * g.dart_count

    def test_diameter_examples(self):
        assert diameter(cycle(6)) == 3
        assert diameter(complete(4)) == 1
        assert diameter(path(5)) == 4

    def test_diameter_over_several_blocks_of_sources(self):
        n = 4200
        assert n > 4096 and n > 8 * DIAMETER_BLOCK
        assert diameter(cycle(n)) == n // 2
        # a path from n-1 through 0, 1, ... to n-2: both of its ends, the
        # only vertices of eccentricity n-1, lie in the last partial block
        order = [n - 1] + list(range(n - 1))
        g = build_graph(n, list(zip(order, order[1:])))
        assert diameter(g) == n - 1
        assert diameter(g, list(range(n - 1, 0, -1))) == n - 1
        assert diameter(g, [2000]) == n - 2002

    def test_diameter_rejects_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            diameter(g)


class TestGirth:
    def test_known_values(self):
        assert girth(complete(4)) == 3
        assert girth(cycle(6)) == 6
        assert girth(path(5)) is math.inf
        assert girth(petersen()) == 5

    def test_agrees_with_edge_deletion_oracle(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.randrange(0, 16))
            assert girth(g) == naive_girth(g)

    def test_sources_that_are_not_vertices_are_rejected(self):
        # a triangle with a 2-edge tail: the search from vertex 4 only
        # bounds the girth by 7, which is what -1 used to read
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert girth(g, [4]) == 7 and girth(g, (4,)) == 7 and girth(g, np.array([0])) == 3
        for bad in ([-1], [5], [0, 9], np.array([-2]), [[0]]):
            with pytest.raises(InvalidInputError):
                girth(g, bad)
        with pytest.raises(InvalidInputError):
            girth(cycle(6), [6])
        with pytest.raises(InvalidInputError):
            girth(build_graph(2, [(0, 0), (0, 1)]), [2])

    def test_sources_that_are_not_integers_are_rejected(self):
        # 1.9 and True used to be truncated to vertex 1, and 4.5 on the
        # triangle with a tail to vertex 4, whose bound is 7; numpy casts
        # a bool among integers to an integer, which read vertex 1 too
        p = path(5)
        t = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        for bad in ([1.9], [True], np.array([1.0]), ["1"], 0, [0, True], (2, np.bool_(True))):
            with pytest.raises(InvalidInputError):
                distance_matrix(p, bad)
            with pytest.raises(InvalidInputError):
                diameter(p, bad)
        with pytest.raises(InvalidInputError):
            girth(t, [4.5])
        # no source at all stays valid, and so do numpy integers
        assert distance_matrix(p, []).shape == (0, 5)
        for good in (np.array([0, 1], dtype=np.uint8), [np.int64(0), 1]):
            assert np.array_equal(distance_matrix(p, good), distance_matrix(p)[:2])
        assert diameter(p, []) == 0 and girth(t, []) is math.inf
        assert girth(t, np.array([], dtype=np.uint8)) is math.inf

    def test_cycle_and_path_of_4200_vertices(self):
        # every vertex a source, in blocks of DIAMETER_BLOCK; the
        # per-source Python search took 11-12 s on each
        def timed(g):
            start = time.perf_counter()
            value = girth(g)
            assert time.perf_counter() - start < 6
            return value

        value = timed(cycle(4200))
        assert value == 4200 and type(value) is int
        assert timed(path(4200)) is math.inf


class TestCheeger:
    def test_examples(self):
        r4 = cheeger_exact(cycle(4))
        assert r4.value == 1
        assert r4.witness == (0, 1)
        assert cheeger_exact(complete(2)).value == 1
        rk4 = cheeger_exact(complete(4))
        assert rk4.value == 2
        assert len(rk4.witness) == 2
        assert cheeger_exact(cycle(16)).value == Fraction(1, 4)

    def test_witness_attains_value(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(2, 10)
            g = random_connected_graph(rng, n, rng.randrange(0, 10))
            res = cheeger_exact(g)
            assert 1 <= len(res.witness) <= n // 2
            assert Fraction(boundary_size(g, res.witness), len(res.witness)) == res.value

    def test_agrees_with_bruteforce_on_200_random_graphs(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(2, 11)
            g = random_connected_graph(rng, n, rng.randrange(0, 12))
            value, witness = naive_cheeger(g)
            res = cheeger_exact(g)
            assert res.value == value
            assert res.witness == witness

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            cheeger_exact(cycle(21))
        assert cheeger_exact(cycle(21), cap=21).value == Fraction(2, 10)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            cheeger_exact(build_graph(4, [(0, 1), (2, 3)]))


class TestSpectra:
    def test_c4_spectrum(self):
        vals = adjacency_spectrum(cycle(4)).eigenvalues
        assert np.allclose(vals, [2.0, 0.0, 0.0, -2.0], atol=1e-9)

    def test_k4_spectrum(self):
        vals = adjacency_spectrum(complete(4)).eigenvalues
        assert np.allclose(vals, [3.0, -1.0, -1.0, -1.0], atol=1e-9)

    def test_cycle_spectrum_matches_circulant_formula(self):
        for n in (3, 5, 8, 12):
            vals = adjacency_spectrum(cycle(n)).eigenvalues
            expect = sorted((2 * math.cos(2 * math.pi * k / n) for k in range(n)), reverse=True)
            assert np.allclose(vals, expect, atol=1e-9)

    def test_petersen_spectrum(self):
        vals = adjacency_spectrum(petersen()).eigenvalues
        expect = [3.0] + [1.0] * 5 + [-2.0] * 4
        assert np.allclose(vals, expect, atol=1e-9)

    def test_multi_edge_multiplicity(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        vals = adjacency_spectrum(g).eigenvalues
        assert np.allclose(vals, [2.0, -2.0], atol=1e-9)

    def test_iterative_route_matches_dense_on_small_cap(self):
        g = cycle(30)
        full = adjacency_spectrum(g).eigenvalues
        part = adjacency_spectrum(g, dense_cap=10, extremes=3, seed=1)
        assert not part.complete
        assert part.eigenvalues[0] == pytest.approx(full[0], abs=1e-8)
        assert part.eigenvalues[-1] == pytest.approx(full[-1], abs=1e-8)

    def test_iterative_route_keeps_multiplicities(self):
        # three disjoint 12-cycles: -2 has multiplicity 3, and the three
        # bottom Lanczos values agree exactly in the last bit on two of them
        g = build_graph(36, [(12 * k + i, 12 * k + (i + 1) % 12) for k in range(3) for i in range(12)])
        part = adjacency_spectrum(g, dense_cap=10, extremes=3, seed=1)
        assert not part.complete
        assert len(part.eigenvalues) == 6
        assert np.allclose(part.eigenvalues, [2.0] * 3 + [-2.0] * 3, atol=1e-9)
        assert list(part.eigenvalues) == sorted(part.eigenvalues, reverse=True)

    def test_bipartite_spectra_match_dense_eigvalsh(self):
        rng = random.Random(53)
        graphs = [cycle(4), build_graph(5, []), build_graph(3, [(0, 1), (0, 1), (0, 2)])]
        for _ in range(60):
            n = rng.randrange(2, 14)
            graphs.append(random_multigraph(rng, n, rng.randrange(0, 2 * n), bipartite=True))
        seen = set()
        for g in graphs:
            color = two_coloring(g)
            assert color is not None
            assert all(color[u] != color[v] for u, v, _ in edge_list(g))
            dense = np.zeros((g.vertex_count, g.vertex_count))
            for u, v, _ in edge_list(g):
                dense[u, v] += 1
                dense[v, u] += 1
            spec = adjacency_spectrum(g)
            vals = np.array(spec.eigenvalues)
            assert spec.complete and len(vals) == g.vertex_count
            assert np.allclose(vals, np.linalg.eigvalsh(dense)[::-1], atol=1e-9)
            assert spec.residual <= 1e-10
            assert not any(math.copysign(1.0, x) < 0 for x in vals if x == 0.0)
            left = int((color == 0).sum())
            if 2 * left != g.vertex_count:
                seen.add("unequal parts")
            if 0 in degrees(g):
                seen.add("isolated vertex")
            if len({tuple(sorted((u, v))) for u, v, _ in edge_list(g)}) < g.edge_count:
                seen.add("doubled edge")
            if g.edge_count == 0:
                seen.add("no edges")
        assert seen == {"unequal parts", "isolated vertex", "doubled edge", "no edges"}

    def test_no_negative_zero_reaches_the_spectrum(self):
        vals = adjacency_spectrum(cycle(4)).eigenvalues
        assert np.allclose(vals, [2.0, 0.0, 0.0, -2.0], atol=1e-12)
        # the path 1-0-2 plus the isolated vertex 3 has the eigenvalue 0
        # twice, and both must print as 0.0
        vals = adjacency_spectrum(build_graph(4, [(0, 1), (0, 2)])).eigenvalues
        assert vals[1:3] == (0.0, 0.0)
        assert all(math.copysign(1.0, x) > 0 for x in vals if x == 0.0)

    def test_two_coloring_equals_the_breadth_first_coloring(self):
        rng = random.Random(1733)
        seen = set()
        for _ in range(1000):
            n = rng.randrange(1, 13)
            side = [rng.randrange(2) for _ in range(n)]
            bipartite = rng.random() < 0.6
            edges = []
            for _ in range(rng.randrange(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if not bipartite or side[u] != side[v]:
                    edges.append((u, v))
            if edges and rng.random() < 0.5:
                edges.append(rng.choice(edges))
            g = build_graph(n, edges)
            color, want = two_coloring(g), bfs_two_coloring(g)
            if want is None:
                assert color is None
                seen.add("loop" if any(u == v for u, v in edges) else "odd cycle")
            else:
                assert color.dtype == np.int8 and np.array_equal(color, want)
                seen.add("several components" if not g.is_connected else "connected")
        assert seen == {"loop", "odd cycle", "several components", "connected"}

    def test_odd_cycle_is_not_two_colorable(self):
        assert two_coloring(cycle(5)) is None
        assert two_coloring(build_graph(2, [(0, 1), (1, 1)])) is None
        assert list(two_coloring(cycle(6))) == [0, 1, 0, 1, 0, 1]

    def test_spectral_sandwich(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(2, 11)
            g = random_connected_graph(rng, n, rng.randrange(0, 10))
            # gap/2 <= h <= sqrt(2 * max_degree * gap)
            gap = max(dense_laplacian_lambda2(g), 0.0)
            lower, upper = gap / 2.0, math.sqrt(2.0 * max(degrees(g)) * gap)
            h = float(cheeger_exact(g).value)
            assert lower - 1e-9 <= h <= upper + 1e-9

    def test_lambda2_positive_iff_connected(self):
        assert dense_laplacian_lambda2(cycle(5)) > 1e-9
        assert dense_laplacian_lambda2(complete(30)) == pytest.approx(30.0)
        assert dense_laplacian_lambda2(build_graph(3, [(0, 1)])) == pytest.approx(0.0, abs=1e-12)


def cluster_sizes(vals, gap: float = 1e-8) -> list[int]:
    """Sizes of the runs of a sorted list whose neighbors lie within ``gap``."""
    breaks = np.flatnonzero(np.abs(np.diff(vals)) > gap)
    return np.diff(np.concatenate([[-1], breaks, [len(vals) - 1]])).tolist()


def labeled_cayley_graphs() -> list[LabeledGraph]:
    """Seeded Cayley graphs whose generators are not involutions: cyclic
    groups, S4 and S5, and two LPS graphs.  (S3 is generated by no set
    of non-involutions: its 3-cycles only reach A3.)"""
    rng = random.Random(67)
    graphs = []
    while len(graphs) < 70:
        n = rng.randrange(3, 41)
        gens = [s for s in rng.sample(range(1, n), min(n - 1, rng.randrange(1, 4))) if 2 * s % n]
        if gens and math.gcd(n, *gens) == 1:
            graphs.append(cayley_graph(cyclic_group(n, gens)))
    for degree, count in ((4, 20), (5, 12)):
        perms = [p for p in itertools.permutations(range(degree)) if any(p[p[i]] != i for i in range(degree))]
        while count:
            try:
                group = symmetric_group(degree, rng.sample(perms, rng.randrange(2, 4)))
            except InvalidInputError:  # the sample does not generate
                continue
            graphs.append(cayley_graph(group))
            count -= 1
    return graphs + [lps_graph(13, 5)[0], lps_graph(5, 13)[0]]


class TestCharacterBlocks:
    """The spectrum of a graph whose labels give every vertex one out-dart
    per signed label comes from the characters of a cyclic automorphism
    group read off its breadth-first tree; every other graph below the
    cap takes the trivial group's one block, the adjacency matrix."""

    def test_labeled_cayley_spectra_match_dense_eigvalsh(self, monkeypatch):
        graphs = labeled_cayley_graphs()
        lps = graphs[-2]
        graphs.append(jsonio.parse_graph(jsonio.serialize_graph(lps)))
        expected = [dense_eigvalsh(g) for g in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("the trivial group's block ran")

        monkeypatch.setattr(graph_core, "_trivial_orbits", refuse)
        orders = set()
        for g, want in zip(graphs, expected):
            spec = adjacency_spectrum(g)
            vals = np.array(spec.eigenvalues)
            assert spec.complete and vals.size == g.vertex_count
            assert np.abs(vals - want).max() <= 1e-10
            assert cluster_sizes(vals) == cluster_sizes(want)
            assert spec.residual <= 1e-10
            assert not any(math.copysign(1.0, x) < 0 for x in vals if x == 0.0)
            orders.add(len(graph_core._cyclic_symmetry(g)))
        # PGL2(13) has elements of order q + 1 = 14, and none larger
        assert 14 in orders and len(graphs) >= 100

    def test_block_residuals_equal_the_lifted_residuals(self):
        # parallel darts and loops weight a neighbour by its multiplicity;
        # each solved block's eigenvectors, lifted to n rows, are
        # eigenpairs of the sparse adjacency, and the lifted residual is
        # the block residual up to the rounding bound d (d + 45) / 2 * 2^-53
        n = 7
        doubled = build_graph(n, [(x, (x + 1) % n, lab) for lab in ("a", "b") for x in range(n)])
        looped = build_graph(
            n, [(x, (x + 1) % n, "a") for x in range(n)] + [(x, x, "b") for x in range(n)]
        )
        graphs = [doubled, looped, lps_graph(13, 5)[0], lps_graph(5, 13)[0]] + labeled_cayley_graphs()[:12]
        for g in graphs:
            assert graph_core._cyclic_symmetry(g) is not None
            spec = adjacency_spectrum(g)
            lifted = lifted_character_residual(g)
            d = g.dart_count // g.vertex_count
            assert spec.complete and lifted <= 1e-10
            assert abs(lifted - spec.residual) <= d * (d + 45) / 2 * 2.0**-53
            assert np.allclose(spec.eigenvalues, dense_eigvalsh(g), atol=1e-10)

    def test_lps_5_13_spectrum_memory(self):
        # the n x n table of the symmetry search sets the peak, 18.6 MiB;
        # lifting each block's eigenvectors to n rows took it to 27.3 MiB
        import tracemalloc

        g, _ = lps_graph(5, 13)
        tracemalloc.start()
        try:
            spec = adjacency_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.complete and len(spec.eigenvalues) == g.vertex_count
        assert peak < 20 * 2**20

    def test_fallbacks_equal_the_dense_route(self, monkeypatch):
        z6 = edge_list(cayley_graph(cyclic_group(6, [1])))
        rng = random.Random(71)
        cases = {
            "unlabeled": [petersen(), cycle(6)]
            + [random_multigraph(rng, n, 2 * n) for n in range(3, 9)],
            "missing label": [build_graph(6, [(0, 1, "t")] + z6[1:])],
            "doubled label": [build_graph(6, [(1, 0, "s0")] + z6[1:])],
            "involution labels": [
                cayley_graph(cyclic_group(6, [1, 3])),
                cayley_graph(symmetric_group(3)),
                cayley_graph(symmetric_group(4)),
            ],
            # label-regular; the tree map of largest order is a 3-cycle
            # that is not an automorphism
            "not an automorphism": [
                build_graph(3, [(0, 1, "a"), (1, 2, "a"), (2, 0, "a"),
                                (0, 1, "b"), (1, 0, "b"), (2, 2, "b")]),
            ],
            # K7 as three directed 2-factors; the tree map of largest order
            # is an automorphism (every permutation of K7 is) with cycles of
            # lengths 3 and 4
            "unequal cycles": [
                build_graph(7, [(x, y, lab) for lab, perm in (
                    ("a", (6, 0, 4, 2, 1, 3, 5)),
                    ("b", (5, 3, 6, 4, 0, 2, 1)),
                    ("c", (3, 2, 0, 6, 5, 1, 4)),
                ) for x, y in enumerate(perm)]),
            ],
        }
        for name, graphs in cases.items():
            for g in graphs:
                assert graph_core._cyclic_symmetry(g) is None, name
                got = adjacency_spectrum(g)
                with monkeypatch.context() as patch:
                    patch.setattr(graph_core, "_cyclic_orbits", lambda g: None)
                    assert got == adjacency_spectrum(g), name
                assert np.allclose(got.eigenvalues, dense_eigvalsh(g), atol=1e-9), name

    def test_the_symmetry_is_chosen_from_the_graph_alone(self):
        g, _ = lps_graph(13, 5)
        powers = graph_core._cyclic_symmetry(g)
        again = jsonio.parse_graph(jsonio.serialize_graph(g))
        assert np.array_equal(powers, graph_core._cyclic_symmetry(again))
        # PGL2(5) has elements of order 6 and none larger; h^k moves every
        # vertex for 0 < k < 6, and h^6 is the identity
        h = powers[1]
        assert len(powers) == 6 and np.all(powers[1:] != np.arange(g.vertex_count))
        assert np.array_equal(h[powers[-1]], np.arange(g.vertex_count))


class TestConjugateCharacterBlocks:
    """The character route solves blocks 0 .. floor(m/2) only and lists
    the eigenvalues of blocks 1 .. ceil(m/2) - 1 twice: block m - c is the
    conjugate of block c."""

    @pytest.mark.parametrize(
        "graph, m",
        [(lambda: lps_graph(5, 13)[0], 14), (lambda: lps_graph(13, 5)[0], 6),
         (lambda: cayley_graph(cyclic_group(7, [1, 2])), 7)],
        ids=["lps_5_13", "lps_13_5", "z7"],
    )
    def test_halved_route_equals_the_full_block_solve(self, monkeypatch, graph, m):
        g = graph()
        assert len(graph_core._cyclic_symmetry(g)) == m
        checked = []
        verify = graph_core._verify_eigenpairs

        def record(av, vals, vecs, tol=1e-8):
            checked.append(vals.shape)
            return verify(av, vals, vecs, tol)

        monkeypatch.setattr(graph_core, "_verify_eigenpairs", record)
        spec = adjacency_spectrum(g)
        full = all_character_blocks_spectrum(g)
        vals = np.array(spec.eigenvalues)
        # the residual checks cover every solved block once, each one of
        # full size
        assert sum(blocks for blocks, _ in checked) == m // 2 + 1
        assert {rows for _, rows in checked} == {g.vertex_count // m}
        assert spec.complete and vals.size == g.vertex_count
        assert np.abs(vals - full).max() <= 1e-12
        assert cluster_sizes(vals) == cluster_sizes(full)
        assert np.abs(vals - dense_eigvalsh(g)).max() <= 1e-10


def xor_lift_graph(base_vertices: int, base_edges, flips, rank: int) -> LabeledGraph:
    """The XOR lift of rank ``rank`` of the base edges with the given
    flips, numbered as ``homology_cover`` numbers a cover."""
    fiber = 1 << rank
    edges = [
        (u * fiber + x, v * fiber + (x ^ f))
        for (u, v), f in zip(base_edges, flips)
        for x in range(fiber)
    ]
    return build_graph(base_vertices * fiber, edges)


def annotated_cover(base: LabeledGraph) -> LabeledGraph:
    """The homology cover of ``base`` as a ``coarselab cover`` document
    reads back."""
    cm = homology_cover(base)
    cm.cover.annotations["covering"] = {
        "base_vertices": base.vertex_count,
        "deck_rank": cm.deck_rank,
        "iterations": 1,
        "single_step": True,
        "vertex_map": cm.vertex_map.tolist(),
    }
    return jsonio.parse_graph(jsonio.serialize_graph(cm.cover))


def without_annotations(g: LabeledGraph) -> LabeledGraph:
    return build_graph(g.vertex_count, list(edge_list(g)))


class TestTwistBlocks:
    """A graph whose darts pass the XOR lift check at some rank, such as
    a homology cover or an iterated one, gets its spectrum from one signed
    base block per deck character of its largest rank; anything else
    keeps the other routes, and annotations play no part."""

    @pytest.mark.parametrize(
        "cover",
        [lambda: annotated_cover(complete(4)), lambda: annotated_cover(petersen()),
         lambda: annotated_cover(multi_k4()),
         # parallel edges with equal and unequal flips, and loops with
         # zero and nonzero flips
         lambda: xor_lift_graph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0), (0, 0), (2, 2)],
                                [1, 1, 2, 0, 3, 0, 2], 2)],
        ids=["k4", "petersen", "multi_k4", "loops_and_parallels"],
    )
    def test_twists_equal_dense_eigvalsh_and_every_lift_is_an_eigenpair(self, monkeypatch, cover):
        g = cover()
        lift = graph_core.xor_deck(g)
        r, b, n = lift.deck_rank, lift.base_vertices, g.vertex_count
        want = dense_eigvalsh(g)
        seen = []
        verify = graph_core._verify_eigenpairs

        def record(av, vals, vecs, tol=1e-8):
            seen.append((vals, vecs))
            return verify(av, vals, vecs, tol)

        def refuse(*args, **kwargs):
            raise AssertionError("another route ran")

        monkeypatch.setattr(graph_core, "_verify_eigenpairs", record)
        monkeypatch.setattr(graph_core, "_cyclic_orbits", refuse)
        monkeypatch.setattr(graph_core, "_trivial_orbits", refuse)
        spec = adjacency_spectrum(g)
        vals = np.array(spec.eigenvalues)
        assert spec.complete and vals.size == n and spec.residual <= 1e-12
        assert np.abs(vals - want).max() <= 1e-12
        assert cluster_sizes(vals) == cluster_sizes(want)
        # lift each block eigenvector w of character chi to
        # v[(u, x)] = (-1)^popcount(chi & x) w[u] / sqrt(2^r)
        block_vals = np.concatenate([v.reshape(-1) for v, _ in seen])
        block_vecs = np.concatenate([np.concatenate(w, axis=1) for _, w in seen], axis=1)
        assert block_vecs.shape == (b, n)
        chi = np.arange(n) // b
        x = np.arange(n) & ((1 << r) - 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & chi[None, :]) & 1)
        lifted = signs * block_vecs[np.arange(n) >> r] / math.sqrt(1 << r)
        adj = graph_core._adjacency_csr(g)
        resid = np.linalg.norm(adj @ lifted - lifted * block_vals, axis=0)
        assert resid.max() <= 1e-12
        assert np.abs(lifted.T @ lifted - np.eye(n)).max() <= 1e-12

    def test_the_k6_cover_spectrum_is_complete(self):
        g = annotated_cover(complete(6))
        spec = adjacency_spectrum(g)
        vals = np.array(spec.eigenvalues)
        assert spec.complete and vals.size == 6144
        assert vals[0] == pytest.approx(5.0) and vals[-1] == pytest.approx(-5.0)
        assert len(cluster_sizes(vals)) == 34
        top = 1 + 2 * math.sqrt(3)
        assert np.sum(np.abs(vals - top) <= 1e-9) == 15
        assert np.sum(np.abs(vals - 1.0) <= 1e-9) == np.sum(np.abs(vals + 1.0) <= 1e-9) == 1005

    def test_an_edited_edge_falls_back(self):
        cover = annotated_cover(complete(4))
        doc = json.loads(jsonio.serialize_graph(cover))
        doc["edges"][3]["v"] ^= 1  # the same fibers, but a second flip in fiber 0
        edited = jsonio.parse_graph(json.dumps(doc))
        assert edited.annotations == cover.annotations
        assert graph_core.xor_lift(cover, 3) is not None
        assert graph_core.xor_deck(edited) is None
        got = adjacency_spectrum(edited)
        assert got == adjacency_spectrum(without_annotations(edited))
        assert np.abs(np.array(got.eigenvalues) - dense_eigvalsh(edited)).max() <= 1e-10

    def test_annotations_change_neither_the_route_nor_any_byte(self, monkeypatch):
        cover = annotated_cover(prism(3))
        covering = cover.annotations["covering"]
        rank = covering["deck_rank"]
        plain = without_annotations(cover)
        want = adjacency_spectrum(plain)
        lift = graph_core.xor_deck(plain)
        assert (lift.deck_rank, lift.base_vertices) == (rank, covering["base_vertices"])
        assert graph_core._xor_orbits(plain, graph_core.DENSE_SPECTRUM_CAP) is not None
        for bad in ({**covering, "single_step": False}, {**covering, "single_step": 1},
                    {**covering, "deck_rank": rank + 1},
                    {**covering, "deck_rank": True}, {**covering, "deck_rank": str(rank)},
                    {**covering, "deck_rank": -1}, {**covering, "deck_rank": 64},
                    {"single_step": True}, "covering", covering):
            g = build_graph(cover.vertex_count, list(edge_list(cover)), annotations={"covering": bad})
            assert graph_core.xor_deck(g).deck_rank == rank, bad
            assert adjacency_spectrum(g) == want, bad
        assert adjacency_spectrum(cover) == want
        assert np.abs(np.array(want.eigenvalues) - dense_eigvalsh(plain)).max() <= 1e-12
        # the cover is also an XOR lift of smaller rank, over a larger base,
        # and those blocks give the same spectrum
        lower = graph_core.xor_lift(plain, rank - 1)
        assert lower.base_vertices == 2 * covering["base_vertices"]
        monkeypatch.setattr(graph_core, "xor_deck", lambda g: lower)
        assert np.allclose(adjacency_spectrum(plain).eigenvalues, want.eigenvalues, atol=1e-12)

    def test_iterated_covers_take_the_twist_route_of_their_top_step(self):
        theta = build_graph(2, [(0, 1), (0, 1), (0, 1)])
        cm = iterate_homology_cover(theta, 2)
        top = homology_cover(homology_cover(theta).cover)
        assert not cm.single_step
        lift = graph_core.xor_deck(cm.cover)
        assert lift.deck_rank == naive_xor_rank(cm.cover) == top.deck_rank
        assert lift.base_vertices == top.base.vertex_count
        assert graph_core._xor_orbits(cm.cover, graph_core.DENSE_SPECTRUM_CAP) is not None
        spec = adjacency_spectrum(cm.cover)
        assert spec.complete and len(spec.eigenvalues) == cm.cover.vertex_count
        assert np.abs(np.array(spec.eigenvalues) - dense_eigvalsh(cm.cover)).max() <= 1e-12
        cm.cover.annotations["covering"] = {"deck_rank": cm.deck_rank, "single_step": cm.single_step}
        assert adjacency_spectrum(cm.cover) == spec

    def test_blocks_are_solved_in_chunks_below_the_cap(self, monkeypatch):
        g = annotated_cover(petersen())
        sizes = []
        verify = graph_core._verify_eigenpairs

        def record(av, vals, vecs, tol=1e-8):
            sizes.append(vals.size)
            return verify(av, vals, vecs, tol)

        monkeypatch.setattr(graph_core, "_verify_eigenpairs", record)
        whole = adjacency_spectrum(g)
        # dense_cap 30 holds 900 entries: 9 blocks of 10 x 10 at a time
        chunked = adjacency_spectrum(g, dense_cap=30)
        assert sizes == [640] + [90] * 7 + [10]
        assert chunked.complete and chunked.eigenvalues == whole.eigenvalues


def seeded_lifts() -> list[LabeledGraph]:
    """XOR lifts of rank 1 to 3, with seeded flips, of seeded multigraphs
    that may hold loops, parallel edges and isolated vertices."""
    rng = random.Random(4099)
    lifts = []
    for _ in range(6):
        rank = rng.randint(1, 3)
        base = random_graph(rng, rng.randint(3, 12), rng.randint(4, 20))
        edges = [(u, v) for u, v, _ in edge_list(base)]
        flips = [rng.randrange(1 << rank) for _ in edges]
        lifts.append(xor_lift_graph(base.vertex_count, edges, flips, rank))
    return lifts


BLOCK_ROUTE_GRAPHS = {
    "lps_5_13": lambda: lps_graph(5, 13)[0],
    "lps_13_5": lambda: lps_graph(13, 5)[0],
    "z7": lambda: cayley_graph(cyclic_group(7, [1, 2])),
    "k4_cover": lambda: annotated_cover(complete(4)),
    "k6_cover": lambda: annotated_cover(complete(6)),
    "petersen_cover": lambda: annotated_cover(petersen()),
    "theta_twice": lambda: iterate_homology_cover(build_graph(2, [(0, 1), (0, 1), (0, 1)]), 2).cover,
    "loops_and_parallels": lambda: xor_lift_graph(
        3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 0), (0, 0), (2, 2)], [1, 1, 2, 0, 3, 0, 2], 2
    ),
    **{f"seeded_lift_{k}": (lambda k=k: seeded_lifts()[k]) for k in range(6)},
}

# sha256 of the float64 bytes of ``eigenvalues``, recorded when the
# character, twist and dense routes were three separate eigensolves
BLOCK_ROUTE_DIGESTS = {
    "k4_cover": "2c5a32624cc2e2c3110a9e1a914cd6268ccbd559e305bedf3faef549b912d811",
    "k6_cover": "2345d228750491883dd09cb3afc3c2aea2807d5c9a8ea819ece8ed971aa6c6a0",
    "loops_and_parallels": "ef18005e7f9f0362f50cf8e68ee6aed12e41d8d00e99e534c5c7a9665bd55ab7",
    "lps_13_5": "e9c30ebf3ea4be77aeadb526827039397d1345d32558cfec962dca246f7831ab",
    "lps_5_13": "e4437a72dac522661cd9452ce4eb75e3c8e034f4c7c1e83975c31c955bf51c55",
    "petersen_cover": "af1d7877e769a9beda5429a3606ed0a079fcd89d7660c7c37ec9a645c5b7baae",
    "seeded_lift_0": "424bc8f56966ec2a450544f72bc017aa1cd8ffc80ba7ca3750cf42d884daafda",
    "seeded_lift_1": "52e15c9975b991c5dab5c1d02917fae95c7c9e08c521a6b5630b0e1545da6422",
    "seeded_lift_2": "3760a7e81c8c5c3e3ff9921f0a3f6581818b3e48aaded9c4a008eee181e65016",
    "seeded_lift_3": "67bec59e489441e0d0218d454abdde3c0a2cecb091bb432a461c111d670e7bea",
    "seeded_lift_4": "be215a48b586f53520599b021816850ee9804b01391ad879840db6ba6f324422",
    "seeded_lift_5": "70cce1ce4199349e7728391305aa6318404a1aecab70e7159c7d840fabcf42af",
    "theta_twice": "50e2bb59567ff15fb9efb7c34f7b909e99e87a47806c0f3a4ef9d61acf8b492a",
    "z7": "e314a1d2c6718eb341616131fd552b71dbb4a90b006ecbd4dcc98bd6deff6036",
}

# ``residual`` as float.hex, recorded with the digests
LPS_RESIDUALS = {
    "lps_13_5": "0x1.2fae9c95de6a4p-47",
    "lps_5_13": "0x1.2dd11f5af8827p-46",
}


class TestBlockRouteBytes:
    """The block solve reproduces the bytes of the routes it replaced:
    every eigenvalue on the character and twist routes, and the residual
    of the two LPS graphs, whose blocks were always residual-checked in
    one fixed order."""

    @pytest.mark.parametrize("name", sorted(BLOCK_ROUTE_GRAPHS))
    def test_eigenvalue_bytes_are_pinned(self, name):
        spec = adjacency_spectrum(BLOCK_ROUTE_GRAPHS[name]())
        assert spec.complete
        digest = hashlib.sha256(np.array(spec.eigenvalues).tobytes()).hexdigest()
        assert digest == BLOCK_ROUTE_DIGESTS[name]
        if name in LPS_RESIDUALS:
            assert spec.residual.hex() == LPS_RESIDUALS[name]


STAR_200 = [(0, k) for k in range(1, 201)]
# a path with a loop at its end, a tripled edge and two isolated vertices
UNEVEN = [(0, 1), (1, 2), (2, 2), (3, 4), (3, 4), (3, 4), (4, 0)]


class TestUnevenRows:
    """Blocks whose rows hold different numbers of terms (isolated
    vertices, loops, parallel edges, a star) on the trivial and XOR
    sources: each block residual is the sparse residual of its lifted
    eigenpairs, and the eigenvalues are the dense ones."""

    @pytest.mark.parametrize(
        "graph, rank",
        [(lambda: build_graph(201, STAR_200), 0), (lambda: build_graph(7, UNEVEN), 0),
         (lambda: random_multigraph(random.Random(5), 41, 90), 0),
         (lambda: xor_lift_graph(201, STAR_200, [k % 2 for k in range(200)], 1), 1),
         (lambda: xor_lift_graph(7, UNEVEN, [0, 1, 2, 3, 1, 1, 2], 2), 2),
         (lambda: xor_lift_graph(7, UNEVEN, [1, 0, 0, 0, 1, 0, 0], 1), 1)],
        ids=["star", "uneven", "multigraph", "star_lift", "uneven_lift", "uneven_lift_1"],
    )
    def test_block_residual_is_the_sparse_residual(self, monkeypatch, graph, rank):
        g = graph()
        n = g.vertex_count
        lift = graph_core.xor_deck(g)
        assert (0 if lift is None else lift.deck_rank) == rank
        assert graph_core._cyclic_symmetry(g) is None
        seen = []
        verify = graph_core._verify_eigenpairs

        def record(av, vals, vecs, tol=1e-8):
            seen.append((vals, vecs))
            return verify(av, vals, vecs, tol)

        monkeypatch.setattr(graph_core, "_verify_eigenpairs", record)
        spec = adjacency_spectrum(g)
        assert spec.complete
        assert np.abs(np.array(spec.eigenvalues) - dense_eigvalsh(g)).max() <= 1e-12
        # lift each block eigenvector w of character chi to
        # v[(u, x)] = (-1)^popcount(chi & x) w[u] / sqrt(2^r); at r = 0 the
        # one block is A and v = w
        block_vals = np.concatenate([v.reshape(-1) for v, _ in seen])
        block_vecs = np.concatenate([np.concatenate(w, axis=1) for _, w in seen], axis=1)
        chi = np.arange(n) // (n >> rank)
        x = np.arange(n) & ((1 << rank) - 1)
        signs = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & chi[None, :]) & 1)
        lifted = signs * block_vecs[np.arange(n) >> rank] / math.sqrt(1 << rank)
        adj = graph_core._adjacency_csr(g)
        sparse = np.linalg.norm(adj @ lifted - lifted * block_vals, axis=0) / np.linalg.norm(lifted, axis=0)
        # both sum at most d terms of a row in some order: ||A|| <= d, so
        # each sum is off by at most d^2 2^-53 in norm
        d = max(degrees(g))
        assert abs(sparse.max() - spec.residual) <= (d + 1) ** 2 * 2.0**-52


def seeded_covers():
    """Homology covers of seeded connected multigraphs (loops and
    parallel edges included), with their deck ranks."""
    rng = random.Random(2111)
    covers = []
    for _ in range(10):
        cm = homology_cover(random_connected_graph(rng, rng.randint(2, 8), rng.randint(1, 5)))
        covers.append((cm.cover, cm.deck_rank))
    return covers


def relabeled(g: LabeledGraph, perm) -> LabeledGraph:
    return build_graph(g.vertex_count, [(perm[a], perm[b]) for a, b, _ in edge_list(g)])


class TestXorDeck:
    """``xor_deck`` finds the largest rank at which the darts read as an
    XOR lift, held equal to the definition in ``naive_xor_rank``."""

    def test_seeded_covers_pass_at_their_own_rank_at_least(self):
        for cover, rank in seeded_covers():
            lift = graph_core.xor_deck(cover)
            assert lift.deck_rank == naive_xor_rank(cover) >= rank
            assert lift.base_vertices == cover.vertex_count >> lift.deck_rank
            assert lift.fiber_heads().tolist() == list(range(0, cover.vertex_count, 1 << lift.deck_rank))

    def test_iterated_covers(self):
        bases = (build_graph(2, [(0, 1), (0, 1), (0, 1)]), build_graph(1, [(0, 0), (0, 0)]), cycle(3),
                 build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]))
        for base in bases:
            cm = iterate_homology_cover(base, 2)
            top = homology_cover(homology_cover(base).cover).deck_rank
            assert graph_core.xor_deck(cm.cover).deck_rank == naive_xor_rank(cm.cover) >= top

    def test_relabeled_covers_lose_rank(self):
        rng = random.Random(7)
        for cover, rank in seeded_covers():
            perm = list(range(cover.vertex_count))
            rng.shuffle(perm)
            # and one that moves the fiber slot of base vertex 0 only
            shifted = [w ^ 1 if w >> rank == 0 else w for w in range(cover.vertex_count)]
            for g in (relabeled(cover, perm), relabeled(cover, shifted)):
                want = naive_xor_rank(g)
                assert want is None or want < rank
                lift = graph_core.xor_deck(g)
                assert (None if lift is None else lift.deck_rank) == want

    def test_lps_13_5(self):
        g = lps_graph(13, 5)[0]
        lift = graph_core.xor_deck(g)
        assert (None if lift is None else lift.deck_rank) == naive_xor_rank(g)

    def test_no_rank_above_zero_is_none(self):
        for g in (cycle(3), cycle(4), path(8), build_graph(1, [(0, 0)])):
            assert graph_core.xor_deck(g) is None and naive_xor_rank(g) is None
        # a graph with no edges is an XOR lift of every rank its size allows
        assert graph_core.xor_deck(build_graph(12, [])).deck_rank == naive_xor_rank(build_graph(12, [])) == 2

    def test_lifts_nest(self):
        for cover, _ in seeded_covers():
            top = graph_core.xor_deck(cover).deck_rank
            for r in range(top + 1):
                lift = graph_core.xor_lift(cover, r)
                assert lift is not None and lift.base_vertices == cover.vertex_count >> r
            assert graph_core.xor_lift(cover, top + 1) is None


class TestFamilies:
    def test_split_components(self):
        g = build_graph(5, [(0, 1), (3, 4), (1, 2)])
        fam = split_components(g)
        assert tuple(c.vertex_count for c in fam.components) == (3, 2)
        assert fam.origin_vertices == ((0, 1, 2), (3, 4))

    def test_family_rejects_disconnected_component(self):
        with pytest.raises(InvalidInputError):
            GraphFamily((build_graph(4, [(0, 1), (2, 3)]),))

    def test_dg_ratio_examples(self):
        assert dg_ratio(GraphFamily((cycle(6),))).ratios == (0.5,)
        assert dg_ratio(GraphFamily((cycle(4),))).ratios == (0.5,)
        rep = dg_ratio(GraphFamily((complete(4), cycle(6))))
        assert rep.ratios == pytest.approx((1 / 3, 0.5))
        assert rep.maximum == 0.5

    def test_dg_ratio_rejects_acyclic(self):
        with pytest.raises(InvalidInputError):
            dg_ratio(GraphFamily((path(4),)))
