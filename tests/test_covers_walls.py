import math
import random

import numpy as np
import pytest

from coarselab import covers_walls, graph_core
from coarselab.covers_walls import (
    CoveringMap,
    WallDecomposition,
    compose_covers,
    cover_girth,
    homology_cover,
    iterate_homology_cover,
    validate_walls,
    wall_hilbert_embedding,
    wall_pseudometric,
    walls_from_cover,
    xor_fiber_heads,
)
from coarselab.errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)
from coarselab.expander_zoo import cayley_graph
from coarselab.graph_core import (
    GraphFamily,
    build_graph,
    components,
    distance_matrix,
    girth,
    xor_deck_gather,
)
from coarselab.labelings import PIECE_DART_CAP, _pair_components

from groups import cyclic_group
from oracles import (
    complete,
    edge_list,
    multi_k4,
    naive_girth,
    out_darts,
    petersen,
    prism,
    random_multigraph,
    searched_wall_sides,
    truncated_girth,
    verify_covering,
)


def triangle():
    return build_graph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])


def theta():
    return build_graph(2, [(0, 1, "a"), (0, 1, "b"), (0, 1, "c")])


def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def bridgeless(g):
    """The bridge check of ``walls_from_cover``: no edge has cut mask 0."""
    return all(covers_walls._cut_masks(g))


class TestTwoConnected:
    def test_examples(self):
        assert bridgeless(triangle())
        assert not bridgeless(build_graph(2, [(0, 1)]))
        assert bridgeless(theta())

    def test_bridge_between_triangles(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        assert not bridgeless(build_graph(6, edges))

    def test_loop_is_not_a_bridge(self):
        assert bridgeless(build_graph(1, [(0, 0)]))

    def test_cycle_rank_beyond_64_bits(self):
        # K13 has cycle rank 66, past any int64 cut mask
        k13 = complete(13)
        assert bridgeless(k13)
        assert not bridgeless(build_graph(14, list(edge_list(k13)) + [(0, 13)]))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bridgeless(build_graph(3, [(0, 1)]))

    def test_matches_edge_deletion_bruteforce(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randrange(2, 9)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n, 2 * n))]
            g = build_graph(n, edges)
            if not g.is_connected:
                continue
            expected = True
            for skip in range(g.edge_count):
                kept = [e for i, e in enumerate(edge_list(g)) if i != skip]
                if not build_graph(n, kept).is_connected:
                    expected = False
                    break
            assert bridgeless(g) == expected
            if expected:
                walls_from_cover(homology_cover(g))
            else:
                with pytest.raises(InvalidInputError, match="bridgeless"):
                    walls_from_cover(homology_cover(g))


class TestHomologyCover:
    def test_triangle_gives_hexagon(self):
        cm = homology_cover(triangle())
        assert cm.deck_rank == 1
        assert cm.cover.vertex_count == 6
        assert cm.cover.edge_count == 6
        assert girth(cm.cover) == 6

    def test_theta_cover_counts(self):
        cm = homology_cover(theta())
        assert cm.deck_rank == 2
        assert cm.cover.vertex_count == 2 * 4
        assert cm.cover.edge_count == 3 * 4

    def test_k4_cover(self):
        cm = homology_cover(k4())
        assert cm.deck_rank == 3
        assert cm.cover.vertex_count == 32
        assert cm.cover.edge_count == 48
        assert girth(cm.cover) == 6
        assert girth(cm.cover) == naive_girth(cm.cover)

    def test_girth_never_drops(self):
        for g in (triangle(), theta(), k4(), cayley_graph(cyclic_group(6)), build_graph(1, [(0, 0)])):
            cm = homology_cover(g)
            assert girth(cm.cover) >= girth(g)

    def test_labels_inherited(self):
        cm = homology_cover(triangle())
        assert cm.cover.alphabet == {"a", "b", "c"}
        for d in range(cm.cover.dart_count):
            assert cm.cover.labels()[d] == cm.base.labels()[cm.dart_map[d]]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            homology_cover(build_graph(4, [(0, 1), (2, 3)]))

    def test_verification_passes(self):
        for g in (triangle(), theta(), k4()):
            ver = verify_covering(homology_cover(g))
            assert ver.deck_order == 2 ** (g.edge_count - g.vertex_count + 1)
            assert ver.elementary_abelian

    def test_tree_base_gives_trivial_cover(self):
        cm = homology_cover(build_graph(3, [(0, 1), (1, 2)]))
        assert cm.deck_rank == 0
        assert cm.cover.vertex_count == 3
        assert verify_covering(cm).deck_order == 1


class TestIteratedCover:
    def test_triangle_twice_gives_c12(self):
        cm = iterate_homology_cover(triangle(), 2)
        assert cm.cover.vertex_count == 12
        assert cm.cover.edge_count == 12
        assert girth(cm.cover) == 12
        assert cm.deck_rank == 2
        ver = verify_covering(cm)
        assert ver.deck_order == 4
        # the 4-fold cyclic cover of a cycle has cyclic deck group
        assert not ver.elementary_abelian

    def test_theta_twice_regular(self):
        cm = iterate_homology_cover(theta(), 2)
        assert cm.cover.vertex_count == 8 * 2 ** 5
        ver = verify_covering(cm)
        assert ver.deck_order == 2 ** 7

    def test_cap(self):
        with pytest.raises(CapExceededError):
            iterate_homology_cover(theta(), 3)
        with pytest.raises(CapExceededError):
            iterate_homology_cover(k4(), 2, vertex_cap=10 ** 5)

    def test_bad_k(self):
        with pytest.raises(InvalidInputError):
            iterate_homology_cover(triangle(), 0)

    def test_cayley_base_cover_stays_vertex_transitive(self):
        base = cayley_graph(cyclic_group(6))
        cover = iterate_homology_cover(base, 1).cover
        n = cover.vertex_count
        equivalent = set()
        for _, tree, _, flag in _pair_components(GraphFamily((cover,)), PIECE_DART_CAP):
            if flag:
                equivalent.update(divmod(u, n) for u in tree)
        assert all((0, t) in equivalent or (t, 0) in equivalent for t in range(1, n))

    def test_cover_girth_from_one_source_per_fiber(self):
        rng = random.Random(73)
        seen = set()
        for _ in range(120):
            n = rng.randrange(2, 8)
            base = random_multigraph(rng, n, rng.randrange(n - 1, n + 4), bipartite=rng.random() < 0.8)
            if not base.is_connected:
                continue
            for k in (1, 2):
                try:
                    cm = iterate_homology_cover(base, k, vertex_cap=1024)
                except CapExceededError:
                    break
                value = girth(cm.cover)
                assert cover_girth(cm) == value == truncated_girth(cm.cover)
                seen.add((k, value))
        # both depths, and girths no parallel pair or loop decides
        assert {k for k, value in seen if value > 2} == {1, 2}

    def test_composition_maps_chain(self):
        first = homology_cover(triangle())
        second = homology_cover(first.cover)
        comp = compose_covers(second, first)
        for v in range(comp.cover.vertex_count):
            assert comp.vertex_map[v] == first.vertex_map[second.vertex_map[v]]
        for d in range(comp.cover.dart_count):
            assert comp.dart_map[d] == first.dart_map[second.dart_map[d]]


class TestCoverPaths:
    def random_reduced_path(self, rng, g, length):
        u = rng.randrange(g.vertex_count)
        darts = []
        for _ in range(length):
            options = [d for d in out_darts(g, u) if not darts or d != darts[-1] ^ 1]
            if not options:
                break
            d = rng.choice(options)
            darts.append(d)
            u = g.dst[d]
        return darts

    def test_projection_of_reduced_paths_is_reduced(self):
        for base in (triangle(), theta(), k4()):
            cm = homology_cover(base)
            rng = random.Random(41)
            for _ in range(500):
                path = self.random_reduced_path(rng, cm.cover, rng.randrange(1, 12))
                projected = [cm.dart_map[d] for d in path]
                for a, b in zip(projected, projected[1:]):
                    assert b != a ^ 1

    def lift_is_closed(self, cm, start, walk):
        star = [
            {cm.dart_map[d]: d for d in out_darts(cm.cover, u)}
            for u in range(cm.cover.vertex_count)
        ]
        fiber0 = [v for v in range(cm.cover.vertex_count) if cm.vertex_map[v] == start]
        u = fiber0[0]
        first = u
        for d in walk:
            u = cm.cover.dst[star[u][d]]
        return u == first

    def test_cycle_parity_law(self):
        # a closed base walk lifts closed iff every non-tree edge occurs
        # an even number of times; exhaustive over walks of length <= 8
        for base in (triangle(), theta()):
            cm = homology_cover(base)
            size = 1 << cm.deck_rank
            flip = {}
            for k in range(base.edge_count):
                flip[k] = cm.cover.dst[2 * (k * size)] % size

            def walks(u, limit):
                stack = [(u, [])]
                while stack:
                    v, seq = stack.pop()
                    if seq and v == u:
                        yield seq
                    if len(seq) < limit:
                        for d in out_darts(base, v):
                            stack.append((base.dst[d], seq + [d]))

            for start in range(base.vertex_count):
                for walk in walks(start, 8):
                    counts = {}
                    for d in walk:
                        k = d // 2
                        counts[k] = counts.get(k, 0) + 1
                    parity_even = all(
                        counts.get(k, 0) % 2 == 0 for k in flip if flip[k] != 0
                    )
                    assert self.lift_is_closed(cm, start, walk) == parity_even


class TestWalls:
    def test_triangle_cover_walls(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        assert len(w.walls) == 3
        assert all(len(wall) == 2 for wall in w.walls)
        dist = wall_pseudometric(cm.cover, w)
        graph_dist = distance_matrix(cm.cover)
        assert np.array_equal(dist, graph_dist.astype(np.int64))
        # antipodal fiber pairs sit at wall distance 3
        for v in range(3):
            assert dist[2 * v, 2 * v + 1] == 3

    def test_theta_cover_walls(self):
        cm = homology_cover(theta())
        w = walls_from_cover(cm)
        assert len(w.walls) == 3
        assert all(len(wall) == 4 for wall in w.walls)

    def test_k4_cover_walls(self):
        cm = homology_cover(k4())
        w = walls_from_cover(cm)
        assert len(w.walls) == 6
        assert all(len(wall) == 8 for wall in w.walls)

    def test_wall_metric_is_pseudometric_below_graph_metric(self):
        for base in (triangle(), theta(), k4()):
            cm = homology_cover(base)
            w = walls_from_cover(cm)
            dist = wall_pseudometric(cm.cover, w)
            n = cm.cover.vertex_count
            assert np.array_equal(dist, dist.T)
            assert np.all(np.diag(dist) == 0)
            graph_dist = distance_matrix(cm.cover)
            assert np.all(dist <= graph_dist)
            for a in range(n):
                for b in range(n):
                    assert np.all(dist[a, b] <= dist[a, :] + dist[:, b])

    def test_adjacent_vertices_separated_once_in_hexagon(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        dist = wall_pseudometric(cm.cover, w)
        for u, v, _ in edge_list(cm.cover):
            assert dist[u, v] == 1

    def test_bridge_base_rejected(self):
        base = build_graph(2, [(0, 1)])
        cm = homology_cover(base)
        with pytest.raises(InvalidInputError):
            walls_from_cover(cm)

    def test_composite_fibers_are_not_walls(self):
        cm = iterate_homology_cover(triangle(), 2)
        with pytest.raises(VerificationError):
            walls_from_cover(cm)

    def test_cover_walls_pass_validation(self):
        # bridgeless multigraphs, each with a loop and a doubled edge: the
        # computed sides are the searched ones
        rng = random.Random(74)
        checked = 0
        while checked < 200:
            n = rng.randrange(1, 6)
            base = random_multigraph(rng, n, rng.randrange(n - 1, n + 4))
            if not base.is_connected or base.edge_count - n + 1 > 7 or not bridgeless(base):
                continue
            cm = homology_cover(base)
            walls = walls_from_cover(cm)
            assert np.array_equal(walls.side_assignment, searched_wall_sides(cm))
            validate_walls(cm.cover, walls)
            checked += 1

    @pytest.mark.parametrize(
        "base", [triangle(), theta(), k4(), complete(6), prism(6)],
        ids=["triangle", "theta", "k4", "k6", "prism6"],
    )
    def test_sides_are_the_searched_sides(self, base):
        cm = homology_cover(base)
        assert np.array_equal(walls_from_cover(cm).side_assignment, searched_wall_sides(cm))

    def test_corrupt_cut_mask_fails_the_cut_check(self, monkeypatch):
        # K4's masks are distinct and nonzero, so reversed they still pass
        # the bridge test but put vertices on the wrong sides
        cm = homology_cover(k4())
        cut_masks = covers_walls._cut_masks
        monkeypatch.setattr(covers_walls, "_cut_masks", lambda g: cut_masks(g)[::-1])
        with pytest.raises(VerificationError, match="not its edge fiber"):
            walls_from_cover(cm)

    def test_walls_make_no_component_search(self, monkeypatch):
        cm = homology_cover(complete(6))
        calls = []

        def counted(g, removed=frozenset()):
            calls.append(len(removed))
            return components(g, removed)

        monkeypatch.setattr(covers_walls, "components", counted)
        monkeypatch.setattr(graph_core, "components", counted)
        walls = walls_from_cover(cm)
        assert calls == []
        # the independent guard still searches once per wall
        validate_walls(cm.cover, walls)
        assert calls == [1 << cm.deck_rank] * cm.base.edge_count

    def test_wall_edge_inside_one_side_rejected(self):
        # removing both edges leaves two vertices, but the loop joins a
        # side to itself; the loop is no XOR lift of the base loop, so
        # the lift check refuses the cover first
        cm = CoveringMap(
            base=build_graph(1, [(0, 0)]),
            cover=build_graph(2, [(0, 1), (0, 0)]),
            vertex_map=(0, 0),
            dart_map=(0, 1, 0, 1),
            deck_rank=1,
        )
        with pytest.raises(VerificationError, match="not its base edge with one flip per fiber"):
            walls_from_cover(cm)


class TestWallValidation:
    def test_edge_in_two_walls_rejected(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        bad = WallDecomposition(
            vertex_count=w.vertex_count,
            edge_count=w.edge_count,
            walls=(w.walls[0], w.walls[0] | w.walls[1], w.walls[2]),
            side_assignment=w.side_assignment,
        )
        with pytest.raises(InvalidInputError):
            validate_walls(cm.cover, bad)

    def test_missing_edge_rejected(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        bad = WallDecomposition(
            vertex_count=w.vertex_count,
            edge_count=w.edge_count,
            walls=w.walls[:2],
            side_assignment=w.side_assignment[:2],
        )
        with pytest.raises(InvalidInputError):
            validate_walls(cm.cover, bad)

    def test_wrong_side_coloring_rejected(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        flipped = w.side_assignment.copy()
        flipped[0, 0] ^= 1
        bad = WallDecomposition(
            vertex_count=w.vertex_count,
            edge_count=w.edge_count,
            walls=w.walls,
            side_assignment=flipped,
        )
        with pytest.raises(InvalidInputError):
            validate_walls(cm.cover, bad)

    def test_non_separating_wall_rejected(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        bad = WallDecomposition(
            vertex_count=4,
            edge_count=4,
            walls=(frozenset({0}), frozenset({1, 2, 3})),
            side_assignment=((0, 1, 1, 1), (0, 0, 1, 1)),
        )
        with pytest.raises(InvalidInputError):
            validate_walls(g, bad)


class TestEmbedding:
    def test_norm_identity_exact(self):
        for base in (triangle(), theta(), k4()):
            cm = homology_cover(base)
            w = walls_from_cover(cm)
            dist = wall_pseudometric(cm.cover, w)
            emb = wall_hilbert_embedding(cm.cover, w, basepoint=0)
            n = cm.cover.vertex_count
            for x in range(n):
                for y in range(n):
                    diff = emb[x] - emb[y]
                    assert float(np.dot(diff, diff)) == float(dist[x, y])

    def test_basepoint_at_origin_style(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        emb = wall_hilbert_embedding(cm.cover, w, basepoint=2)
        assert np.all(emb[2] == -0.5)
        assert set(np.unique(emb)) == {-0.5, 0.5}

    def test_antipodal_norm_sqrt3(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        emb = wall_hilbert_embedding(cm.cover, w)
        assert float(np.linalg.norm(emb[0] - emb[1])) == pytest.approx(math.sqrt(3), abs=1e-12)


class TestDeckVerificationCatchesDamage:
    def test_tampered_vertex_map(self):
        cm = homology_cover(triangle())
        vm = list(cm.vertex_map)
        vm[0], vm[2] = vm[2], vm[0]
        bad = CoveringMap(cm.base, cm.cover, tuple(vm), cm.dart_map, cm.deck_rank)
        with pytest.raises(VerificationError):
            verify_covering(bad)

    def test_irregular_cover_detected(self):
        # a 3-fold cover of the triangle glued as one 9-cycle is regular,
        # but breaking one dart pairing is not even a covering
        cm = homology_cover(triangle())
        dm = list(cm.dart_map)
        dm[0], dm[4] = dm[4], dm[0]
        bad = CoveringMap(cm.base, cm.cover, cm.vertex_map, tuple(dm), cm.deck_rank)
        with pytest.raises(VerificationError):
            verify_covering(bad)


def separating_walls(w):
    """Wall distances over all pairs, one comparison per wall and pair."""
    return sum(np.not_equal.outer(side, side).astype(np.int64) for side in w.side_assignment)


class TestXorDeckAction:
    @pytest.mark.parametrize(
        "base", [triangle(), theta(), k4(), prism(3), petersen()],
        ids=["triangle", "theta", "k4", "prism3", "petersen"],
    )
    def test_fast_check_agrees_with_the_brute_force_oracle(self, base):
        # the oracle rebuilds the deck group by path lifting: it must be
        # exactly the XOR translations that xor_fiber_heads checks in O(E)
        cm = homology_cover(base)
        fiber, n = 1 << cm.deck_rank, cm.cover.vertex_count
        maps = verify_covering(cm).deck_maps
        assert len(maps) == fiber
        assert set(maps) == {tuple(v ^ t for v in range(n)) for t in range(fiber)}
        assert xor_fiber_heads(cm).tolist() == list(range(0, n, fiber))

    @pytest.mark.parametrize(
        "base", [prism(4), complete(5), petersen(), prism(6), multi_k4()],
        ids=["prism4", "k5", "petersen", "prism6", "multi_k4"],
    )
    def test_head_rows_and_gather_give_the_full_matrices(self, base):
        cm = homology_cover(base)
        heads = xor_fiber_heads(cm)
        assert heads.tolist() == [cm.vertex_map.tolist().index(b) for b in range(base.vertex_count)]
        walls = walls_from_cover(cm)
        n = cm.cover.vertex_count
        u, v = np.divmod(np.arange(n * n), n)
        graph = xor_deck_gather(distance_matrix(cm.cover, heads), cm.deck_rank, u, v)
        wall = xor_deck_gather(wall_pseudometric(cm.cover, walls, heads), cm.deck_rank, u, v)
        assert np.array_equal(graph.reshape(n, n), distance_matrix(cm.cover))
        assert np.array_equal(wall.reshape(n, n), wall_pseudometric(cm.cover, walls))

    def test_wall_rows_from_sources_are_rows_of_the_full_matrix(self):
        cm = homology_cover(multi_k4())
        w = walls_from_cover(cm)
        full = wall_pseudometric(cm.cover, w)
        assert full.dtype == np.int64
        assert np.array_equal(full, separating_walls(w))
        picks = [7, 0, 31, 7]
        for sources in (None, [], picks, picks + picks, tuple(picks), np.array(picks)):
            rows = np.arange(cm.cover.vertex_count) if sources is None else np.array(sources, dtype=np.int64)
            got = wall_pseudometric(cm.cover, w, sources)
            assert got.dtype == np.int64 and np.array_equal(got, full[rows])

    def test_wall_sources_that_are_not_vertices_are_rejected(self):
        cm = homology_cover(triangle())
        w = walls_from_cover(cm)
        for bad in ([-1], [6], [0, 9], np.array([-2]), [[0]]):
            with pytest.raises(InvalidInputError):
                wall_pseudometric(cm.cover, w, bad)
        # a bool basepoint used to index by mask, and 1.5 to raise IndexError
        for bad in (True, np.bool_(False), 1.5, -1, 6):
            with pytest.raises(InvalidInputError):
                wall_hilbert_embedding(cm.cover, w, basepoint=bad)
        assert np.array_equal(wall_hilbert_embedding(cm.cover, w, np.int64(2)), wall_hilbert_embedding(cm.cover, w, 2))
        # a graph with no edge has no wall: one point in R^0
        cm = homology_cover(build_graph(1, []))
        assert wall_hilbert_embedding(cm.cover, walls_from_cover(cm)).shape == (1, 0)

    def test_rewired_lift_is_rejected(self):
        cm = homology_cover(prism(4))
        edges = list(edge_list(cm.cover))
        u, v, label = edges[3]
        edges[3] = (u, v ^ 1, label)  # the same fibers, but a second flip in fiber 0
        rewired = build_graph(cm.cover.vertex_count, edges)
        bad = CoveringMap(cm.base, rewired, cm.vertex_map, cm.dart_map, cm.deck_rank)
        for check in (xor_fiber_heads, verify_covering):
            with pytest.raises(VerificationError):
                check(bad)

    def test_shuffled_maps_are_rejected(self):
        cm = homology_cover(prism(4))
        vm = list(cm.vertex_map)
        vm[0], vm[40] = vm[40], vm[0]
        dm = list(cm.dart_map)
        dm[0], dm[2 * 32] = dm[2 * 32], dm[0]
        for bad in (
            CoveringMap(cm.base, cm.cover, tuple(vm), cm.dart_map, cm.deck_rank),
            CoveringMap(cm.base, cm.cover, cm.vertex_map, tuple(dm), cm.deck_rank),
        ):
            for check in (xor_fiber_heads, verify_covering):
                with pytest.raises(VerificationError):
                    check(bad)

    def test_composed_cover_is_rejected(self):
        cm = iterate_homology_cover(triangle(), 2)
        assert not cm.single_step
        with pytest.raises(VerificationError):
            xor_fiber_heads(cm)
