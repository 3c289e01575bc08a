"""The breadth-first core of graph_core against independent oracles, on
seeded random multigraphs with loops and parallel edges."""

import math
import random

import numpy as np
import pytest

from coarselab import graph_core
from coarselab.expander_zoo import is_bipartite
from coarselab.graph_core import build_graph, component_roots, components, distance_matrix, girth

from oracles import (
    bfs_distances,
    edge_list,
    naive_is_bipartite,
    random_multigraph,
    scipy_components,
    truncated_girth,
)


def multigraphs(seed, count=40):
    rng = random.Random(seed)
    for i in range(count):
        bipartite = i % 2 == 1
        n = rng.randrange(1 + bipartite, 13)
        yield rng, random_multigraph(rng, n, rng.randrange(0, 2 * n), bipartite)


def test_components_match_scipy_after_edge_removal():
    for rng, g in multigraphs(1):
        removed = frozenset(k for k in range(g.edge_count) if rng.random() < 0.3)
        assert g.component_ids.tolist() == scipy_components(g)
        assert g.is_connected == (max(scipy_components(g)) == 0)
        for cut in (frozenset(), removed):
            want = scipy_components(g, cut)
            assert components(g, cut).tolist() == want
            # the root hooking primitive names each component by its smallest vertex
            kept = np.repeat(np.array([k not in cut for k in range(g.edge_count)], dtype=bool), 2)
            roots = component_roots(g.src[kept], g.dst[kept], g.vertex_count)
            assert roots.tolist() == [want.index(c) for c in want]


def test_bfs_distances_match_distance_matrix_rows():
    for _, g in multigraphs(2):
        mat = distance_matrix(g)
        for s in range(g.vertex_count):
            row = [math.inf if x < 0 else x for x in bfs_distances(g, s)]
            assert row == list(mat[s])


def test_is_bipartite_matches_brute_force_colorings():
    verdicts = set()
    for _, g in multigraphs(3):
        verdicts.add(is_bipartite(g))
        assert is_bipartite(g) == naive_is_bipartite(g)
    assert verdicts == {True, False}



@pytest.mark.parametrize("block", [graph_core.DIAMETER_BLOCK, 3])
def test_girth_matches_the_truncated_search_from_every_source_subset(monkeypatch, block):
    # each draw as it comes (a loop or a parallel pair decides it) and
    # its simple part; a block of 3 sources carries the best bound across
    # blocks of one call
    monkeypatch.setattr(graph_core, "DIAMETER_BLOCK", block)
    seen = set()
    for rng, g in multigraphs(4):
        simple = {(min(u, v), max(u, v)) for u, v, _ in edge_list(g) if u != v}
        for h in (g, build_graph(g.vertex_count, sorted(simple))):
            order = list(range(h.vertex_count))
            rng.shuffle(order)
            for size in range(h.vertex_count + 1):
                value = girth(h, order[:size])
                assert value == truncated_girth(h, order[:size])
                seen.add(value)
    assert {1, 2, 3, 4, math.inf} <= seen and max(seen - {math.inf}) > 4
    # a triangle with a 2-edge tail: from the tail's end only the bound 7
    tail = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert girth(tail, [4]) == truncated_girth(tail, [4]) == 7
