"""The breadth-first core of graph_core against independent oracles, on
seeded random multigraphs with loops and parallel edges."""

import math
import random

from coarselab.expander_zoo import is_bipartite
from coarselab.graph_core import components, distance_matrix

from oracles import bfs_distances, naive_is_bipartite, random_multigraph, scipy_components


def multigraphs(seed, count=40):
    rng = random.Random(seed)
    for i in range(count):
        bipartite = i % 2 == 1
        n = rng.randrange(1 + bipartite, 13)
        yield rng, random_multigraph(rng, n, rng.randrange(0, 2 * n), bipartite)


def test_components_match_scipy_after_edge_removal():
    for rng, g in multigraphs(1):
        removed = frozenset(k for k in range(g.edge_count) if rng.random() < 0.3)
        assert components(g) == scipy_components(g)
        assert components(g, removed) == scipy_components(g, removed)


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

