"""Z/2-homology coverings, wall decompositions, wall pseudo-metrics,
and the exact Hilbert-space embedding of a wall space.

The homology cover of a connected graph doubles along every independent
cycle: a BFS spanning tree is fixed, the r = |E| - |V| + 1 non-tree
edges index coordinates of (Z/2)^r, tree edges lift preserving the
coordinate vector and non-tree edge i flips bit i.  Iterating the
construction composes covering maps.  Walls of the cover are the edge
fibers of base edges; each wall separates the cover into exactly two
sides when the base is bridgeless, and counting separating walls gives
a pseudo-metric with an exact half-integer embedding into l2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)
from .graph_core import (
    LabeledGraph,
    bfs_tree,
    build_graph,
    components,
    dart_endpoints,
    girth,
    source_rows,
    tree_path,
    xor_lift,
)

#: Iterated covers refuse to build more vertices than this by default.
COVER_VERTEX_CAP = 1 << 20


def is_two_connected(g: LabeledGraph) -> bool:
    """True iff the connected graph ``g`` has no bridge.

    A connected graph is bridgeless iff every edge of a spanning tree
    lies on the fundamental cycle of some non-tree edge; the tree edges
    of that cycle are the symmetric difference of the tree paths to its
    two ends.  A loop is never a bridge; one edge of a parallel pair is
    not a bridge either, so the theta graph passes.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("two-connectivity is defined for connected graphs")
    parent = bfs_tree(g, 0)
    tree = {d >> 1 for d in parent.values() if d >= 0}
    covered = set()
    for e, (u, v, _) in enumerate(g.edges()):
        if e not in tree:
            ends = [{d >> 1 for d in tree_path(g, parent, w)} for w in (u, v)]
            covered |= ends[0] ^ ends[1]
    return covered == tree


@dataclass(frozen=True)
class CoveringMap:
    """A covering projection ``cover -> base`` with explicit fiber data.

    ``deck_rank`` r means every fiber has 2^r points.  For a single
    homology step the deck group is (Z/2)^r acting by coordinate
    translation; composites are still regular coverings but their deck
    group is only guaranteed to be a group of order 2^r.
    """

    base: LabeledGraph
    cover: LabeledGraph
    vertex_map: tuple[int, ...]
    dart_map: tuple[int, ...]
    deck_rank: int
    single_step: bool = True


def _locally_reduced(g: LabeledGraph) -> bool:
    """True when every dart is labeled and no vertex repeats an
    outgoing label; such labelings stay deterministic to follow."""
    for u in range(g.vertex_count):
        seen = set()
        for d in g.out_darts(u):
            lab = g.dart_label(d)
            if lab is None or lab in seen:
                return False
            seen.add(lab)
    return True


def homology_cover(g: LabeledGraph) -> CoveringMap:
    """The mod-2 homology covering of a connected graph.

    Cover vertex (v, x) is numbered v * 2^r + x, where x runs over
    (Z/2)^r and r counts non-tree edges of the BFS spanning tree rooted
    at vertex 0.  Non-tree edges are assigned bits in increasing edge
    index order, which fixes the numbering completely.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("homology cover needs a connected base")
    n = g.vertex_count
    tree_edges = {LabeledGraph.dart_edge(d) for d in bfs_tree(g, 0).values() if d >= 0}
    bit_of_edge: dict[int, int] = {}
    for k in range(g.edge_count):
        if k not in tree_edges:
            bit_of_edge[k] = len(bit_of_edge)
    r = len(bit_of_edge)
    if r != g.edge_count - n + 1:
        raise VerificationError("non-tree edge count disagrees with the cycle rank")
    size = 1 << r
    edges = []
    for k in range(g.edge_count):
        u = g.dart_source(2 * k)
        v = g.dart_target(2 * k)
        lab = g.dart_label(2 * k)
        flip = 1 << bit_of_edge[k] if k in bit_of_edge else 0
        for x in range(size):
            edges.append((u * size + x, v * size + (x ^ flip), lab))
    cover = build_graph(n * size, edges, alphabet=g.alphabet or None)
    if not cover.is_connected:
        raise VerificationError("homology cover came out disconnected")
    if _locally_reduced(g):
        # a labeling induced from a reduced base labeling stays reduced
        if not _locally_reduced(cover):
            raise VerificationError("induced labeling on the cover is not reduced")
    vertex_map = tuple(v >> r for v in range(cover.vertex_count))
    dart_map = []
    for big_k in range(cover.edge_count):
        k = big_k // size
        dart_map.extend((2 * k, 2 * k + 1))
    return CoveringMap(
        base=g,
        cover=cover,
        vertex_map=vertex_map,
        dart_map=tuple(dart_map),
        deck_rank=r,
        single_step=True,
    )


def compose_covers(outer: CoveringMap, inner: CoveringMap) -> CoveringMap:
    """Compose cover2 -> cover1 (outer) with cover1 -> base (inner)."""
    if outer.base is not inner.cover and (
        outer.base.vertex_count != inner.cover.vertex_count
        or outer.base.dart_count != inner.cover.dart_count
    ):
        raise InvalidInputError("coverings do not chain: outer base differs from inner cover")
    vertex_map = tuple(inner.vertex_map[outer.vertex_map[v]] for v in range(outer.cover.vertex_count))
    dart_map = tuple(inner.dart_map[outer.dart_map[d]] for d in range(outer.cover.dart_count))
    return CoveringMap(
        base=inner.base,
        cover=outer.cover,
        vertex_map=vertex_map,
        dart_map=dart_map,
        deck_rank=inner.deck_rank + outer.deck_rank,
        single_step=False,
    )


def cover_girth(cm: CoveringMap):
    """Girth of ``cm.cover`` from one source per fiber: the smallest
    vertex over each base vertex.

    Exact for homology covers and their iterates.  Each is a regular
    covering (every kernel is characteristic in the one below, hence
    normal in the base), so the deck group is transitive on each fiber
    and carries any shortest cycle onto one through a chosen source.
    """
    heads = np.unique(np.asarray(cm.vertex_map), return_index=True)[1]
    return girth(cm.cover, heads.tolist())


def xor_fiber_heads(cm: CoveringMap) -> np.ndarray:
    """The cover vertices (v, 0), one per base vertex, after checking that
    the deck group (Z/2)^r of ``cm`` acts by x -> x XOR t on the numbering
    v * 2^r + x of :func:`homology_cover`.

    The check is O(E) numpy over the darts: ``cm`` is a single step, the
    cover passes :func:`~coarselab.graph_core.xor_lift` at rank r over
    the edges of ``cm.base`` (cover edge k * 2^r + x runs from
    u_k * 2^r + x to v_k * 2^r + (x XOR f_k), one flip f_k per base edge
    (u_k, v_k)), the vertex map is v >> r, and the dart map sends edge
    fiber k onto base edge k.  Each XOR map is then an automorphism fixing
    every edge fiber, hence every wall of :func:`walls_from_cover`, so
    graph and wall distances satisfy d((u, x), (v, y)) = d((u, 0),
    (v, x XOR y)), which :func:`xor_deck_gather` reads off the rows of
    these heads.

    Raises
    ------
    VerificationError
        If any part of the check fails.
    """
    base, cover, r = cm.base, cm.cover, cm.deck_rank
    if not cm.single_step:
        raise VerificationError("a composed covering carries no XOR deck action")
    lift = xor_lift(cover, r)
    base_src, base_dst = dart_endpoints(base)
    if not (
        lift is not None
        and lift.base_vertices == base.vertex_count
        and np.array_equal(lift.base_src, base_src[0::2])
        and np.array_equal(lift.base_dst, base_dst[0::2])
    ):
        raise VerificationError("a lifted edge is not its base edge with one flip per fiber")
    if not np.array_equal(np.asarray(cm.vertex_map, dtype=np.int64), np.arange(cover.vertex_count) >> r):
        raise VerificationError("vertex map is not v >> deck_rank")
    darts = np.arange(cover.dart_count)
    if not np.array_equal(np.asarray(cm.dart_map, dtype=np.int64), (darts >> (r + 1) << 1) | (darts & 1)):
        raise VerificationError("dart map does not send edge fiber k onto base edge k")
    return lift.fiber_heads()


def xor_deck_gather(head_rows: np.ndarray, deck_rank: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entries (u, v) of a matrix invariant under the XOR deck action,
    read from its rows at the heads of :func:`xor_fiber_heads` (row b
    belongs to vertex (b, 0)): entry ((a, x), w) is row a at w XOR x."""
    return head_rows[u >> deck_rank, v ^ (u & ((1 << deck_rank) - 1))]


def iterate_homology_cover(g: LabeledGraph, k: int, vertex_cap: int = COVER_VERTEX_CAP) -> CoveringMap:
    """k-fold homology cover, composed into a single covering of ``g``.

    Sizes blow up doubly exponentially; the predicted vertex count of
    each step is checked against ``vertex_cap`` before building.
    """
    if k < 1:
        raise InvalidInputError("iteration count must be >= 1")
    cm: Optional[CoveringMap] = None
    current = g
    for _ in range(k):
        rank = current.edge_count - current.vertex_count + 1
        if rank < 0:
            raise DisconnectedGraphError("iterated cover needs a connected base")
        predicted = current.vertex_count << rank
        if predicted > vertex_cap:
            raise CapExceededError(
                f"next homology cover would have {predicted} vertices (cap {vertex_cap})"
            )
        step = homology_cover(current)
        cm = step if cm is None else compose_covers(step, cm)
        current = cm.cover
    return cm


# -- walls -----------------------------------------------------------------


@dataclass(frozen=True)
class WallDecomposition:
    """A partition of the edges into walls, each separating the graph
    into the two sides recorded in ``side_assignment``."""

    vertex_count: int
    edge_count: int
    walls: tuple[frozenset[int], ...]
    side_assignment: tuple[tuple[int, ...], ...]

    def side_matrix(self) -> np.ndarray:
        return np.array(self.side_assignment, dtype=np.uint8)


def _two_side_split(g: LabeledGraph, wall: frozenset[int]) -> tuple[int, ...]:
    comp = components(g, wall)
    k = max(comp) + 1
    if k != 2:
        raise VerificationError(
            f"removing a wall must leave exactly two components, got {k}"
        )
    # side 0 is the component of vertex 0, for reproducibility
    return tuple(comp)


def walls_from_cover(cm: CoveringMap) -> WallDecomposition:
    """One wall per base edge: its full edge fiber in the cover.

    The base must be bridgeless (2-connected in the edge sense); that
    is what makes every fiber separate the cover into exactly two
    pieces.  The sides are those pieces, and every wall edge is checked
    to join them, which is all :func:`validate_walls` would add.
    """
    if not is_two_connected(cm.base):
        raise InvalidInputError("wall construction requires a bridgeless base graph")
    cover = cm.cover
    grouped: dict[int, set[int]] = {k: set() for k in range(cm.base.edge_count)}
    for big_k in range(cover.edge_count):
        grouped[cm.dart_map[2 * big_k] // 2].add(big_k)
    walls = tuple(frozenset(grouped[k]) for k in range(cm.base.edge_count))
    sides = tuple(_two_side_split(cover, wall) for wall in walls)
    wall_of = np.asarray(cm.dart_map[::2], dtype=np.int64) >> 1
    src, dst = dart_endpoints(cover)
    side = np.array(sides, dtype=np.uint8).reshape(len(walls), cover.vertex_count)
    if np.any(side[wall_of, src[::2]] == side[wall_of, dst[::2]]):
        raise VerificationError("a wall edge does not join the two sides of its wall")
    return WallDecomposition(
        vertex_count=cover.vertex_count,
        edge_count=cover.edge_count,
        walls=walls,
        side_assignment=sides,
    )


def validate_walls(g: LabeledGraph, w: WallDecomposition) -> None:
    """Check a wall decomposition against a graph; raises on any defect."""
    if w.vertex_count != g.vertex_count or w.edge_count != g.edge_count:
        raise InvalidInputError("wall decomposition sized for a different graph")
    seen: dict[int, int] = {}
    for i, wall in enumerate(w.walls):
        if not wall:
            raise InvalidInputError(f"wall {i} is empty")
        for k in wall:
            if not (0 <= k < g.edge_count):
                raise InvalidInputError(f"wall {i} references edge {k} out of range")
            if k in seen:
                raise InvalidInputError(f"edge {k} lies in walls {seen[k]} and {i}")
            seen[k] = i
    if len(seen) != g.edge_count:
        raise InvalidInputError("some edge lies in no wall")
    if len(w.side_assignment) != len(w.walls):
        raise InvalidInputError("one side assignment required per wall")
    for i, wall in enumerate(w.walls):
        sides = w.side_assignment[i]
        if len(sides) != g.vertex_count or any(s not in (0, 1) for s in sides):
            raise InvalidInputError(f"side assignment {i} is not a two-coloring")
        comp = components(g, wall)
        if max(comp) + 1 != 2:
            raise InvalidInputError(f"wall {i} does not split the graph into two components")
        # the two-coloring must be constant on components and split them
        observed = {}
        for v in range(g.vertex_count):
            if comp[v] in observed:
                if observed[comp[v]] != sides[v]:
                    raise InvalidInputError(f"side assignment {i} cuts across a component")
            else:
                observed[comp[v]] = sides[v]
        if observed[0] == observed[1]:
            raise InvalidInputError(f"side assignment {i} gives both components the same side")
        for k in wall:
            u, v = g.dart_source(2 * k), g.dart_target(2 * k)
            if sides[u] == sides[v]:
                raise InvalidInputError(f"edge {k} of wall {i} does not cross the wall")


def wall_pseudometric(
    g: LabeledGraph, w: WallDecomposition, sources: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Wall distances from each of ``sources`` (default: every vertex, in
    order) to every vertex: the number of walls separating the two.

    Raises
    ------
    InvalidInputError
        If a source is not a vertex, as in
        :func:`~coarselab.graph_core.distance_matrix`, or ``w`` fails
        :func:`validate_walls`.
    """
    rows = source_rows(g, sources)
    validate_walls(g, w)
    sides = w.side_matrix().reshape(len(w.walls), g.vertex_count)
    dist = np.zeros((rows.size, g.vertex_count), dtype=np.int64)
    for side in sides:
        dist += side[rows, None] != side[None, :]
    return dist


def wall_hilbert_embedding(g: LabeledGraph, w: WallDecomposition, basepoint: int = 0) -> np.ndarray:
    """One coordinate per wall, +-1/2 according to the side relative to
    ``basepoint``; then ||F(x) - F(y)||^2 equals the wall distance
    bit-exactly (half-integers are exact in binary floating point)."""
    validate_walls(g, w)
    if not (0 <= basepoint < g.vertex_count):
        raise InvalidInputError("basepoint out of range")
    sides = w.side_matrix()
    rel = sides != sides[:, basepoint][:, None]
    return np.where(rel, 0.5, -0.5).T.astype(np.float64)
