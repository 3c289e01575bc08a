"""Z/2-homology coverings, wall decompositions, wall pseudo-metrics,
and the exact Hilbert-space embedding of a wall space.

The homology cover of a connected graph doubles along every independent
cycle: the r = |E| - |V| + 1 fundamental cycles of a BFS spanning tree
index coordinates of (Z/2)^r, tree edges lift preserving the coordinate
vector and non-tree edge i flips bit i.  Iterating the construction
composes covering maps.  Walls of the cover are the edge fibers of base
edges; each wall separates the cover into exactly two sides when the
base is bridgeless.  The bridge test and the sides are read off the same
cycle basis; :func:`validate_walls` re-derives the sides by search.
Counting separating walls gives a pseudo-metric with an exact
half-integer embedding into l2.  Covering maps and wall sides are numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    COVER_VERTEX_CAP,
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)
from .graph_core import (
    LabeledGraph,
    bfs_tree,
    components,
    fundamental_cycles,
    girth,
    label_clash,
    source_rows,
    xor_lift,
)


def _cut_masks(g: LabeledGraph) -> list[int]:
    """Bit i of entry e is set when edge e lies an odd number of times on
    fundamental cycle i; Python ints, so any cycle rank fits."""
    masks = [0] * g.edge_count
    for i, (_, darts) in enumerate(fundamental_cycles(g)):
        for d in darts:
            masks[d >> 1] ^= 1 << i
    return masks


@dataclass(frozen=True)
class CoveringMap:
    """A covering projection ``cover -> base`` with explicit fiber data.

    ``deck_rank`` r means every fiber has 2^r points.  For a single
    homology step the deck group is (Z/2)^r acting by coordinate
    translation; composites are still regular coverings but their deck
    group is only guaranteed to be a group of order 2^r.  ``vertex_map``
    and ``dart_map`` are int64 arrays indexed by cover vertex and dart.
    """

    base: LabeledGraph
    cover: LabeledGraph
    vertex_map: np.ndarray
    dart_map: np.ndarray
    deck_rank: int
    single_step: bool = True


def _xor_maps(cover_vertices: int, cover_darts: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex map v >> r and the dart map that sends edge fiber k
    onto base edge k, of an XOR lift of rank r."""
    darts = np.arange(cover_darts)
    return np.arange(cover_vertices) >> r, (darts >> (r + 1) << 1) | (darts & 1)


def homology_cover(g: LabeledGraph, vertex_cap: int = COVER_VERTEX_CAP) -> CoveringMap:
    """The mod-2 homology covering of a connected graph.

    Cover vertex (v, x) is numbered v * 2^r + x, where x runs over
    (Z/2)^r and r counts non-tree edges of the BFS spanning tree rooted
    at vertex 0.  Non-tree edges are assigned bits in increasing edge
    index order, which fixes the numbering completely: cover edge
    k * 2^r + x runs from (u_k, x) to (v_k, x XOR f_k), f_k the bit of
    edge k (0 on the tree), the lift that :func:`xor_fiber_heads` checks.
    Its predicted vertex count is checked against ``vertex_cap`` before
    anything is built.
    """
    rank = g.edge_count - g.vertex_count + 1
    if rank >= 0 and g.vertex_count << rank > vertex_cap:
        raise CapExceededError(
            f"next homology cover would have {g.vertex_count << rank} vertices (cap {vertex_cap})"
        )
    if not g.is_connected:
        raise DisconnectedGraphError("homology cover needs a connected base")
    non_tree = [k for k, _ in fundamental_cycles(g)]
    r = len(non_tree)
    if r != rank:
        raise VerificationError("non-tree edge count disagrees with the cycle rank")
    flips = np.zeros(g.edge_count, dtype=np.int64)
    flips[non_tree] = 1 << np.arange(r)
    lift = np.arange(g.edge_count << r)
    k, x = lift >> r, lift & ((1 << r) - 1)
    heads, tails = (g.src[0::2][k] << r) | x, (g.dst[0::2][k] << r) | (x ^ flips[k])
    cover = LabeledGraph(g.vertex_count << r, heads, tails, g.codes[0::2][k], g.alphabet)
    if not cover.is_connected:
        raise VerificationError("homology cover came out disconnected")
    # a labeling induced from a reduced base labeling stays reduced
    if label_clash(g) is None and label_clash(cover) is not None:
        raise VerificationError("induced labeling on the cover is not reduced")
    vertex_map, dart_map = _xor_maps(cover.vertex_count, cover.dart_count, r)
    return CoveringMap(
        base=g,
        cover=cover,
        vertex_map=vertex_map,
        dart_map=dart_map,
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
    return CoveringMap(
        base=inner.base,
        cover=outer.cover,
        vertex_map=inner.vertex_map[outer.vertex_map],
        dart_map=inner.dart_map[outer.dart_map],
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
    return girth(cm.cover, np.unique(cm.vertex_map, return_index=True)[1])


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
    (v, x XOR y)), which :func:`~coarselab.graph_core.xor_deck_gather`
    reads off the rows of these heads.

    Raises
    ------
    VerificationError
        If any part of the check fails.
    """
    base, cover, r = cm.base, cm.cover, cm.deck_rank
    if not cm.single_step:
        raise VerificationError("a composed covering carries no XOR deck action")
    lift = xor_lift(cover, r)
    if not (
        lift is not None
        and lift.base_vertices == base.vertex_count
        and np.array_equal(lift.base_src, base.src[0::2])
        and np.array_equal(lift.base_dst, base.dst[0::2])
    ):
        raise VerificationError("a lifted edge is not its base edge with one flip per fiber")
    vertex_map, dart_map = _xor_maps(cover.vertex_count, cover.dart_count, r)
    if not np.array_equal(cm.vertex_map, vertex_map):
        raise VerificationError("vertex map is not v >> deck_rank")
    if not np.array_equal(cm.dart_map, dart_map):
        raise VerificationError("dart map does not send edge fiber k onto base edge k")
    return lift.fiber_heads()


def iterate_homology_cover(g: LabeledGraph, k: int, vertex_cap: int = COVER_VERTEX_CAP) -> CoveringMap:
    """k-fold homology cover, composed into a single covering of ``g``.

    Sizes blow up doubly exponentially; :func:`homology_cover` checks the
    predicted vertex count of each step against ``vertex_cap`` before
    building.
    """
    if k < 1:
        raise InvalidInputError("iteration count must be >= 1")
    if vertex_cap < 0:
        raise InvalidInputError(f"the vertex cap must be nonnegative, got {vertex_cap}")
    cm: Optional[CoveringMap] = None
    current = g
    for _ in range(k):
        if current.edge_count < current.vertex_count - 1:
            raise DisconnectedGraphError("iterated cover needs a connected base")
        step = homology_cover(current, vertex_cap)
        cm = step if cm is None else compose_covers(step, cm)
        current = cm.cover
    return cm


# -- walls -----------------------------------------------------------------


@dataclass(frozen=True)
class WallDecomposition:
    """A partition of the edges into walls, each separating the graph
    into the two sides recorded in ``side_assignment``: a (walls,
    vertices) array of 0s and 1s."""

    vertex_count: int
    edge_count: int
    walls: tuple[frozenset[int], ...]
    side_assignment: np.ndarray


def walls_from_cover(cm: CoveringMap) -> WallDecomposition:
    """One wall per base edge e: its full edge fiber in the cover.

    ``cm`` must pass :func:`xor_fiber_heads` (else VerificationError) and
    its base must be bridgeless (else InvalidInputError).  With bit i of
    the cut mask m_e set when e lies an odd number of times on fundamental
    cycle i, cover vertex (v, x) lies on side [e is on the tree path to v]
    XOR parity(x & m_e) of wall e, so (0, 0) is on side 0.  The side
    changes along a lifted edge exactly when its base edge is e, which one
    numpy check confirms for every wall (VerificationError if not).  Each
    side is connected: the base minus e is connected, and the flips of the
    cycles that avoid e span the index-2 stabilizer
    {t : parity(t & m_e) = 0}, which is how far closed walks avoiding e
    move x within a fiber.
    """
    base, cover, r = cm.base, cm.cover, cm.deck_rank
    masks = _cut_masks(base)
    if not all(masks):
        raise InvalidInputError("wall construction requires a bridgeless base graph")
    xor_fiber_heads(cm)
    on_path = np.zeros((base.edge_count, base.vertex_count), dtype=np.uint8)
    base_src = base.src.tolist()
    for v, d in bfs_tree(base, 0).items():  # parents first
        if d >= 0:
            on_path[:, v] = on_path[:, base_src[d]]
            on_path[d >> 1, v] ^= 1
    parity = np.bitwise_count(np.array(masks, dtype=np.int64)[:, None] & np.arange(1 << r)) & 1
    side = (on_path[:, :, None] ^ parity[:, None, :]).reshape(base.edge_count, cover.vertex_count)
    own_fiber = np.arange(cover.edge_count) >> r == np.arange(base.edge_count)[:, None]
    if not np.array_equal(side[:, cover.src[0::2]] != side[:, cover.dst[0::2]], own_fiber):
        raise VerificationError("the cover edges crossing a wall's sides are not its edge fiber")
    return WallDecomposition(
        vertex_count=cover.vertex_count,
        edge_count=cover.edge_count,
        walls=tuple(frozenset(range(k << r, (k + 1) << r)) for k in range(base.edge_count)),
        side_assignment=side,
    )


def validate_walls(g: LabeledGraph, w: WallDecomposition) -> None:
    """Check a wall decomposition against a graph by a search of each
    wall's complement (:func:`~coarselab.graph_core.components`); raises
    on any defect."""
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
    sides = np.asarray(w.side_assignment)
    if sides.ndim != 2 or len(sides) != len(w.walls):
        raise InvalidInputError("one side assignment required per wall")
    for i, (wall, side) in enumerate(zip(w.walls, sides)):
        if side.size != g.vertex_count or not np.isin(side, (0, 1)).all():
            raise InvalidInputError(f"side assignment {i} is not a two-coloring")
        comp = components(g, wall)
        if comp.max() != 1:
            raise InvalidInputError(f"wall {i} does not split the graph into two components")
        # the two-coloring must be constant on components and split them
        first = side[[0, np.argmax(comp)]]  # the side of each component's smallest vertex
        if np.any(side != first[comp]):
            raise InvalidInputError(f"side assignment {i} cuts across a component")
        if first[0] == first[1]:
            raise InvalidInputError(f"side assignment {i} gives both components the same side")
        edges = np.array(sorted(wall))
        inside = side[g.src[2 * edges]] == side[g.dst[2 * edges]]
        if np.any(inside):
            raise InvalidInputError(f"edge {edges[np.argmax(inside)]} of wall {i} does not cross the wall")


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
    dist = np.zeros((rows.size, g.vertex_count), dtype=np.int64)
    for side in w.side_assignment:
        dist += side[rows, None] != side[None, :]
    return dist


def wall_hilbert_embedding(g: LabeledGraph, w: WallDecomposition, basepoint: int = 0) -> np.ndarray:
    """One coordinate per wall, +-1/2 according to the side relative to
    ``basepoint``; then ||F(x) - F(y)||^2 equals the wall distance
    bit-exactly (half-integers are exact in binary floating point).
    ``basepoint`` is checked as a source of ``distance_matrix``."""
    validate_walls(g, w)
    (basepoint,) = source_rows(g, [basepoint])
    sides = w.side_assignment
    rel = sides != sides[:, basepoint][:, None]
    return np.where(rel, 0.5, -0.5).T.astype(np.float64)
