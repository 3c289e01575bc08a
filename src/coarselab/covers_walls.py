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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)
from .graph_core import LabeledGraph, bfs_tree, build_graph, components, propagate

#: Iterated covers refuse to build more vertices than this by default.
COVER_VERTEX_CAP = 1 << 20

#: Deck-group verification enumerates the whole fiber; cap its size.
DECK_ENUM_CAP = 4096


def is_two_connected(g: LabeledGraph) -> bool:
    """True iff the connected graph ``g`` has no bridge.

    A loop is never a bridge; one edge of a parallel pair is not a
    bridge either, so the theta graph passes.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("two-connectivity is defined for connected graphs")
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    timer = 0
    # iterative lowlink search; the entry dart (not the whole edge) is
    # skipped so parallel edges still provide a second route
    for root in range(n):
        if disc[root] >= 0:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, entry, i = stack.pop()
            darts = g.out_darts(u)
            advanced = False
            while i < len(darts):
                d = darts[i]
                i += 1
                if entry >= 0 and d == LabeledGraph.dart_reverse(entry):
                    continue
                w = g.dart_target(d)
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((u, entry, i))
                    stack.append((w, d, 0))
                    advanced = True
                    break
                low[u] = min(low[u], disc[w])
            if not advanced and stack:
                pu, pentry, _ = stack[-1]
                low[pu] = min(low[pu], low[u])
                if low[u] > disc[pu]:
                    return False
    return True


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

    def fiber(self, base_vertex: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.cover.vertex_count) if self.vertex_map[v] == base_vertex)

    def edge_fiber(self, base_edge: int) -> tuple[int, ...]:
        return tuple(
            k for k in range(self.cover.edge_count) if self.dart_map[2 * k] // 2 == base_edge
        )


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


@dataclass(frozen=True)
class CoverVerification:
    deck_order: int
    elementary_abelian: bool
    deck_maps: tuple[tuple[int, ...], ...]


def verify_covering(cm: CoveringMap, deck_cap: int = DECK_ENUM_CAP) -> CoverVerification:
    """Check the covering axioms and reconstruct the full deck group.

    Verifies: dart/vertex maps commute with incidence and reversal,
    labels are preserved, the map is a local isomorphism on every
    vertex star, all fibers have size 2^deck_rank, and path lifting
    from every point of one fiber yields a well-defined label-preserving
    automorphism; the resulting maps must form a group acting freely
    and transitively on every fiber.  For a single homology step the
    group must in addition be elementary abelian (every deck map an
    involution) and consist of coordinate translations.

    Raises
    ------
    VerificationError
        Any failed axiom.
    CapExceededError
        Fiber larger than ``deck_cap``.
    """
    base, cover = cm.base, cm.cover
    if len(cm.vertex_map) != cover.vertex_count or len(cm.dart_map) != cover.dart_count:
        raise VerificationError("map arrays have wrong length")
    for d in range(cover.dart_count):
        bd = cm.dart_map[d]
        if cm.dart_map[LabeledGraph.dart_reverse(d)] != LabeledGraph.dart_reverse(bd):
            raise VerificationError(f"dart_map breaks the reversal involution at dart {d}")
        if cm.vertex_map[cover.dart_source(d)] != base.dart_source(bd):
            raise VerificationError(f"dart_map and vertex_map disagree at dart {d}")
        if cover.dart_label(d) != base.dart_label(bd):
            raise VerificationError(f"label not preserved at dart {d}")
    for u in range(cover.vertex_count):
        image_star = sorted(cm.dart_map[d] for d in cover.out_darts(u))
        if image_star != sorted(base.out_darts(cm.vertex_map[u])):
            raise VerificationError(f"not a local isomorphism at cover vertex {u}")

    expected_fiber = 1 << cm.deck_rank
    if expected_fiber > deck_cap:
        raise CapExceededError(f"deck group of size {expected_fiber} exceeds cap {deck_cap}")
    fibers: dict[int, list[int]] = {v: [] for v in range(base.vertex_count)}
    for v in range(cover.vertex_count):
        fibers[cm.vertex_map[v]].append(v)
    for v, fib in fibers.items():
        if len(fib) != expected_fiber:
            raise VerificationError(f"fiber over {v} has size {len(fib)}, expected {expected_fiber}")

    # the end of the unique dart over a given base dart at a given cover vertex
    star_index: list[dict[int, int]] = []
    for u in range(cover.vertex_count):
        star_index.append({cm.dart_map[d]: cover.dart_target(d) for d in cover.out_darts(u)})

    def lift_map(b0: int, t: int) -> tuple[int, ...]:
        img = propagate(cover, b0, t, lambda d, x: star_index[x].get(cm.dart_map[d]))
        if img is None:
            raise VerificationError("path lifting failed; covering not regular")
        if len(img) != cover.vertex_count:
            raise VerificationError("deck lift did not reach the whole cover")
        return tuple(img[v] for v in range(cover.vertex_count))

    base_fiber = fibers[0]
    b0 = min(base_fiber)
    maps = [lift_map(b0, t) for t in sorted(base_fiber)]
    seen = set(maps)
    if len(seen) != len(maps):
        raise VerificationError("two deck maps coincide; action not free on the fiber")
    identity = tuple(range(cover.vertex_count))
    for m in maps:
        if m != identity and any(m[v] == v for v in range(cover.vertex_count)):
            raise VerificationError("a nontrivial deck map has a fixed point")
        if tuple(sorted(m)) != identity:
            raise VerificationError("a deck map is not a bijection")
    for m1 in maps:
        for m2 in maps:
            if tuple(m1[x] for x in m2) not in seen:
                raise VerificationError("deck maps are not closed under composition")
    for fib in fibers.values():
        anchor = fib[0]
        if sorted(m[anchor] for m in maps) != sorted(fib):
            raise VerificationError("deck action is not transitive on some fiber")

    elementary = all(tuple(m[x] for x in m) == identity for m in maps)
    if cm.single_step:
        if not elementary:
            raise VerificationError("single-step deck group must have exponent 2")
        for m in maps:
            t = m[b0] ^ b0
            if t >= expected_fiber or any(m[v] != v ^ t for v in range(cover.vertex_count)):
                raise VerificationError("single-step deck map is not a coordinate translation")
    return CoverVerification(
        deck_order=len(maps),
        elementary_abelian=elementary,
        deck_maps=tuple(maps),
    )


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
    pieces.
    """
    if not is_two_connected(cm.base):
        raise InvalidInputError("wall construction requires a bridgeless base graph")
    cover = cm.cover
    grouped: dict[int, set[int]] = {k: set() for k in range(cm.base.edge_count)}
    for big_k in range(cover.edge_count):
        grouped[cm.dart_map[2 * big_k] // 2].add(big_k)
    walls = tuple(frozenset(grouped[k]) for k in range(cm.base.edge_count))
    sides = tuple(_two_side_split(cover, wall) for wall in walls)
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


def wall_pseudometric(g: LabeledGraph, w: WallDecomposition) -> np.ndarray:
    """Matrix of wall distances: the number of walls separating x from y."""
    validate_walls(g, w)
    sides = w.side_matrix()
    n = g.vertex_count
    dist = np.zeros((n, n), dtype=np.int64)
    for row in sides:
        dist += row[:, None] != row[None, :]
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


def label_automorphism(g: LabeledGraph, src: int, dst: int) -> Optional[tuple[int, ...]]:
    """The unique label-respecting automorphism sending src to dst, if any.

    Requires a deterministic labeling: at every vertex the outgoing
    dart labels are pairwise distinct and not None.  Returns None when
    the partial map cannot be extended to an automorphism.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("automorphism propagation needs a connected graph")
    star: list[dict[str, int]] = []
    for u in range(g.vertex_count):
        table = {}
        for d in g.out_darts(u):
            lab = g.dart_label(d)
            if lab is None or lab in table:
                raise InvalidInputError("graph is not deterministically labeled")
            table[lab] = g.dart_target(d)
        star.append(table)
    img = propagate(g, src, dst, lambda d, x: star[x].get(g.dart_label(d)))
    if img is None or sorted(img.values()) != list(range(g.vertex_count)):
        return None
    return tuple(img[v] for v in range(g.vertex_count))
