"""Undirected labeled multigraphs and their basic invariants.

A graph is numpy arrays indexed by dart (half-edge), so that loops,
parallel edges, and edge labelings with orientations are all first
class.  Dart ``2k`` and dart ``2k + 1`` are mutual reverses and together
form edge ``k``.  A dart may carry a label, held as a code; the reverse
dart then carries the formal inverse label (``"a"`` vs ``"a^-1"``).
:func:`build_graph` checks its edges once, in bulk.  Components, and
2-colorings on the double cover, come from one root-hooking primitive
(:func:`component_roots`), and reducedness from one sort of (source,
label) keys (:func:`labels_apart`).

Distances and girth come from one numpy level-synchronous
breadth-first walk over all (source, vertex) pairs at once
(:func:`distance_matrix`, :func:`girth`).  Spectral quantities
are computed with numpy/scipy and then verified against residual
bounds, so a silently wrong eigensolve cannot leak into downstream
certificates; a verified symmetry (a cyclic automorphism group, the
XOR deck action of a homology cover, or else the trivial group) splits
the eigensolve into blocks.  scipy is imported inside the only route
that calls it (the Lanczos route of :func:`adjacency_spectrum`), so
commands that never need it never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)

INVERSE_SUFFIX = "^-1"

#: Largest vertex count for which the full spectrum is computed; for an
#: XOR lift, such as a homology cover, the largest base vertex count.
DENSE_SPECTRUM_CAP = 4096

#: Most block entries solved at once past one block, so that a chunk's
#: eigenvectors stay in cache (an LPS(5, 13) block has 156^2 = 24,336).
BLOCK_CHUNK_ENTRIES = 2**15

#: Largest vertex count for which all 2^n - 1 cuts are enumerated.
CHEEGER_ENUM_CAP = 20

#: Sources per block of distance rows read by ``diameter`` and ``girth``.
DIAMETER_BLOCK = 512


def is_inverse_symbol(label: str) -> bool:
    """Return True if ``label`` is the formal inverse of a base symbol."""
    return label.endswith(INVERSE_SUFFIX) and len(label) > len(INVERSE_SUFFIX)


def base_symbol(label: str) -> str:
    """Strip the inverse marker, if any, from a label."""
    if is_inverse_symbol(label):
        return label[: -len(INVERSE_SUFFIX)]
    return label


def inverse_label(label: Optional[str]) -> Optional[str]:
    """Formal inverse of a label; None stays None."""
    if label is None:
        return None
    if is_inverse_symbol(label):
        return label[: -len(INVERSE_SUFFIX)]
    return label + INVERSE_SUFFIX


def _check_base_symbol(symbol: str) -> None:
    if not isinstance(symbol, str) or not symbol:
        raise InvalidInputError(f"alphabet symbol must be a nonempty string, got {symbol!r}")
    if is_inverse_symbol(symbol):
        raise InvalidInputError(
            f"alphabet symbol {symbol!r} ends in {INVERSE_SUFFIX!r}, which is reserved"
        )


class LabeledGraph:
    """Immutable undirected multigraph with optional dart labels, held as
    numpy arrays indexed by dart.

    Dart ``2k`` runs along edge ``k`` from ``src[2k]`` to ``dst[2k]`` and
    dart ``2k + 1`` back.  ``codes[d]`` is the label of dart d as an index
    into ``symbols``, the sorted alphabet followed by the inverse of each
    symbol in the same order, so codes c and c + |alphabet| (mod
    2|alphabet|) are mutual inverses; -1 marks an unlabeled dart.  ``out``
    lists the darts by source, those of v being ``out[first[v]:first[v + 1]]``
    in increasing order.  ``component_ids`` numbers the components in order
    of their smallest vertex.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, named ``0 .. vertex_count - 1``.
    heads, tails, codes : int64 arrays indexed by edge
        The source, target and label code of every dart ``2k``, over the
        base symbols ``alphabet``.  Nothing here is checked: use
        :func:`build_graph` instead of calling this directly.
    annotations : dict
        Free-form metadata carried through serialization; never part of
        structural identity.
    """

    __slots__ = ("vertex_count", "src", "dst", "out", "first", "component_ids", "is_connected",
                 "alphabet", "symbols", "codes", "annotations")

    def __init__(self, vertex_count: int, heads, tails, codes, alphabet, annotations: Optional[dict] = None):
        if vertex_count < 1:
            raise InvalidInputError("graph needs at least one vertex")
        self.vertex_count = int(vertex_count)
        self.src = np.column_stack((heads, tails)).reshape(-1).astype(np.int64, copy=False)
        self.dst = np.column_stack((tails, heads)).reshape(-1).astype(np.int64, copy=False)
        self.out = np.argsort(self.src, kind="stable")
        self.first = np.searchsorted(self.src[self.out], np.arange(self.vertex_count + 1))
        self.component_ids = components(self)
        self.is_connected = not self.component_ids.any()
        self.alphabet, self.symbols = frozenset(alphabet), _signed(alphabet)
        codes = np.asarray(codes, dtype=np.int64)
        back = np.where(codes < 0, -1, (codes + len(self.alphabet)) % max(len(self.symbols), 1))
        self.codes = np.column_stack((codes, back)).reshape(-1)
        self.annotations = dict(annotations) if annotations else {}

    def relabel(self, codes: np.ndarray, alphabet) -> LabeledGraph:
        """This graph with the label code ``codes[d]`` on every dart d, over
        ``alphabet``, unchecked and without annotations; the dart arrays,
        the out-order and the components are shared, not rebuilt."""
        g = object.__new__(LabeledGraph)
        for name in LabeledGraph.__slots__:
            setattr(g, name, getattr(self, name))
        g.alphabet, g.symbols, g.codes, g.annotations = frozenset(alphabet), _signed(alphabet), codes, {}
        return g

    @property
    def dart_count(self) -> int:
        return self.src.size

    @property
    def edge_count(self) -> int:
        return self.src.size // 2

    def labels(self) -> list[Optional[str]]:
        """The label of every dart, None for an unlabeled one."""
        return list(map((*self.symbols, None).__getitem__, self.codes.tolist()))

    def __repr__(self) -> str:
        parts = self.vertex_count, self.edge_count, int(self.component_ids.max()) + 1
        return "LabeledGraph(vertices=%d, edges=%d, components=%d)" % parts


def _signed(alphabet: Iterable[str]) -> tuple[str, ...]:
    """The sorted alphabet, then the inverse of each symbol in that order."""
    bases = sorted(alphabet)
    return (*bases, *(s + INVERSE_SUFFIX for s in bases))


def build_graph(
    vertex_count: int,
    edges: Iterable[tuple] = (),
    alphabet: Optional[Iterable[str]] = None,
    annotations: Optional[dict] = None,
    *,
    columns: Optional[tuple[Sequence, Sequence, Sequence]] = None,
) -> LabeledGraph:
    """Construct a :class:`LabeledGraph` from edge rows, or from the
    ``columns`` (us, vs, labels) of the same rows.

    Parameters
    ----------
    vertex_count : int
    edges : iterable of (u, v) or (u, v, label)
        ``label`` may be None, a base symbol, or the formal inverse of
        one.  The triple (u, v, label) means the dart from u to v reads
        ``label``; the reverse dart reads the inverse label.
    alphabet : optional iterable of base symbols
        When given, every labeled edge must use it.  When omitted, the
        alphabet is inferred from the labels present.

    The columns are checked in bulk, each distinct label once; only when
    a bulk check fails are the edges walked, to raise the first bad one's
    error.

    Raises
    ------
    InvalidInputError
        On out-of-range endpoints, malformed labels, or labels outside
        a declared alphabet.
    """
    symbols = None if alphabet is None else list(alphabet)
    for s in symbols or ():
        _check_base_symbol(s)
    declared = None if symbols is None else frozenset(symbols)
    if columns is None:
        edges = list(edges)
        if set(map(len, edges)) <= {2, 3}:
            columns = tuple(zip(*((*e, None)[:3] for e in edges))) or ((), (), ())
    us, vs, labels = columns or ((), (), ())
    try:
        named = set(labels) - {None}
        bases = {base_symbol(lab) for lab in named}
        ok = (
            columns is not None
            and set(map(type, us)) | set(map(type, vs)) <= {int}
            and (not us or (min(min(us), min(vs)) >= 0 and max(max(us), max(vs)) < vertex_count))
            and all(isinstance(lab, str) and lab for lab in named)
            and (declared is None or bases <= declared)
        )
        for s in bases:
            _check_base_symbol(s)
    except (TypeError, AttributeError, InvalidInputError):  # a label that is no string, or a bad symbol
        ok = False
    for e in () if ok else edges or zip(us, vs, labels):
        if len(e) not in (2, 3):
            raise InvalidInputError(f"edge {e!r} is not a pair or labeled triple")
        u, v, lab = (*e, None)[:3]
        if type(u) is not int or type(v) is not int:
            raise InvalidInputError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidInputError(f"edge {e!r} endpoint out of range [0, {vertex_count})")
        if lab is not None:
            if not isinstance(lab, str) or not lab:
                raise InvalidInputError(f"edge {e!r} label must be None or a nonempty string")
            _check_base_symbol(base_symbol(lab))
            if declared is not None and base_symbol(lab) not in declared:
                raise InvalidInputError(f"label {lab!r} not in declared alphabet")
    final_alphabet = declared if declared is not None else frozenset(bases)
    code = {lab: c for c, lab in enumerate(_signed(final_alphabet))}
    code[None] = -1
    return LabeledGraph(
        vertex_count,
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.fromiter(map(code.__getitem__, labels), dtype=np.int64, count=len(labels)),
        final_alphabet,
        annotations,
    )


# -- families ------------------------------------------------------------


@dataclass(frozen=True)
class GraphFamily:
    """A finite sequence of connected graphs, ordered as given.

    ``origin_vertices[i][j]`` is the name that vertex ``j`` of component
    ``i`` had in the graph the family was split from, when applicable.
    """

    components: tuple[LabeledGraph, ...]
    origin_vertices: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if not self.components:
            raise InvalidInputError("a graph family needs at least one component")
        for i, g in enumerate(self.components):
            if not g.is_connected:
                raise InvalidInputError(f"family component {i} is not connected")

    def __len__(self) -> int:
        return len(self.components)


def split_components(g: LabeledGraph) -> GraphFamily:
    """Split a graph into its connected components, smallest vertex first."""
    ids = g.component_ids
    sizes = np.bincount(ids)
    cuts = np.cumsum(sizes)[:-1]
    verts = np.argsort(ids, kind="stable")
    local = np.empty(g.vertex_count, dtype=np.int64)
    local[verts] = np.arange(g.vertex_count) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    heads, tails, codes = g.src[0::2], g.dst[0::2], g.codes[0::2]
    of_edge = ids[heads]
    edges = np.split(np.argsort(of_edge, kind="stable"), np.cumsum(np.bincount(of_edge, minlength=sizes.size))[:-1])
    comps = [LabeledGraph(sizes[i], local[heads[k]], local[tails[k]], codes[k], g.alphabet) for i, k in enumerate(edges)]
    return GraphFamily(tuple(comps), tuple(tuple(vs.tolist()) for vs in np.split(verts, cuts)))


# -- traversal -----------------------------------------------------------


def bfs_tree(g: LabeledGraph, *roots: int) -> dict[int, int]:
    """Breadth-first spanning forest of the components of ``roots``, which
    lie in distinct components (one root: its breadth-first tree).

    Maps each reached vertex, in visiting order, to the dart that first
    reached it (-1 for a root).  Darts are scanned in ``out`` order, so
    the tree, and every numbering read off it, is fixed by the dart
    order alone.
    """
    out, first, dst = g.out.tolist(), g.first.tolist(), g.dst.tolist()
    parent = dict.fromkeys(roots, -1)
    order = list(roots)
    for u in order:
        for d in out[first[u] : first[u + 1]]:
            w = dst[d]
            if w not in parent:
                parent[w] = d
                order.append(w)
    return parent


def fundamental_cycles(g: LabeledGraph) -> list[tuple[int, list[int]]]:
    """The non-tree edges of ``bfs_tree(g, 0)`` of a connected ``g``, in
    increasing order, each with the darts of its cycle: the tree path to
    its first end, the edge, and the tree path back from its second end.
    This basis of the cycle space is the one that covers, bridge tests,
    walls and relators read."""
    if not g.is_connected:
        raise DisconnectedGraphError("fundamental cycles need a connected graph")
    parent = bfs_tree(g, 0)
    src = g.src.tolist()

    def path(v: int) -> list[int]:  # the darts from vertex 0 to v
        darts = []
        while parent[v] >= 0:
            darts.append(parent[v])
            v = src[parent[v]]
        return darts[::-1]

    tree = {d >> 1 for d in parent.values() if d >= 0}
    return [
        (k, path(src[2 * k]) + [2 * k] + [d ^ 1 for d in reversed(path(src[2 * k + 1]))])
        for k in range(g.edge_count)
        if k not in tree
    ]


def component_roots(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The smallest node of the component of every node of a graph on
    ``n`` nodes with the given darts.

    Each round hooks the larger of the two roots a dart joins onto the
    smaller, then jumps every pointer to its root.  A node's pointer
    never exceeds the node and stays in its component, so a settled root
    is the component's smallest node; every root that meets another
    hooks or is hooked, so the roots at least halve each round.  The
    pointers are roots at the start of a round, so a dart whose two roots
    already agree hooks nothing and needs no filtering out."""
    root = np.arange(n, dtype=src.dtype)
    while True:
        a, b = root[src], root[dst]
        if np.array_equal(a, b):
            return root
        np.minimum.at(root, a, b)
        np.minimum.at(root, b, a)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def components(g: LabeledGraph, removed: Iterable[int] = ()) -> np.ndarray:
    """Component id of every vertex once the edges in ``removed`` are
    deleted; components are numbered in order of their smallest vertex."""
    darts = np.repeat(~np.isin(np.arange(g.edge_count), list(removed)), 2)
    root = component_roots(g.src[darts], g.dst[darts], g.vertex_count)
    # the roots are the smallest vertices of their components
    return (np.cumsum(root == np.arange(g.vertex_count)) - 1)[root]


def labels_apart(src: np.ndarray, codes: np.ndarray, width: int) -> np.ndarray:
    """Whether each row of dart label ``codes``, each in [0, ``width``),
    gives the out-darts of every vertex of ``src`` distinct codes: equal
    codes at one vertex are equal keys source * width + code, so a row
    passes when its sorted keys hold no equal neighbours."""
    keys = src * width + codes
    keys.sort(axis=-1)
    return ~np.any(keys[..., 1:] == keys[..., :-1], axis=-1)


def label_clash(g: LabeledGraph) -> Optional[tuple[int, int]]:
    """The first dart, in ``out`` order, that is unlabeled or repeats the
    label of an earlier out-dart of its vertex, with that earlier dart (-1
    for an unlabeled one); None when the labeling is reduced: every dart
    is labeled and the out-darts of each vertex carry distinct labels."""
    if g.codes.min(initial=0) >= 0 and labels_apart(g.src, g.codes, len(g.symbols)):
        return None
    codes = g.codes[g.out]
    # the position in out-order of the first dart with the same source and label
    _, firsts, key = np.unique(g.src[g.out] * (len(g.symbols) + 1) + codes, return_index=True, return_inverse=True)
    earlier = firsts[key]
    p = np.flatnonzero((earlier != np.arange(codes.size)) | (codes < 0))[0]
    return -1 if codes[p] < 0 else int(g.out[earlier[p]]), int(g.out[p])


# -- distances -----------------------------------------------------------


@dataclass(frozen=True)
class XorLift:
    """A graph read as the 2^r-fold lift of a base graph whose deck group
    (Z/2)^r acts by (v, x) -> (v, x XOR t), vertex (v, x) numbered
    v * 2^r + x: base edge k runs from ``base_src[k]`` to ``base_dst[k]``
    and lifts with the flip ``flips[k]``."""

    deck_rank: int
    base_vertices: int
    base_src: np.ndarray
    base_dst: np.ndarray
    flips: np.ndarray

    def fiber_heads(self) -> np.ndarray:
        """The vertices (v, 0), one per base vertex."""
        return np.arange(self.base_vertices) << self.deck_rank


def xor_lift(g: LabeledGraph, deck_rank: int) -> Optional[XorLift]:
    """``g`` as an XOR lift of rank ``deck_rank``, or None when it is not
    one.

    Checked in O(E) numpy from the darts alone: with fiber = 2^r, cover
    edge k * fiber + x must run from u_k * fiber + x to
    v_k * fiber + (x XOR f_k), one flip f_k per edge fiber, the base ends
    u_k, v_k and flip f_k read off the lift x = 0.  Every XOR map is then
    an automorphism of ``g`` that fixes every edge fiber.
    """
    r = deck_rank
    if type(r) is not int or not 0 <= r < g.vertex_count.bit_length():
        return None
    fiber = 1 << r
    if g.vertex_count % fiber or g.edge_count % fiber:
        return None
    return _xor_lift_of(g.src, g.dst, g.vertex_count, r)


def _xor_lift_of(src: np.ndarray, dst: np.ndarray, n: int, r: int) -> Optional[XorLift]:
    """:func:`xor_lift` at rank r over the darts ``src`` -> ``dst`` of a
    graph on n vertices, 2^r dividing n and the edge count."""
    fiber = 1 << r
    first_src, first_dst = src[0 :: 2 * fiber], dst[0 :: 2 * fiber]
    if np.any(first_src & (fiber - 1)):
        return None
    u, v, flip = first_src >> r, first_dst >> r, first_dst & (fiber - 1)
    lift = np.arange(src.size >> 1)
    k, x = lift >> r, lift & (fiber - 1)
    if not (
        np.array_equal(src[0::2], (u[k] << r) | x)
        and np.array_equal(dst[0::2], (v[k] << r) | (x ^ flip[k]))
    ):
        return None
    return XorLift(r, n >> r, u, v, flip)


def xor_deck(g: LabeledGraph) -> Optional[XorLift]:
    """``g`` as the XOR lift (:func:`xor_lift`) of largest rank r >= 1,
    or None when no rank passes; read off the darts, never the
    annotations.

    Lifts nest: moving the top fiber bit of x into the base vertex reads
    a rank-r lift as a rank-(r - 1) lift over a base twice as large, so
    the ranks that pass are 0 .. R.  They are tried from the largest r
    with 2^r dividing both the vertex and the edge count down.
    """
    n = g.vertex_count
    common = math.gcd(n, g.edge_count)
    top = (common & -common).bit_length() - 1
    if top < 1:
        return None
    for r in range(top, 0, -1):
        lift = _xor_lift_of(g.src, g.dst, n, r)
        if lift is not None:
            return lift
    return None


def xor_deck_gather(head_rows: np.ndarray, deck_rank: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entries (u, v) of a matrix invariant under the XOR deck action of
    rank ``deck_rank``, read from its rows at the fiber heads (row b
    belongs to vertex (b, 0)): entry ((a, x), w) is row a at w XOR x."""
    return head_rows[u >> deck_rank, v ^ (u & ((1 << deck_rank) - 1))]


def two_coloring(g: LabeledGraph) -> Optional[np.ndarray]:
    """A proper 2-coloring (0/1 per vertex), or None when the graph is
    not bipartite, read off the components of the bipartite double cover:
    node 2v + s is vertex v on side s, and dart u -> v joins (u, s) to
    (v, 1 - s).  The graph is bipartite when no vertex has both its nodes
    in one component.  Then the smallest vertex h of a component owns the
    smallest node 2h of the component of (h, 0), so v gets the parity of
    its distance from h, h colored 0."""
    src, dst = 2 * g.src, 2 * g.dst
    root = component_roots(
        np.concatenate([src, src + 1]), np.concatenate([dst + 1, dst]), 2 * g.vertex_count
    )
    if np.any(root[0::2] == root[1::2]):
        return None
    return (root[0::2] & 1).astype(np.int8)


def _adjacency_csr(g: LabeledGraph) -> scipy.sparse.csr_matrix:
    import scipy.sparse

    n = g.vertex_count
    data = np.ones(g.dart_count, dtype=np.float64)
    # each undirected edge appears as both darts; summing duplicates keeps
    # multiplicities, and a loop contributes 2 on the diagonal
    mat = scipy.sparse.coo_matrix((data, (g.src, g.dst)), shape=(n, n))
    return mat.tocsr()


def _stamp_dtype(stamps: int) -> np.dtype:
    """int32, or int64 when the stamps -1 .. -``stamps`` do not fit it."""
    return np.promote_types(np.int32, np.min_scalar_type(-stamps))


def source_rows(g: LabeledGraph, sources: Optional[Sequence[int]] = None) -> np.ndarray:
    """``sources`` as an int64 vector (default: every vertex, in order),
    for functions that return one row per source.

    Raises
    ------
    InvalidInputError
        If a source is not a vertex: negative, too large, or not an
        integer (a float or a bool, even among integers, is refused).
    """
    n = g.vertex_count
    rows = np.arange(n) if sources is None else np.asarray(sources)
    # numpy casts a bool among integers to an integer, so look at the elements
    if rows.ndim != 1 or (
        rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n)
    ) or (
        not isinstance(sources, (np.ndarray, type(None)))
        and any(isinstance(s, (bool, np.bool_)) for s in sources)
    ):
        raise InvalidInputError(f"distance sources must be vertices in [0, {n})")
    return rows.astype(np.int64, copy=False)


def _level_walk(g: LabeledGraph, rows: np.ndarray, dist: np.ndarray):
    """Fill ``dist`` (rows.size * n cells, all -1) with the distance of
    each (row, vertex) cell, coded row * n + vertex, from the vertex
    ``rows[row]``, one breadth-first level at a time; unreached cells
    stay -1.

    After level k it yields k, the entries that the cells reached by the
    frontier's darts held before the level (k - 1, k - 2, or -1 for a new
    cell), and by how many the darts that reached new cells outnumber
    those cells.  The dart targets are sorted by source once, so
    the darts of v are one run; a level expands each frontier pair
    (row, v) into the run of v, and its work is the frontier's degree
    sum, whatever the largest degree.  A level's candidates are
    deduplicated without sorting: each writes its own negative stamp into
    its cell, and the ones whose stamp survived are the distinct new
    pairs.
    """
    n = g.vertex_count
    dst = g.dst[g.out]
    degree = np.diff(g.first)
    first = g.first[:-1]
    frontier = np.arange(rows.size, dtype=np.int64) * n + rows
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        v = frontier % n
        d = degree[v]
        ends = np.cumsum(d)
        darts = np.repeat(first[v] - ends + d, d)
        darts += np.arange(darts.size)
        cand = np.repeat(frontier - v, d)
        cand += dst[darts]
        earlier = np.take(dist, cand)
        cand = cand.compress(earlier < 0)
        stamps = -1 - np.arange(cand.size, dtype=dist.dtype)
        dist[cand] = stamps
        frontier = cand.compress(np.take(dist, cand) == stamps)
        dist[frontier] = level
        yield level, earlier, cand.size - frontier.size


def _walk_cells(g: LabeledGraph, rows: np.ndarray) -> np.ndarray:
    """The -1-filled cells of :func:`_level_walk` from ``rows``.  A row
    meets each vertex at most once as a frontier pair, so a level holds
    at most rows * dart_count stamps."""
    return np.full(rows.size * g.vertex_count, -1, dtype=_stamp_dtype(rows.size * g.dart_count))


def distance_matrix(g: LabeledGraph, sources: Optional[Sequence[int]] = None) -> np.ndarray:
    """Unweighted distances from each of ``sources`` (default: every
    vertex, in order) to every vertex, as float64; ``inf`` between
    components.

    One level-synchronous breadth-first walk (:func:`_level_walk`) runs
    over all (row, vertex) pairs at once, to its last level.

    Raises
    ------
    InvalidInputError
        If a source is not a vertex (negative indices included), before
        any distance is computed.
    """
    rows = source_rows(g, sources)
    dist = _walk_cells(g, rows)
    for _ in _level_walk(g, rows, dist):
        pass
    out = dist.reshape(rows.size, g.vertex_count).astype(np.float64)
    out[out < 0] = math.inf
    return out


def diameter(g: LabeledGraph, sources: Optional[Sequence[int]] = None) -> int:
    """Largest distance from a vertex of ``sources`` (default: every
    vertex, which gives the diameter); requires a connected graph.

    On a vertex-transitive graph one source already gives the diameter.
    Distance rows are read ``DIAMETER_BLOCK`` sources at a time, so no
    more than that many rows are held at once.  A source that is not a
    vertex raises :class:`InvalidInputError`, as in :func:`distance_matrix`.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("diameter requires a connected graph")
    rows = source_rows(g, sources)
    worst = 0
    for k in range(0, rows.size, DIAMETER_BLOCK):
        worst = max(worst, int(distance_matrix(g, rows[k : k + DIAMETER_BLOCK]).max()))
    return worst


def girth(g: LabeledGraph, sources: Optional[Sequence[int]] = None):
    """Length of a shortest cycle; ``math.inf`` for forests.

    Loops count as 1-cycles and a parallel pair as a 2-cycle.  Otherwise
    the level walk of :func:`distance_matrix` runs from ``sources``
    (default: every vertex), ``DIAMETER_BLOCK`` of them at a time, so a
    block holds that many rows of n cells.  With the frontier at level
    k - 1, a dart that reaches a cell of level k - 1 closes a cycle of
    length at most 2k - 1, and a new cell reached by two darts one of
    length at most 2k (Itai and Rodeh 1978); a block stops at the first
    level that can no longer close a shorter cycle.  A walk from a
    vertex of a shortest cycle finds that cycle, so on a vertex-transitive
    graph one source is exact; in general a subset of sources gives an
    upper bound.  A source that is not a vertex raises
    :class:`InvalidInputError`, as in :func:`distance_matrix`.
    """
    rows = source_rows(g, sources)
    u, v = g.src[0::2], g.dst[0::2]
    if np.any(u == v):
        return 1
    keys = np.sort(np.minimum(u, v) * g.vertex_count + np.maximum(u, v))
    if np.any(keys[1:] == keys[:-1]):
        return 2
    best = math.inf
    for k in range(0, rows.size, DIAMETER_BLOCK):
        block = rows[k : k + DIAMETER_BLOCK]
        for level, earlier, twice in _level_walk(g, block, _walk_cells(g, block)):
            if np.any(earlier == level - 1):
                best = min(best, 2 * level - 1)
            elif twice:
                best = min(best, 2 * level)
            if 2 * level + 1 >= best:
                break
    return best


# -- isoperimetry --------------------------------------------------------


@dataclass(frozen=True)
class CheegerResult:
    """Exact edge-isoperimetric constant with an optimal witness cut."""

    value: Fraction
    witness: tuple[int, ...]
    boundary_edges: int


def boundary_size(g: LabeledGraph, subset: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``subset``."""
    inside = np.zeros(g.vertex_count, dtype=bool)
    for v in set(subset):
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError("subset vertex out of range")
        inside[v] = True
    return int(np.count_nonzero(inside[g.src[0::2]] != inside[g.dst[0::2]]))


def cheeger_exact(g: LabeledGraph, cap: int = CHEEGER_ENUM_CAP) -> CheegerResult:
    """Exact Cheeger constant min |boundary(A)| / |A| over |A| <= n/2.

    Enumerates all nonempty subsets with a vectorized bit sweep, so the
    graph must have at most ``cap`` vertices (default 20).  Ties are
    broken toward the lexicographically smallest sorted vertex tuple.

    Raises
    ------
    InvalidInputError
        If ``cap`` is negative.
    CapExceededError
        If ``vertex_count > cap``.
    DisconnectedGraphError
        Disconnected graphs have h = 0 with any union of components as
        witness; that degenerate case is rejected instead.
    """
    if cap < 0:
        raise InvalidInputError(f"the vertex cap must be nonnegative, got {cap}")
    n = g.vertex_count
    if n > cap:
        raise CapExceededError(f"cheeger_exact enumerates 2^n cuts; n={n} exceeds cap={cap}")
    if not g.is_connected:
        raise DisconnectedGraphError("cheeger constant of a disconnected graph is 0")
    if n == 1:
        raise InvalidInputError("cheeger constant needs at least two vertices")
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(masks).astype(np.int64)
    boundary = np.zeros(masks.shape, dtype=np.int64)
    for u, v in zip(g.src[0::2].tolist(), g.dst[0::2].tolist()):
        if u != v:
            boundary += ((masks >> np.uint32(u)) ^ (masks >> np.uint32(v))) & 1
    valid = sizes <= n // 2
    ratios = np.where(valid, boundary / sizes, np.inf)
    best = ratios.min()
    candidates = np.flatnonzero(ratios == best)
    witness_sets = []
    for m in candidates:
        mask = int(masks[m])
        witness_sets.append(tuple(v for v in range(n) if (mask >> v) & 1))
    witness = min(witness_sets)
    bedges = boundary_size(g, witness)
    value = Fraction(bedges, len(witness))
    # independent recount of the witness must reproduce the sweep's ratio
    if not math.isclose(float(value), float(best), rel_tol=0, abs_tol=1e-12):
        raise VerificationError("cheeger witness recount disagrees with sweep minimum")
    return CheegerResult(value=value, witness=witness, boundary_edges=bedges)


# -- spectra -------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalues in descending order, with multiplicity, and residual
    bookkeeping.

    ``complete`` is False when only the extreme eigenvalues were
    computed (iterative route for large graphs): their eigenpairs are
    residual-checked, but nothing proves they are the true extremes.
    """

    eigenvalues: tuple[float, ...]
    complete: bool
    residual: float


def _verify_eigenpairs(av: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray, tol: float = 1e-8) -> float:
    """Residual max_i ||A v_i - lambda_i v_i|| / ||v_i||, given the
    products ``av`` = A V from a sparse operator, or a stack of them from
    the blocks of :func:`_block_eigenpairs`."""
    resid = av - eigvecs * eigvals[..., np.newaxis, :]
    norms = np.linalg.norm(resid, axis=-2) / np.maximum(np.linalg.norm(eigvecs, axis=-2), 1e-300)
    worst = float(norms.max()) if norms.size else 0.0
    if worst > tol:
        raise VerificationError(f"eigenpair residual {worst:.3e} exceeds {tol:.1e}")
    return worst


def _cyclic_symmetry(g: LabeledGraph) -> Optional[np.ndarray]:
    """The powers h^0 .. h^(m-1), as an (m, n) array, of an automorphism
    h of ``g`` whose cycles all have one length m >= 2; None when the
    labels do not give one.

    The labels must give every vertex exactly one out-dart per signed
    label, as on a Cayley graph of generators that are not involutions.
    Then each target t names the label-preserving map h_t with 0 -> t,
    read along ``bfs_tree(g, 0)``: h_t(x) follows the tree path of x
    from t.  The smallest t of largest order is taken, and used only if
    it is a permutation, maps the darts onto the darts (compared as
    sorted codes src * n + dst, so multiplicities and loops count) and
    has all cycles of length m.
    """
    n = g.vertex_count
    if not g.dart_count or g.codes.min() < 0:
        return None
    used, lab = np.unique(g.codes, return_inverse=True)
    if g.dart_count != n * used.size:
        return None
    src, dst = g.src, g.dst
    step = np.full((used.size, n), -1, dtype=np.int32)
    step[lab, src] = dst
    tree = bfs_tree(g, 0)
    if step.min() < 0 or len(tree) < n:
        return None
    # images[x, t] = h_t(x), one gather per entry along the tree
    images = np.empty((n, n), dtype=np.int32)
    for x, d in tree.items():
        images[x] = np.arange(n) if d < 0 else step[lab[d], images[src[d]]]
    # the order of h_t is the length of the orbit of 0, for all t at once
    order = np.zeros(n, dtype=np.int64)
    cand, pos = np.arange(n), images[0].astype(np.intp)
    for k in range(1, n + 1):
        back = pos == 0
        order[cand[back]] = k
        cand, pos = cand[~back], pos[~back]
        if not cand.size:
            break
        pos = images[pos, cand]
    m = int(order.max())
    h = images[:, int(np.argmax(order == m))].astype(np.intp)
    del images
    ident = np.arange(n)
    if m < 2 or not np.array_equal(np.sort(h), ident):
        return None
    if not np.array_equal(np.sort(h[src] * n + h[dst]), np.sort(src * n + dst)):
        return None
    powers = np.empty((m + 1, n), dtype=np.int32)
    powers[0] = ident
    for k in range(m):
        powers[k + 1] = h[powers[k]]
    if np.any(powers[1:m] == ident) or not np.array_equal(powers[m], ident):
        return None
    return powers[:m]


def _block_eigenpairs(
    g: LabeledGraph, orbit: np.ndarray, place: np.ndarray, character, twice: np.ndarray, dense_cap: int
) -> tuple[np.ndarray, float]:
    """All adjacency eigenvalues, descending, from one block per
    character of a free abelian action, with the worst residual.

    Vertex x is ``place[x]`` steps along orbit ``orbit[x]``; block c adds
    ``character(c, place[y])`` at entry (orbit[y], orbit[x]) for every
    dart x -> y with ``place[x] == 0``, and its eigenvalues are listed
    twice where ``twice[c]`` is set.  Chunks of blocks hold at most
    ``dense_cap^2`` entries, as one dense solve at the cap does.  Each
    eigenpair is residual-checked on its block, B u summed from the
    darts in dart order one term rank at a time, never through BLAS, so
    no thread count moves it.
    """
    b = int(orbit.max()) + 1
    heads = place[g.src] == 0
    rows, cols, ks = orbit[g.dst[heads]], orbit[g.src[heads]], place[g.dst[heads]]
    # rows by term count, descending, so the rows with a t-th term are a
    # prefix; terms[start[i] + t] is the t-th dart of the i-th such row
    deg = np.bincount(rows, minlength=b)
    by_deg = np.argsort(-deg, kind="stable")
    pos = np.argsort(by_deg)
    terms = np.argsort(pos[rows], kind="stable")
    count = deg[by_deg]
    start = np.cumsum(count) - count
    step = max(1, min(dense_cap * dense_cap, BLOCK_CHUNK_ENTRIES) // (b * b))
    vals, worst = [], 0.0
    for lo in range(0, twice.size, step):
        chars = np.arange(lo, min(lo + step, twice.size))[:, np.newaxis]
        w = character(chars, ks)
        blocks = np.zeros((chars.size, b, b), dtype=w.dtype)
        np.add.at(blocks, (chars - lo, rows, cols), w)
        val, vecs = np.linalg.eigh(blocks)
        del blocks
        # the t-th terms go through one reused buffer, freed before the
        # check; mode="clip" lets take write into it (every index is in range)
        bu, buf = np.zeros_like(vecs), np.empty_like(vecs)
        for t in range(int(count[0])):
            darts = terms[start[count > t] + t]
            k = darts.size
            np.take(vecs, cols[darts], axis=1, out=buf[:, :k], mode="clip")
            bu[:, :k] += np.multiply(w[:, darts, np.newaxis], buf[:, :k], out=buf[:, :k])
        del buf
        bu = bu[:, pos]
        worst = max(worst, _verify_eigenpairs(bu, val, vecs))
        vals += [val.reshape(-1), val[twice[chars[:, 0]]].reshape(-1)]
    return np.sort(np.concatenate(vals))[::-1], worst


def _xor_orbits(g: LabeledGraph, dense_cap: int):
    """The deck orbits of an XOR lift, such as a homology cover; None
    when :func:`xor_deck` finds none or its base exceeds ``dense_cap``.

    Vertex (u, x) = u * 2^r + x is x along orbit u, and block c is the
    signed base block A_c[u, v] = sum over base darts u -> v of
    (-1)^popcount(c & f) (the r-fold form of Bilu-Linial 2-lifts).  The
    lift check proves A L_c = L_c A_c exactly for the isometry
    L_c w[(u, x)] = (-1)^popcount(c & x) w[u] / sqrt(2^r), whose ranges
    are orthogonal and span the space, so each block residual is the
    residual of its lifts.
    """
    lift = xor_deck(g)
    if lift is None or lift.base_vertices > dense_cap:
        return None
    r = lift.deck_rank
    v = np.arange(g.vertex_count)
    return (v >> r, v & ((1 << r) - 1), lambda c, x: 1.0 - 2.0 * (np.bitwise_count(c & x) & 1),
            np.zeros(1 << r, dtype=bool))


def _cyclic_orbits(g: LabeledGraph):
    """The orbits of the cyclic group of :func:`_cyclic_symmetry`; None
    when there is none.

    With r_j the smallest vertex of cycle j, x = h^k(r_j) is k along
    orbit j, and block c reads w^(ck), w = exp(2 pi i / m).  The isometry
    L_c u[x] = w^(-ck) u[j] / sqrt(m) satisfies A L_c = L_c B_c exactly,
    since h is a checked automorphism with all cycles of length m, and
    each row of B_c has d terms, d the degree.  So the block residual is
    that of the lift L_c u up to ||dB_c||_2 <= d (d + 45) / 2 * 2^-53, the
    rounding of the roots (each within 22 * 2^-53) and of the d-term sums.
    Block m - c is the conjugate of block c, so only c = 0 .. floor(m/2)
    are solved, and those with 0 < c < m/2 are listed twice.
    """
    powers = _cyclic_symmetry(g)
    if powers is None:
        return None
    m, n = powers.shape
    rep = powers.min(axis=0)
    heads = np.flatnonzero(rep == np.arange(n))
    K = np.empty(n, dtype=np.int64)
    K[powers[:, heads]] = np.arange(m)[:, np.newaxis]
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    solved = np.arange(m // 2 + 1)
    twice = (0 < solved) & (2 * solved < m)
    return np.searchsorted(heads, rep), K, lambda c, k: roots[c * k % m], twice


def _trivial_orbits(n: int):
    """Every vertex its own orbit: one block, the adjacency matrix."""
    return (np.arange(n), np.zeros(n, dtype=np.int64), lambda c, k: np.ones((c.size, k.size)),
            np.zeros(1, dtype=bool))


def _extreme_eigs(mat: scipy.sparse.csr_matrix, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    import scipy.sparse.linalg

    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    top_vals, top_vecs = scipy.sparse.linalg.eigsh(mat, k=k, which="LA", v0=v0)
    bot_vals, bot_vecs = scipy.sparse.linalg.eigsh(mat, k=k, which="SA", v0=v0)
    worst = max(
        _verify_eigenpairs(mat @ top_vecs, top_vals, top_vecs),
        _verify_eigenpairs(mat @ bot_vecs, bot_vals, bot_vecs),
    )
    return top_vals, bot_vals, worst


def adjacency_spectrum(
    g: LabeledGraph,
    dense_cap: int = DENSE_SPECTRUM_CAP,
    extremes: int = 6,
    seed: int = 0,
) -> SpectrumSummary:
    """Adjacency eigenvalues, descending, with multiplicity.

    The whole spectrum comes from one block solve
    (:func:`_block_eigenpairs`) over the orbits of, in order: the deck
    group of an XOR lift, such as a homology cover or an iterated one, on
    at most ``dense_cap`` base vertices, whatever its own size (read off
    the darts, never the annotations); else, up to ``dense_cap``
    vertices, the cyclic automorphism group the labels give, or the
    trivial group.  Above the cap only the ``extremes`` largest and
    smallest eigenvalues (at most half the vertices each, so the two never
    overlap) are computed with a Lanczos iteration seeded
    deterministically.  Only the Lanczos route loads scipy.
    """
    n = g.vertex_count
    orbits = _xor_orbits(g, dense_cap)
    if orbits is None and n <= dense_cap:
        orbits = _cyclic_orbits(g) or _trivial_orbits(n)
    if orbits is not None:
        vals, worst = _block_eigenpairs(g, *orbits, dense_cap)
    else:
        top, bot, worst = _extreme_eigs(_adjacency_csr(g), min(extremes, n // 2), seed)
        vals = np.sort(np.concatenate([top, bot]))[::-1]
    # adding +0.0 turns any -0.0 an eigensolver returns into 0.0
    return SpectrumSummary(
        eigenvalues=tuple(float(x) for x in vals + 0.0), complete=orbits is not None, residual=worst
    )
