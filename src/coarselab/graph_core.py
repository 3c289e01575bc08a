"""Undirected labeled multigraphs and their basic invariants.

Graphs are stored as dart (half-edge) pairs so that loops, parallel
edges, and edge labelings with orientations are all first class.  Dart
``2k`` and dart ``2k + 1`` are mutual reverses and together form edge
``k``.  A dart may carry a label; the reverse dart then carries the
formal inverse label (``"a"`` vs ``"a^-1"``).

Spectral quantities are computed with numpy/scipy and then verified
against residual bounds, so a silently wrong eigensolve cannot leak
into downstream certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)

INVERSE_SUFFIX = "^-1"

#: Largest vertex count for which full dense eigensolves are attempted.
DENSE_SPECTRUM_CAP = 4096

#: Largest vertex count for which all 2^n - 1 cuts are enumerated.
CHEEGER_ENUM_CAP = 20


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
    """Immutable undirected multigraph with optional dart labels.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, named ``0 .. vertex_count - 1``.
    darts : sequence of (source, target, label) triples
        Must have even length with darts ``2k`` and ``2k + 1`` mutually
        reverse and carrying mutually inverse labels.  Use
        :func:`build_graph` instead of calling this directly.
    alphabet : frozenset of base symbols
    annotations : dict
        Free-form metadata carried through serialization; never part of
        structural identity.
    """

    __slots__ = (
        "vertex_count",
        "_src",
        "_dst",
        "_lab",
        "_out",
        "alphabet",
        "annotations",
        "_component_ids",
        "_component_count",
    )

    def __init__(
        self,
        vertex_count: int,
        darts: Sequence[tuple[int, int, Optional[str]]],
        alphabet: frozenset[str],
        annotations: Optional[dict] = None,
    ):
        if vertex_count < 1:
            raise InvalidInputError("graph needs at least one vertex")
        if len(darts) % 2 != 0:
            raise InvalidInputError("darts must come in reverse pairs")
        self.vertex_count = int(vertex_count)
        self._src = tuple(d[0] for d in darts)
        self._dst = tuple(d[1] for d in darts)
        self._lab = tuple(d[2] for d in darts)
        self.alphabet = frozenset(alphabet)
        self.annotations = dict(annotations) if annotations else {}
        for d in range(0, len(darts), 2):
            u, v, lab = darts[d]
            ru, rv, rlab = darts[d + 1]
            if (ru, rv) != (v, u) or rlab != inverse_label(lab):
                raise InvalidInputError(f"darts {d} and {d + 1} are not mutual reverses")
        out: list[list[int]] = [[] for _ in range(vertex_count)]
        for d, u in enumerate(self._src):
            if not (0 <= u < vertex_count) or not (0 <= self._dst[d] < vertex_count):
                raise InvalidInputError(f"dart {d} endpoint out of range")
            out[u].append(d)
        self._out = tuple(tuple(ds) for ds in out)
        self._component_ids = tuple(components(self))
        self._component_count = max(self._component_ids) + 1

    # -- basic accessors -------------------------------------------------

    @property
    def dart_count(self) -> int:
        return len(self._src)

    @property
    def edge_count(self) -> int:
        return len(self._src) // 2

    def dart_source(self, d: int) -> int:
        return self._src[d]

    def dart_target(self, d: int) -> int:
        return self._dst[d]

    def dart_label(self, d: int) -> Optional[str]:
        return self._lab[d]

    @staticmethod
    def dart_reverse(d: int) -> int:
        return d ^ 1

    @staticmethod
    def dart_edge(d: int) -> int:
        return d // 2

    def out_darts(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def degree(self, v: int) -> int:
        # loops contribute two darts at their vertex, hence degree 2
        return len(self._out[v])

    def edges(self) -> Iterable[tuple[int, int, Optional[str]]]:
        """Yield one (source, target, label) triple per edge (dart 2k)."""
        for d in range(0, len(self._src), 2):
            yield self._src[d], self._dst[d], self._lab[d]

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.vertex_count))

    def is_regular(self) -> bool:
        degs = {self.degree(v) for v in range(self.vertex_count)}
        return len(degs) == 1

    # -- connectivity ----------------------------------------------------

    @property
    def component_ids(self) -> tuple[int, ...]:
        return self._component_ids

    @property
    def component_count(self) -> int:
        return self._component_count

    @property
    def is_connected(self) -> bool:
        return self._component_count == 1

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(vertices={self.vertex_count}, edges={self.edge_count}, "
            f"components={self._component_count})"
        )


def build_graph(
    vertex_count: int,
    edges: Iterable[tuple],
    alphabet: Optional[Iterable[str]] = None,
    annotations: Optional[dict] = None,
) -> LabeledGraph:
    """Construct a :class:`LabeledGraph` from edge triples.

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

    Raises
    ------
    InvalidInputError
        On out-of-range endpoints, malformed labels, or labels outside
        a declared alphabet.
    """
    declared: Optional[frozenset[str]] = None
    if alphabet is not None:
        symbols = list(alphabet)
        for s in symbols:
            _check_base_symbol(s)
        declared = frozenset(symbols)

    darts: list[tuple[int, int, Optional[str]]] = []
    seen_symbols: set[str] = set()
    for e in edges:
        if len(e) == 2:
            u, v = e
            lab: Optional[str] = None
        elif len(e) == 3:
            u, v, lab = e
        else:
            raise InvalidInputError(f"edge {e!r} is not a pair or labeled triple")
        if not (isinstance(u, int) and isinstance(v, int)):
            raise InvalidInputError(f"edge {e!r} has non-integer endpoints")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise InvalidInputError(f"edge {e!r} endpoint out of range [0, {vertex_count})")
        if lab is not None:
            if not isinstance(lab, str) or not lab:
                raise InvalidInputError(f"edge {e!r} label must be None or a nonempty string")
            base = base_symbol(lab)
            _check_base_symbol(base)
            if declared is not None and base not in declared:
                raise InvalidInputError(f"label {lab!r} not in declared alphabet")
            seen_symbols.add(base)
        darts.append((u, v, lab))
        darts.append((v, u, inverse_label(lab)))
    final_alphabet = declared if declared is not None else frozenset(seen_symbols)
    return LabeledGraph(vertex_count, darts, final_alphabet, annotations)


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

    def sizes(self) -> tuple[int, ...]:
        return tuple(g.vertex_count for g in self.components)

    def metadata(self) -> tuple[dict, ...]:
        """Recomputed per-component summary; never cached, so it cannot drift."""
        out = []
        for g in self.components:
            out.append(
                {
                    "vertices": g.vertex_count,
                    "edges": g.edge_count,
                    "max_degree": g.max_degree(),
                    "girth": girth(g),
                    "diameter": diameter(g),
                }
            )
        return tuple(out)


def split_components(g: LabeledGraph) -> GraphFamily:
    """Split a graph into its connected components, smallest vertex first."""
    groups: dict[int, list[int]] = {}
    for v in range((g.vertex_count)):
        groups.setdefault(g.component_ids[v], []).append(v)
    comps = []
    origins = []
    for cid in sorted(groups, key=lambda c: min(groups[c])):
        verts = sorted(groups[cid])
        index = {v: i for i, v in enumerate(verts)}
        edges = [
            (index[u], index[v], lab)
            for (u, v, lab) in g.edges()
            if g.component_ids[u] == cid
        ]
        comps.append(build_graph(len(verts), edges, alphabet=g.alphabet or None))
        origins.append(tuple(verts))
    return GraphFamily(tuple(comps), tuple(origins))


# -- traversal -----------------------------------------------------------


def bfs_tree(g: LabeledGraph, root: int, removed: frozenset[int] = frozenset()) -> dict[int, int]:
    """Breadth-first spanning tree of the component of ``root``.

    Maps each reached vertex, in visiting order, to the dart that first
    reached it (-1 for the root).  Darts are scanned in ``out_darts``
    order and no edge in ``removed`` is crossed, so the tree, and every
    numbering read off it, is fixed by the dart order alone.
    """
    parent = {root: -1}
    order = [root]
    for u in order:
        for d in g._out[u]:
            w = g._dst[d]
            if w not in parent and d >> 1 not in removed:
                parent[w] = d
                order.append(w)
    return parent


def tree_path(g: LabeledGraph, parent: dict[int, int], v: int) -> list[int]:
    """Darts of the tree path from the root of ``parent`` to ``v``."""
    path = []
    while parent[v] >= 0:
        path.append(parent[v])
        v = g._src[parent[v]]
    path.reverse()
    return path


def components(g: LabeledGraph, removed: frozenset[int] = frozenset()) -> list[int]:
    """Component id of every vertex once the edges in ``removed`` are
    deleted; components are numbered in order of their smallest vertex."""
    comp = [-1] * g.vertex_count
    count = 0
    for s in range(g.vertex_count):
        if comp[s] < 0:
            for v in bfs_tree(g, s, removed):
                comp[v] = count
            count += 1
    return comp


def propagate(g: LabeledGraph, root: int, image: int, step) -> Optional[dict[int, int]]:
    """Grow the vertex map ``root -> image`` breadth-first along darts.

    ``step(d, x)`` names the image of the target of dart ``d`` when its
    source maps to ``x``, or None when there is none.  Returns the map
    on the component of ``root``, in visiting order, or None when some
    step has no image or two darts disagree on a vertex's image.
    """
    img = {root: image}
    order = [root]
    for u in order:
        x = img[u]
        for d in g._out[u]:
            y = step(d, x)
            if y is None:
                return None
            w = g._dst[d]
            if w not in img:
                img[w] = y
                order.append(w)
            elif img[w] != y:
                return None
    return img


# -- distances -----------------------------------------------------------


def bfs_distances(g: LabeledGraph, source: int) -> list[int]:
    """Unweighted distances from ``source``; -1 marks unreachable vertices."""
    if not (0 <= source < g.vertex_count):
        raise InvalidInputError("bfs source out of range")
    dist = [-1] * g.vertex_count
    for v, d in bfs_tree(g, source).items():
        dist[v] = 0 if d < 0 else dist[g._src[d]] + 1
    return dist


def _adjacency_csr(g: LabeledGraph) -> scipy.sparse.csr_matrix:
    n = g.vertex_count
    rows = np.fromiter(g._src, dtype=np.int64, count=g.dart_count)
    cols = np.fromiter(g._dst, dtype=np.int64, count=g.dart_count)
    data = np.ones(g.dart_count, dtype=np.float64)
    # each undirected edge appears as both darts; summing duplicates keeps
    # multiplicities, and a loop contributes 2 on the diagonal
    mat = scipy.sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    return mat.tocsr()


def distance_matrix(g: LabeledGraph) -> np.ndarray:
    """All-pairs unweighted distances; ``inf`` between components."""
    adj = _adjacency_csr(g)
    dist = scipy.sparse.csgraph.shortest_path(adj, method="D", unweighted=True, directed=False)
    return dist


def diameter(g: LabeledGraph) -> int:
    """Largest pairwise distance; requires a connected graph."""
    if not g.is_connected:
        raise DisconnectedGraphError("diameter requires a connected graph")
    if g.vertex_count <= 4096:
        return int(distance_matrix(g).max())
    worst = 0
    for s in range(g.vertex_count):
        worst = max(worst, max(bfs_distances(g, s)))
    return worst


def girth(g: LabeledGraph):
    """Length of a shortest cycle; ``math.inf`` for forests.

    Loops count as 1-cycles and a parallel pair as a 2-cycle.  Uses a
    truncated breadth-first search from every vertex; a search stops
    expanding once it can no longer beat the best cycle found so far.
    """
    for d in range(0, g.dart_count, 2):
        if g.dart_source(d) == g.dart_target(d):
            return 1
    seen_pairs = set()
    for d in range(0, g.dart_count, 2):
        key = (min(g.dart_source(d), g.dart_target(d)), max(g.dart_source(d), g.dart_target(d)))
        if key in seen_pairs:
            return 2
        seen_pairs.add(key)

    best = math.inf
    n = g.vertex_count
    dist = [-1] * n
    entry = [-1] * n
    for s in range(n):
        if best == 3:
            break
        touched = [s]
        dist[s] = 0
        entry[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] + 1 >= best:
                break
            for d in g.out_darts(u):
                if d == LabeledGraph.dart_reverse(entry[u]):
                    continue
                w = g.dart_target(d)
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    entry[w] = d
                    queue.append(w)
                    touched.append(w)
                else:
                    # closing a non-tree dart yields a closed walk, hence
                    # an upper bound; minimizing over all sources is exact
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        for v in touched:
            dist[v] = -1
            entry[v] = -1
    return best


@dataclass(frozen=True)
class DgReport:
    """Per-component diameter/girth ratios and their maximum."""

    ratios: tuple[float, ...]
    maximum: float


def dg_ratio(family: GraphFamily) -> DgReport:
    """Diameter/girth ratio of each component plus the family maximum.

    Every component must be connected (enforced by :class:`GraphFamily`)
    and contain a cycle; an acyclic component has no finite ratio and is
    rejected.
    """
    ratios = []
    for i, g in enumerate(family.components):
        gr = girth(g)
        if gr is math.inf:
            raise InvalidInputError(f"family component {i} is acyclic; ratio undefined")
        ratios.append(diameter(g) / gr)
    return DgReport(ratios=tuple(ratios), maximum=max(ratios))


# -- isoperimetry --------------------------------------------------------


@dataclass(frozen=True)
class CheegerResult:
    """Exact edge-isoperimetric constant with an optimal witness cut."""

    value: Fraction
    witness: tuple[int, ...]
    boundary_edges: int


def boundary_size(g: LabeledGraph, subset: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in ``subset``."""
    inside = set(subset)
    for v in inside:
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError("subset vertex out of range")
    count = 0
    for u, v, _ in g.edges():
        if (u in inside) != (v in inside):
            count += 1
    return count


def cheeger_exact(g: LabeledGraph, cap: int = CHEEGER_ENUM_CAP) -> CheegerResult:
    """Exact Cheeger constant min |boundary(A)| / |A| over |A| <= n/2.

    Enumerates all nonempty subsets with a vectorized bit sweep, so the
    graph must have at most ``cap`` vertices (default 20).  Ties are
    broken toward the lexicographically smallest sorted vertex tuple.

    Raises
    ------
    CapExceededError
        If ``vertex_count > cap``.
    DisconnectedGraphError
        Disconnected graphs have h = 0 with any union of components as
        witness; that degenerate case is rejected instead.
    """
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
    for u, v, _ in g.edges():
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
    """Eigenvalues in descending order, with residual bookkeeping.

    ``complete`` is False when only the extreme eigenvalues were
    computed (iterative route for large graphs).
    """

    eigenvalues: tuple[float, ...]
    complete: bool
    matrix: str
    residual: float


def adjacency_matrix(g: LabeledGraph) -> np.ndarray:
    """Dense adjacency matrix with multiplicities; loops add 2 on the diagonal."""
    return _adjacency_csr(g).toarray()


def _verify_eigenpairs(op, eigvals: np.ndarray, eigvecs: np.ndarray, tol: float = 1e-8) -> float:
    """Residual max_i ||A v_i - lambda_i v_i|| over unit eigenvectors."""
    av = op @ eigvecs
    resid = av - eigvecs * eigvals[np.newaxis, :]
    norms = np.linalg.norm(resid, axis=0) / np.maximum(np.linalg.norm(eigvecs, axis=0), 1e-300)
    worst = float(norms.max()) if norms.size else 0.0
    if worst > tol:
        raise VerificationError(f"eigenpair residual {worst:.3e} exceeds {tol:.1e}")
    return worst


def _extreme_eigs(mat: scipy.sparse.csr_matrix, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    n = mat.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    top_vals, top_vecs = scipy.sparse.linalg.eigsh(mat, k=k, which="LA", v0=v0)
    bot_vals, bot_vecs = scipy.sparse.linalg.eigsh(mat, k=k, which="SA", v0=v0)
    worst = max(
        _verify_eigenpairs(mat, top_vals, top_vecs),
        _verify_eigenpairs(mat, bot_vals, bot_vecs),
    )
    return top_vals, bot_vals, worst


def adjacency_spectrum(
    g: LabeledGraph,
    dense_cap: int = DENSE_SPECTRUM_CAP,
    extremes: int = 6,
    seed: int = 0,
) -> SpectrumSummary:
    """Adjacency eigenvalues, descending.

    Up to ``dense_cap`` vertices the full symmetric eigensolve runs and
    every eigenpair is residual-checked.  Above the cap only the
    ``extremes`` largest and smallest eigenvalues are computed with a
    Lanczos iteration seeded deterministically.
    """
    n = g.vertex_count
    if n <= dense_cap:
        mat = adjacency_matrix(g)
        vals, vecs = scipy.linalg.eigh(mat)
        worst = _verify_eigenpairs(mat, vals, vecs)
        return SpectrumSummary(
            eigenvalues=tuple(float(x) for x in vals[::-1]),
            complete=True,
            matrix="adjacency",
            residual=worst,
        )
    k = min(extremes, n - 1)
    top, bot, worst = _extreme_eigs(_adjacency_csr(g), k, seed)
    vals = sorted(set(float(x) for x in top) | set(float(x) for x in bot), reverse=True)
    return SpectrumSummary(
        eigenvalues=tuple(vals), complete=False, matrix="adjacency", residual=worst
    )


def laplacian_matrix(g: LabeledGraph) -> np.ndarray:
    adj = adjacency_matrix(g)
    deg = np.array([g.degree(v) for v in range(g.vertex_count)], dtype=np.float64)
    return np.diag(deg) - adj


def laplacian_lambda2(g: LabeledGraph, dense_cap: int = DENSE_SPECTRUM_CAP, seed: int = 0) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian."""
    if not g.is_connected:
        raise DisconnectedGraphError("spectral gap requires a connected graph")
    n = g.vertex_count
    if n < 2:
        raise InvalidInputError("spectral gap needs at least two vertices")
    if n <= dense_cap:
        lap = laplacian_matrix(g)
        vals, vecs = scipy.linalg.eigh(lap)
        _verify_eigenpairs(lap, vals, vecs)
        return float(vals[1])
    lap = scipy.sparse.csgraph.laplacian(_adjacency_csr(g)).tocsr()
    rng = np.random.default_rng(seed)
    vals, vecs = scipy.sparse.linalg.eigsh(lap, k=2, which="SA", v0=rng.standard_normal(n))
    _verify_eigenpairs(lap, vals, vecs)
    return float(sorted(vals)[1])


def cheeger_bounds(g: LabeledGraph) -> tuple[float, float]:
    """Spectral sandwich gap/2 <= h <= sqrt(2 * max_degree * gap)."""
    gap = laplacian_lambda2(g)
    gap = max(gap, 0.0)
    return gap / 2.0, math.sqrt(2.0 * g.max_degree() * gap)


# -- expander certification ----------------------------------------------


@dataclass(frozen=True)
class ComponentCheck:
    vertices: int
    max_degree: int
    cheeger_value: float
    exact: bool


@dataclass(frozen=True)
class ExpanderReport:
    """Outcome of certifying a family as a c-expander sequence."""

    passed: bool
    constant: float
    degree_bound: int
    sizes: tuple[int, ...]
    checks: tuple[ComponentCheck, ...]
    failures: tuple[str, ...] = field(default_factory=tuple)


def expander_certify(
    family: GraphFamily,
    constant: float,
    cheeger_cap: int = CHEEGER_ENUM_CAP,
    allow_spectral: bool = True,
) -> ExpanderReport:
    """Certify ``family`` as an expander sequence with Cheeger constant >= ``constant``.

    Checks three things: vertex counts strictly increase along the
    family, degrees are uniformly bounded (the bound is reported), and
    each component has Cheeger constant at least ``constant``.  Small
    components are checked exactly; larger ones fall back to the
    spectral lower bound gap/2 when ``allow_spectral`` is set, else the
    call raises :class:`CapExceededError`.

    A failed certificate is a normal return with ``passed=False`` and
    human-readable reasons; only out-of-contract inputs raise.
    """
    if constant <= 0:
        raise InvalidInputError("expander constant must be positive")
    failures: list[str] = []
    sizes = family.sizes()
    for i in range(1, len(sizes)):
        if sizes[i] <= sizes[i - 1]:
            failures.append(f"sizes do not strictly increase at position {i}: {sizes[i - 1]} -> {sizes[i]}")
    checks = []
    degree_bound = 0
    for i, g in enumerate(family.components):
        degree_bound = max(degree_bound, g.max_degree())
        if g.vertex_count <= cheeger_cap:
            res = cheeger_exact(g, cap=cheeger_cap)
            h = float(res.value)
            exact = True
        elif allow_spectral:
            h = cheeger_bounds(g)[0]
            exact = False
        else:
            raise CapExceededError(
                f"component {i} has {g.vertex_count} vertices, above the exact cap {cheeger_cap}"
            )
        checks.append(ComponentCheck(g.vertex_count, g.max_degree(), h, exact))
        if h < constant:
            kind = "exact value" if exact else "spectral lower bound"
            failures.append(f"component {i}: {kind} {h:.6g} < required {constant:.6g}")
    return ExpanderReport(
        passed=not failures,
        constant=constant,
        degree_bound=degree_bound,
        sizes=sizes,
        checks=tuple(checks),
        failures=tuple(failures),
    )


# -- combined report -----------------------------------------------------


@dataclass(frozen=True)
class SpectralReport:
    """One-stop invariant bundle for a single connected graph.

    ``cheeger_value``/``witness_subset`` are None above the enumeration
    cap; then only ``cheeger_lower``/``cheeger_upper`` (spectral) apply.
    ``dg_ratio`` is None for acyclic graphs.
    """

    vertices: int
    edges: int
    eigenvalues: tuple[float, ...]
    cheeger_value: Optional[Fraction]
    witness_subset: Optional[tuple[int, ...]]
    dg_ratio: Optional[float]
    degree_bounds: tuple[int, int]
    girth: object
    diameter: int
    cheeger_lower: float
    cheeger_upper: float
    spectrum_complete: bool


def spectral_report(g: LabeledGraph, cheeger_cap: int = CHEEGER_ENUM_CAP) -> SpectralReport:
    """Compute the standard invariant bundle for a connected graph."""
    if not g.is_connected:
        raise DisconnectedGraphError("spectral report requires a connected graph")
    cheeger = None
    if 2 <= g.vertex_count <= cheeger_cap:
        cheeger = cheeger_exact(g, cap=cheeger_cap)
    lower, upper = cheeger_bounds(g) if g.vertex_count >= 2 else (0.0, 0.0)
    gr = girth(g)
    dia = diameter(g)
    degs = [g.degree(v) for v in range(g.vertex_count)]
    spectrum = adjacency_spectrum(g)
    return SpectralReport(
        vertices=g.vertex_count,
        edges=g.edge_count,
        eigenvalues=spectrum.eigenvalues,
        cheeger_value=cheeger.value if cheeger else None,
        witness_subset=cheeger.witness if cheeger else None,
        dg_ratio=None if gr is math.inf else dia / gr,
        degree_bounds=(min(degs), max(degs)),
        girth=gr,
        diameter=dia,
        cheeger_lower=lower,
        cheeger_upper=upper,
        spectrum_complete=spectrum.complete,
    )
