"""Coarse-embedding diagnostics for maps between finite metric spaces.

A map family carries, per index, a finite source space (a connected
graph with its path metric, or an explicit distance matrix), a target
(a point list in R^d with the Euclidean metric, or a connected graph),
and the map itself as a vertex table.  The diagnostics are the
per-distance compression moduli (the finite shadow of the proper
functions rho and gamma bounding a coarse embedding), weak-embedding
fiber statistics, and ball concentration counts.

Properness is a limit statement, so no operation here ever returns a
verdict "coarsely embeddable"; finite data only supports envelopes and
trends, and that is all these reports contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DisconnectedGraphError, InvalidInputError
from .graph_core import LabeledGraph, distance_matrix, xor_deck, xor_deck_gather

#: Centers per block of distance rows read by ``ball_concentration``.
BALL_BLOCK = 32

#: Coordinates per block of point-target pairs read by ``_pair_distances``.
PAIR_BLOCK = 1 << 18

SourceSpace = Union[LabeledGraph, np.ndarray]
TargetSpace = Union[LabeledGraph, np.ndarray]


# -- map families -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MapEntry:
    """One index of a map family: source space, target space, and the
    map as a vertex table (``mapping[v]`` is a target point row or a
    target vertex)."""

    source: SourceSpace
    target: TargetSpace
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        n = _source_size(self.source)
        if len(self.mapping) != n:
            raise InvalidInputError(
                f"map table has {len(self.mapping)} entries for {n} source points"
            )
        m = _target_size(self.target)
        for v in self.mapping:
            if not (0 <= v < m):
                raise InvalidInputError(f"map value {v} outside the target")

    @property
    def size(self) -> int:
        return _source_size(self.source)


@dataclass(frozen=True)
class MapFamily:
    """A finite sequence of maps, one per index."""

    entries: tuple[MapEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidInputError("a map family needs at least one entry")

    def __len__(self) -> int:
        return len(self.entries)


def _source_size(source: SourceSpace) -> int:
    if isinstance(source, LabeledGraph):
        return source.vertex_count
    mat = np.asarray(source)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInputError("a distance matrix must be square")
    return mat.shape[0]


def _target_size(target: TargetSpace) -> int:
    if isinstance(target, LabeledGraph):
        return target.vertex_count
    pts = np.asarray(target)
    if pts.ndim != 2:
        raise InvalidInputError("target points must form an (m, d) array")
    return pts.shape[0]


def _graph_metric(g: LabeledGraph, role: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Path distance between ``x[k]`` and ``y[k]`` in a connected graph.

    When the darts pass :func:`~coarselab.graph_core.xor_deck`, the XOR
    deck maps are automorphisms, so only the rows of the fiber heads
    (v, 0) are walked and d((a, s), (b, t)) is read as d((a, 0),
    (b, s XOR t)).  Every other row is a permutation of a head row, so the
    head rows are finite exactly when the graph is connected.
    """
    lift = xor_deck(g)
    dist = distance_matrix(g, None if lift is None else lift.fiber_heads())
    if not np.all(np.isfinite(dist)):
        raise DisconnectedGraphError(f"{role} graph metric needs a connected graph")
    return dist[x, y] if lift is None else xor_deck_gather(dist, lift.deck_rank, x, y)


def _row_distances(pts: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance between the rows ``pts[x[k]]`` and ``pts[y[k]]``;
    a distance whose square overflows float64 is an input error."""
    try:
        with np.errstate(over="raise"):
            diff = pts[x] - pts[y]
            return np.sqrt(np.sum(diff * diff, axis=-1))
    except FloatingPointError as e:
        raise InvalidInputError("point distances overflow float64") from e


def _pair_distances(entry: MapEntry) -> tuple[np.ndarray, np.ndarray]:
    """Source and target distance of every pair x < y of an entry, in
    ``np.triu_indices`` order."""
    x, y = np.triu_indices(entry.size, 1)
    if isinstance(entry.source, LabeledGraph):
        src = _graph_metric(entry.source, "source", x, y)
    else:
        src = np.asarray(entry.source, dtype=np.float64)
        if not np.all(np.isfinite(src)):
            raise InvalidInputError("distance matrix entries must be finite")
        if np.abs(src - src.T).max() > 1e-9 or np.abs(np.diag(src)).max() > 1e-9:
            raise InvalidInputError("distance matrix must be symmetric with zero diagonal")
        if src.min() < 0:
            raise InvalidInputError("distances must be nonnegative")
        src = src[x, y]
    image = np.asarray(entry.mapping, dtype=np.intp)
    if isinstance(entry.target, LabeledGraph):
        return src, _graph_metric(entry.target, "target", image[x], image[y])
    pts = np.asarray(entry.target, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("target points must be finite")
    tgt = np.empty(x.size)
    step = max(1, PAIR_BLOCK // max(1, pts.shape[1]))
    for k in range(0, x.size, step):
        tgt[k : k + step] = _row_distances(pts, image[x[k : k + step]], image[y[k : k + step]])
    return src, tgt


def _fiber_sizes(entry: MapEntry) -> np.ndarray:
    """Number of source points over each image point.

    Distinct target rows holding identical coordinate bytes are one point.
    """
    image = np.asarray(entry.mapping, dtype=np.intp)
    if isinstance(entry.target, LabeledGraph):
        return np.unique(image, return_counts=True)[1]
    rows = np.asarray(entry.target, dtype=np.float64)[image]
    return np.unique(rows.view(np.uint64), axis=0, return_counts=True)[1]


# -- compression moduli --------------------------------------------------------


@dataclass(frozen=True)
class ModuliReport:
    """Per source-distance class: the observed min (rho) and max
    (gamma) target distances, pair counts, and monotone envelopes
    (largest nondecreasing minorant of rho, smallest nondecreasing
    majorant of gamma)."""

    distances: tuple[float, ...]
    rho: tuple[float, ...]
    gamma: tuple[float, ...]
    rho_envelope: tuple[float, ...]
    gamma_envelope: tuple[float, ...]
    counts: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["t,rho,gamma,count"]
        for t, r, g, c in zip(self.distances, self.rho, self.gamma, self.counts):
            lines.append(f"{t:.12g},{r:.12g},{g:.12g},{c}")
        return "\n".join(lines) + "\n"


def _merge_classes(t: np.ndarray, lo: np.ndarray, hi: np.ndarray, counts) -> tuple[np.ndarray, ...]:
    """Rows (t, lo, hi, count) merged by equal t: the least lo, the largest
    hi and the summed counts.  ``return_index`` sorts stably, so a class of
    zeros keeps the sign of its first row."""
    ts, _, cls = np.unique(t, return_index=True, return_inverse=True)
    rho = np.full(ts.size, np.inf)
    np.minimum.at(rho, cls, lo)
    gamma = np.full(ts.size, -np.inf)
    np.maximum.at(gamma, cls, hi)
    total = np.zeros(ts.size, dtype=np.int64)
    np.add.at(total, cls, counts)
    return ts, rho, gamma, total


def compression_moduli(mf: MapFamily) -> ModuliReport:
    """Observed lower and upper moduli over every vertex pair of every
    family index, bucketed by source distance.  Each entry's pairs are
    reduced to its own classes before the classes of all entries merge, so
    only one entry's pairs are held at a time."""
    classes = []
    for entry in mf.entries:
        src, tgt = _pair_distances(entry)
        classes.append(_merge_classes(src, tgt, tgt, 1))
    ts, rho, gamma, counts = _merge_classes(*(np.concatenate(col) for col in zip(*classes)))
    if ts.size == 0:
        raise InvalidInputError("the family contains no vertex pairs")
    return ModuliReport(
        distances=tuple(ts.tolist()),
        rho=tuple(rho.tolist()),
        gamma=tuple(gamma.tolist()),
        rho_envelope=tuple(np.minimum.accumulate(rho[::-1])[::-1].tolist()),
        gamma_envelope=tuple(np.maximum.accumulate(gamma).tolist()),
        counts=tuple(counts.tolist()),
    )


# -- weak embeddings ------------------------------------------------------------


@dataclass(frozen=True)
class WeakEmbeddingReport:
    """Per-index Lipschitz constants and worst fiber fractions, plus the
    two verdicts that make up the finite shadow of a weak embedding:
    every index D-Lipschitz, fractions strictly decreasing."""

    lipschitz_constants: tuple[float, ...]
    fiber_fractions: tuple[float, ...]
    lipschitz_ok: bool
    fractions_decreasing: bool
    passed: bool


def is_weak_embedding(mf: MapFamily, lipschitz_bound: float) -> WeakEmbeddingReport:
    """Check the finite-family rendering of a weak embedding: uniformly
    ``lipschitz_bound``-Lipschitz maps whose worst fiber fractions
    decrease strictly along the family."""
    if len(mf) < 2:
        raise InvalidInputError("a weak-embedding trend needs at least two indices")
    if not (np.isfinite(lipschitz_bound) and lipschitz_bound >= 0):
        raise InvalidInputError("the Lipschitz bound must be finite and nonnegative")
    lips = []
    fracs = []
    for entry in mf.entries:
        src, tgt = _pair_distances(entry)
        apart = src > 0
        lips.append(float(np.max(tgt[apart] / src[apart], initial=0.0)))
        fracs.append(int(_fiber_sizes(entry).max()) / entry.size)
    lipschitz_ok = all(c <= lipschitz_bound + 1e-12 for c in lips)
    decreasing = all(fracs[i + 1] < fracs[i] for i in range(len(fracs) - 1))
    return WeakEmbeddingReport(
        lipschitz_constants=tuple(lips),
        fiber_fractions=tuple(fracs),
        lipschitz_ok=lipschitz_ok,
        fractions_decreasing=decreasing,
        passed=lipschitz_ok and decreasing,
    )


# -- ball concentration -----------------------------------------------------------


def ball_concentration(points: np.ndarray, radius: float) -> int:
    """The largest number of points inside one ball of the given radius
    centered at a point of the set itself.

    Restricting centers to the point set is the standard factor-two
    convention: a ball of radius r about an arbitrary center is covered
    by a ball of radius 2r about any set point inside it, so doubling
    the radius dominates the unrestricted count.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InvalidInputError("points must form a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points must be finite")
    if not (np.isfinite(radius) and radius >= 0):
        raise InvalidInputError("radius must be finite and nonnegative")
    n = pts.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for k in range(0, n, BALL_BLOCK):
        # a block of centers against every point from the block on, the
        # centers themselves included; a later point counts for both ends
        stop = min(k + BALL_BLOCK, n)
        rows = np.arange(k, stop)[:, np.newaxis]
        inside = _row_distances(pts, rows, np.arange(k, n)[np.newaxis, :]) <= radius + 1e-12
        counts[k:stop] += inside.sum(axis=1)
        counts[stop:] += inside[:, stop - k :].sum(axis=0)
    return int(counts.max())
