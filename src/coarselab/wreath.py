"""Finite restricted permutational wreath products Z/2 wr_Q B.

Elements are pairs (config, b): a finite subset of Q (the support of a
Z/2-valued function on Q) and an element of B.  B acts on configurations
through a surjective homomorphism proj: B -> Q by permuting indices from
the left, and the group law is

    (phi1, b1) (phi2, b2) = (phi1 xor b1.phi2, b1 b2),
    (b.phi)(q) = phi(proj(b)^-1 q).

The lamp coefficient group Z/2 is hard-coded: supports xor exactly, so
all arithmetic is bit-level and errorless.  The standard generating set
is the single lamp flip delta at the identity of Q together with the
generators of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import WREATH_VERTEX_CAP, CapExceededError, InvalidInputError, VerificationError
from .expander_zoo import FiniteGroupTable, homomorphism_defect
from .graph_core import LabeledGraph, build_graph

#: label of the lamp-flip generator
DELTA_LABEL = "delta"


@dataclass(frozen=True)
class WreathGroup:
    """The data of Z/2 wr_Q B for a surjection proj: B ->> Q.

    ``proj[b]`` is the image in Q of the B-element ``b``; it is checked
    exhaustively to be a surjective homomorphism.  The generating set
    is the lamp flip delta (an involution) together with B's stored
    generator set, which FiniteGroupTable keeps closed under inverses,
    so the whole set is symmetric.
    """

    Q: FiniteGroupTable
    B: FiniteGroupTable
    proj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "proj", tuple(int(q) for q in self.proj))
        if len(self.proj) != self.B.order:
            raise InvalidInputError("proj must assign an image to every element of B")
        for q in self.proj:
            if not (0 <= q < self.Q.order):
                raise InvalidInputError(f"proj value {q} outside Q")
        defect = homomorphism_defect(self.proj, self.B, self.Q)
        if defect is not None:
            raise InvalidInputError(f"proj is not a homomorphism at {defect}")
        if len(set(self.proj)) != self.Q.order:
            raise InvalidInputError("proj is not surjective onto Q")
        if not self.B.generators:
            raise InvalidInputError("B needs a generating set")

    @property
    def order(self) -> int:
        return (1 << self.Q.order) * self.B.order

    @property
    def generators(self) -> tuple["WreathElement", ...]:
        """The symmetric generating set: the lamp flip delta at the
        identity of Q, then (empty config, t) for each generator t of B."""
        out = [self.delta()]
        out.extend(WreathElement(frozenset(), t) for t in self.B.generators)
        return tuple(out)

    def identity(self) -> "WreathElement":
        return WreathElement(frozenset(), self.B.identity)

    def delta(self, q: Optional[int] = None) -> "WreathElement":
        """The lamp flip at q (default: the identity of Q)."""
        point = self.Q.identity if q is None else q
        if not (0 <= point < self.Q.order):
            raise InvalidInputError(f"no point {point} in Q")
        return WreathElement(frozenset((point,)), self.B.identity)

    def validate(self, x: "WreathElement") -> None:
        if not (0 <= x.b < self.B.order):
            raise InvalidInputError(f"element of wrong group: b = {x.b}")
        for q in x.config:
            if not (0 <= q < self.Q.order):
                raise InvalidInputError(f"element of wrong group: lamp at {q}")


@dataclass(frozen=True)
class WreathElement:
    """A lamp configuration (support subset of Q) and a B-coordinate."""

    config: frozenset[int]
    b: int


def lamp_support(mask: int) -> tuple[int, ...]:
    """The lit lamps of a lamp mask (bit q set iff lamp q is lit), ascending.
    Elements (mask, b) are enumerated in the order of (lamp_support(mask), b)."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def support_key(words: np.ndarray) -> np.ndarray:
    """The lit lamps of each mask row, ascending and padded with -1 to
    the longest support, as an int64 (rows, width) array.

    A row of ``words`` holds one mask as uint64 words, bit q of the mask
    being bit q % 64 of word q // 64.  Lexsorting the columns, the first
    one primary, orders the rows as ``lamp_support`` orders their masks:
    the pad -1 puts a support before each of its extensions.
    """
    words = np.ascontiguousarray(words, dtype="<u8")
    rows, lamps = np.nonzero(np.unpackbits(words.view(np.uint8), axis=1, bitorder="little"))
    count = np.bincount(rows, minlength=len(words))
    key = np.full((len(words), int(count.max(initial=0))), -1, dtype=np.int64)
    key[rows, np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)] = lamps
    return key


def lamp_order(words: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """The permutation sorting rows (mask, b) by (lamp_support(mask), b);
    with no ``b`` the masks alone."""
    key = support_key(words)
    tie = np.zeros(len(words), dtype=np.int64) if b is None else b
    return np.lexsort((tie, *key.T[::-1]))


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of an integer array, the index of the first row equal to it."""
    order = np.lexsort(rows.T)  # stable, so a run of equal rows starts at its first
    ranked = rows[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[start][np.cumsum(start) - 1]
    return first


# -- Cayley graphs ----------------------------------------------------------


@dataclass(frozen=True)
class WreathBall:
    """A Cayley graph of a wreath group, or a metric ball inside one.

    The element at vertex ``i`` is read from the graph's annotations
    ``vertex_supports[i]`` and ``vertex_b_names[i]``; ``complete`` says
    whether the whole group was enumerated.
    """

    graph: LabeledGraph
    radius: Optional[int]
    complete: bool


def _generator_pairs(W: WreathGroup) -> list[tuple[int, str]]:
    """One (canonical element, base label) entry per generator pair of B."""
    pairs = []
    seen = set()
    labels = set()
    for t in W.B.generators:
        s = W.B.inverse(t)
        canon = min(t, s)
        if canon in seen:
            continue
        seen.add(canon)
        base = W.B.name(canon)
        if base == DELTA_LABEL or base in labels:
            raise InvalidInputError(f"generator label {base!r} collides")
        labels.add(base)
        pairs.append((canon, base))
    return pairs


def wreath_cayley(
    W: WreathGroup, radius: Optional[int] = None, cap: int = WREATH_VERTEX_CAP
) -> WreathBall:
    """Cayley graph of W on delta and the B-generators, or the ball of
    the given radius around the identity (as an induced subgraph).

    Vertices are numbered breadth-first from the identity; within each
    BFS level elements are sorted by (sorted support, B-index), so the
    numbering is deterministic.  Building the full graph requires
    2^|Q| * |B| <= cap.

    The walk runs on rows (mask, b), the mask held as ceil(|Q| / 64)
    uint64 words, so a ball accepts any |Q|.  Right multiplication by a
    generator needs no general law: delta flips the lamp at proj[b], and
    a base generator t sends b to b t.  The generating set is symmetric,
    so a level's new rows are its products missing from it and from the
    level before it.  Membership, and each edge's target, is read off
    one stable lexsort of the rows (``_first_rows``); no Python set is built.
    """
    if radius is not None and radius < 0:
        raise InvalidInputError(f"radius must be nonnegative, got {radius}")
    if cap < 0:
        raise InvalidInputError(f"the vertex cap must be nonnegative, got {cap}")
    if radius is None and W.order > cap:
        raise CapExceededError(
            f"full wreath Cayley graph has {W.order} vertices, above the cap {cap}"
        )
    pairs = _generator_pairs(W)
    proj = np.asarray(W.proj)
    word, bit = proj // 64, np.uint64(1) << (proj % 64).astype(np.uint64)
    right = W.B.mul_table.astype(np.uint64)  # right[b, t] = b t

    def flip(rows):
        out = rows.copy()
        b = rows[:, -1]
        out[np.arange(len(rows)), word[b]] ^= bit[b]
        return out

    def step(rows, t):
        out = rows.copy()
        out[:, -1] = right[rows[:, -1], t]
        return out

    # a row is the mask's words, then b
    rows = np.zeros((1, -(-W.Q.order // 64) + 1), dtype=np.uint64)
    rows[0, -1] = W.B.identity
    levels = [rows]
    known = rows  # the frontier and the level before it
    depth = 0
    while len(rows) and (radius is None or depth < radius):
        found = np.concatenate([known, flip(rows)] + [step(rows, t) for t in W.B.generators])
        new = found[len(known):][_first_rows(found)[len(known):] == np.arange(len(known), len(found))]
        rows = new[lamp_order(new[:, :-1], new[:, -1])]
        known = np.concatenate([levels[-1], rows])
        levels.append(rows)
        if sum(map(len, levels)) > cap:
            raise CapExceededError(f"ball enumeration passed the cap {cap}")
        depth += 1

    rows = np.concatenate(levels)
    n = len(rows)
    complete = radius is None
    if complete and n != W.order:
        raise VerificationError(
            f"enumerated {n} elements, expected {W.order}; "
            "the generating set failed to generate"
        )

    # one column per move, delta then one generator of each pair: the
    # vertex a row reaches, or -1 outside the ball
    moved = [flip(rows)] + [step(rows, t) for t, _ in pairs]
    targets = _first_rows(np.concatenate([rows, *moved]))[n:].reshape(len(moved), n).T
    targets[targets >= n] = -1
    involution = np.array([True] + [W.B.inverse(t) == t for t, _ in pairs])
    # an involution gives one edge per unordered vertex pair
    keep = (targets >= 0) & ((np.arange(n)[:, None] < targets) | ~involution)
    us, moves = np.nonzero(keep)
    labels = [DELTA_LABEL] + [base for _, base in pairs]
    first = _first_rows(rows[:, :-1])
    support = {
        i: lamp_support(int.from_bytes(rows[i, :-1].astype("<u8").tobytes(), "little"))
        for i in np.flatnonzero(first == np.arange(n)).tolist()
    }
    names = [W.B.name(x) for x in range(W.B.order)]
    graph = build_graph(
        n,
        alphabet=labels,
        annotations={
            "construction": f"wreath Z/2 over Q of order {W.Q.order}, base order {W.B.order}",
            "vertex_supports": tuple(map(support.__getitem__, first.tolist())),
            "vertex_b_names": tuple(map(names.__getitem__, rows[:, -1].tolist())),
        },
        columns=(us.tolist(), targets[keep].tolist(), list(map(labels.__getitem__, moves.tolist()))),
    )
    return WreathBall(graph=graph, radius=radius, complete=complete)


# -- the relative subset X --------------------------------------------------


@dataclass(frozen=True)
class RelativeSubset:
    """The |Q| single-lamp involutions (delta_g, 1_B), ordered by g."""

    elements: tuple[WreathElement, ...]

    def __len__(self) -> int:
        return len(self.elements)


def x_subset(W: WreathGroup) -> RelativeSubset:
    return RelativeSubset(tuple(W.delta(g) for g in range(W.Q.order)))
