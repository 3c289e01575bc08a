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


# -- Cayley graphs ----------------------------------------------------------


@dataclass(frozen=True)
class WreathBall:
    """A Cayley graph of a wreath group, or a metric ball inside one.

    ``elements[i]`` is the group element sitting at vertex ``i``;
    ``complete`` says whether the whole group was enumerated.
    """

    graph: LabeledGraph
    elements: tuple[WreathElement, ...]
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

    The walk runs on integer codes (mask, b), bit q of ``mask`` set iff
    lamp q is lit.  Right multiplication by a generator needs no general
    law: delta flips the lamp at proj[b], and a base generator t sends b
    to b t.  Masks are Python ints, so a ball accepts any |Q|.
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
    lamp = [1 << q for q in W.proj]
    right = W.B.mul_table.T.tolist()  # right[t][b] = b t
    steps = [right[t] for t in W.B.generators]

    index = {(0, W.B.identity): 0}
    supports: list[tuple[int, ...]] = [()]
    frontier = list(index)
    depth = 0
    while frontier and (radius is None or depth < radius):
        found = {(mask ^ lamp[b], b) for mask, b in frontier}
        found.update((mask, step[b]) for mask, b in frontier for step in steps)
        # a support fixes its mask, so the mask never breaks a tie
        level = sorted((lamp_support(mask), b, mask) for mask, b in found - index.keys())
        frontier = [(mask, b) for _, b, mask in level]
        for code in frontier:
            index[code] = len(index)
        supports.extend(support for support, _, _ in level)
        if len(index) > cap:
            raise CapExceededError(f"ball enumeration passed the cap {cap}")
        depth += 1

    complete = radius is None
    if complete and len(index) != W.order:
        raise VerificationError(
            f"enumerated {len(index)} elements, expected {W.order}; "
            "the generating set failed to generate"
        )

    moves = [(right[t], base, W.B.inverse(t) == t) for t, base in pairs]
    edges = []
    for i, (mask, b) in enumerate(index):
        j = index.get((mask ^ lamp[b], b))
        # delta is an involution: one edge per unordered vertex pair
        if j is not None and i < j:
            edges.append((i, j, DELTA_LABEL))
        for step, base, involution in moves:
            j = index.get((mask, step[b]))
            if j is not None and (i < j or not involution):
                edges.append((i, j, base))
    graph = build_graph(
        len(index),
        edges,
        alphabet=[DELTA_LABEL] + [base for _, base in pairs],
        annotations={
            "construction": f"wreath Z/2 over Q of order {W.Q.order}, base order {W.B.order}",
            "vertex_supports": tuple(supports),
            "vertex_b_names": tuple(W.B.name(b) for _, b in index),
        },
    )
    elements = tuple(WreathElement(frozenset(s), b) for s, (_, b) in zip(supports, index))
    return WreathBall(graph=graph, elements=elements, radius=radius, complete=complete)


# -- the relative subset X --------------------------------------------------


@dataclass(frozen=True)
class RelativeSubset:
    """The |Q| single-lamp involutions (delta_g, 1_B), ordered by g."""

    elements: tuple[WreathElement, ...]

    def __len__(self) -> int:
        return len(self.elements)


def x_subset(W: WreathGroup) -> RelativeSubset:
    return RelativeSubset(tuple(W.delta(g) for g in range(W.Q.order)))
