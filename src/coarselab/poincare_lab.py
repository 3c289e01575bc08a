"""Quadratic forms on finite groups, the optimal relative Poincare
constant, and conditionally negative definite kernels.

The central object is the pair of energy forms attached to a wreath
group W = Z/2 wr_Q B, with W's own symmetric generating set Sigma (the
lamp flip delta, then the generators of B) and its own subset X (the
|Q| single-lamp flips delta_q, q in Q):

    lhs(f) = (1/|X|) * sum over (x, y) in W x X of ||f(x) - f(xy)||^2
    rhs(f) =           sum over (x, s) in W x Sigma of ||f(x) - f(xs)||^2

The optimal constant C with lhs <= C * rhs for every Hilbert-valued f
is computed exactly as a generalized eigenvalue: both forms decouple
coordinatewise, so the vector-valued supremum equals the scalar one,
and on the orthogonal complement of the constants the rhs form is
positive definite, since Sigma generates W.

The forms are solved per lamp character (see
:func:`relative_poincare_constant`), reading only the Q and B tables.
Elements are numbered as in :func:`wreath_indexed_group`: sorted by
(sorted lamp support, base element index), so element
``rank[mask] * |B| + b`` is (mask, b), bit q of ``mask`` set iff lamp q
is lit.  The kernels of the randomized replay still read the indexed
table of the group; their CND test splits them over lamp characters
too (see :func:`is_cnd`).

Tolerance policy: eigenvalue comparisons use 1e-9 absolute margins;
kernel preconditions scale the margin by the magnitude of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import CapExceededError, InvalidInputError, VerificationError
from .expander_zoo import FiniteGroupTable
from .wreath import WreathGroup, lamp_order, lamp_support

#: largest group order whose indexed table is built (kernels and replay)
POINCARE_ORDER_CAP = 2048

#: largest block storage 2^|Q| * |B|^2 (entries per form) of the
#: character-block solve of the relative Poincare constant
POINCARE_BLOCK_CAP = 1 << 21

#: absolute eigenvalue tolerance (see module docstring)
EIG_TOL = 1e-9

#: largest number of function entries gathered at once by cnd_from_function
GATHER_CAP = 1 << 22

GroupLike = Union[FiniteGroupTable, WreathGroup]


# -- groups as indexed tables ------------------------------------------------


@lru_cache(maxsize=16)
def _lamp_order(nq: int) -> tuple[np.ndarray, np.ndarray]:
    """``masks[r]``, the lamp mask at position r of the support order,
    and its inverse ``rank[mask]``; both read-only."""
    masks = lamp_order(np.arange(1 << nq, dtype=np.uint64)[:, None])
    rank = np.argsort(masks)  # masks is a permutation of 0..2^nq - 1
    masks.flags.writeable = rank.flags.writeable = False
    return masks, rank


def _lamp_shifts(Q: FiniteGroupTable, mask: int) -> np.ndarray:
    """shift(s, mask) for every s in Q: the support of ``mask`` moved by
    left multiplication with s, as a lamp mask."""
    return np.bitwise_or.reduce(1 << Q.mul_table[:, list(lamp_support(mask))], axis=1)


def _check_table_cap(W: WreathGroup) -> None:
    if W.order > POINCARE_ORDER_CAP:
        raise CapExceededError(
            f"wreath group of order {W.order} exceeds the table cap {POINCARE_ORDER_CAP}"
        )


@lru_cache(maxsize=16)
def wreath_indexed_group(W: WreathGroup) -> FiniteGroupTable:
    """Enumerate a WreathGroup into a FiniteGroupTable.

    Elements are sorted by (sorted support, base index), so position 0
    is the identity, and the table's generator set is Sigma (see
    :func:`_form_members`).

    The table is computed on integer codes: element
    ``rank[mask] * |B| + b`` is (mask, b).  The group law of
    :mod:`~coarselab.wreath` then reads
    ``(m1, b1)(m2, b2) = (m1 ^ shifted[proj[b1], m2], b1 b2)``, which
    is computed for all pairs at once.
    """
    _check_table_cap(W)
    nq, nb = W.Q.order, W.B.order
    masks, rank = _lamp_order(nq)
    # shifted[s, m]: the support m moved by left multiplication with s
    bits = np.arange(masks.size)[None, :] >> np.arange(nq)[:, None] & 1
    shifted = np.bitwise_or.reduce(bits[None] << W.Q.mul_table[:, :, None], axis=1)
    # code[i, b1, j]: lamp part of (masks[i], b1)(masks[j], -) as rank * |B|
    code = rank[masks[:, None, None] ^ shifted[np.asarray(W.proj)][:, masks][None]] * nb
    mul = (code[:, :, :, None] + W.B.mul_table[None, :, None, :]).reshape(W.order, W.order)
    return FiniteGroupTable(mul, generators=_form_members(W)[0])


def _form_members(W: WreathGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Element indices of Sigma, delta then the generators of B, and of
    X, delta_q for q in Q in order: element ``rank[mask] * |B| + b`` is
    (mask, b), and the empty mask is element 0."""
    if not isinstance(W, WreathGroup):
        raise InvalidInputError("the relative forms are defined on wreath groups only")
    nb, e = W.B.order, W.B.identity
    rank = _lamp_order(W.Q.order)[1]
    sigma = (int(rank[1 << W.Q.identity]) * nb + e, *W.B.generators)
    return sigma, tuple(int(rank[1 << q]) * nb + e for q in range(W.Q.order))


def resolve_group(group: GroupLike) -> FiniteGroupTable:
    """The canonical indexed multiplication table of a group given
    either as a table or as a wreath product."""
    if isinstance(group, WreathGroup):
        return wreath_indexed_group(group)
    if isinstance(group, FiniteGroupTable):
        return group
    raise InvalidInputError(f"not a group object: {type(group).__name__}")


def _right_translation(W: WreathGroup, y: int) -> np.ndarray:
    """The permutation x -> index of x y, read from lamp codes with no
    table: (m, b)(m_y, b_y) = (m ^ shift(proj b, m_y), b b_y)."""
    nb = W.B.order
    masks, rank = _lamp_order(W.Q.order)
    lamp = _lamp_shifts(W.Q, int(masks[y // nb]))[np.asarray(W.proj)]
    perm = rank[masks[:, None] ^ lamp[None, :]] * nb + W.B.mul_table[:, y % nb][None, :]
    return perm.reshape(-1)


# -- functions and kernels ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """A function from a finite group into R^d, one row per element.

    For a WreathGroup, rows follow the canonical enumeration of
    :func:`wreath_indexed_group`.  A 1-D array is accepted and treated
    as d = 1.
    """

    group: GroupLike
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, np.newaxis]
        if vals.ndim != 2:
            raise InvalidInputError("function values must be a vector or a matrix")
        if vals.shape[0] != _order(self.group):
            raise InvalidInputError(
                f"function has {vals.shape[0]} rows for a group of order {_order(self.group)}"
            )
        if vals.shape[1] < 1:
            raise InvalidInputError("function dimension must be at least 1")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("function values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class KernelFunction:
    """A scalar kernel on a finite group, one value per element."""

    group: GroupLike
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] != _order(self.group):
            raise InvalidInputError("kernel needs one scalar per group element")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("kernel values must be finite")
        object.__setattr__(self, "values", vals)


def _order(group: GroupLike) -> int:
    if isinstance(group, (FiniteGroupTable, WreathGroup)):
        return group.order
    raise InvalidInputError(f"not a group object: {type(group).__name__}")


# -- the two energy forms ----------------------------------------------------


def _displacement_sum(W: WreathGroup, vals: np.ndarray, members) -> float:
    total = 0.0
    for y in members:
        diff = vals - vals[_right_translation(W, y)]
        total += float(np.sum(diff * diff))
    return total


def relative_form_lhs(f: GroupFunction) -> float:
    """(1/|X|) * sum over (x, y) in W x X of ||f(x) - f(xy)||^2, W the
    wreath group of f."""
    x_idx = _form_members(f.group)[1]
    return _displacement_sum(f.group, f.values, x_idx) / len(x_idx)


def relative_form_rhs(f: GroupFunction) -> float:
    """Sum over (x, s) in W x Sigma of ||f(x) - f(xs)||^2, W the wreath
    group of f, with no normalization."""
    return _displacement_sum(f.group, f.values, _form_members(f.group)[0])


def _character_blocks(W: WreathGroup, members) -> np.ndarray:
    """Block S, for every lamp mask S, of the form sum over members y of
    ||u - u(. y)||^2 on the functions chi_S(m) g(b), as a
    (2^|Q|, |B|, |B|) stack: sum over y of 2I - T_y - T_y^T with
    T_y[b, b b_y] = (-1)^popcount(S & shift(proj b, m_y)).
    """
    nq, nb = W.Q.order, W.B.order
    masks = _lamp_order(nq)[0]
    chars = np.arange(1 << nq)
    parity = np.bitwise_count(chars) & 1
    proj = np.asarray(W.proj)
    rows = np.arange(nb)
    blocks = np.zeros((1 << nq, nb, nb))
    for y in members:
        lamp = _lamp_shifts(W.Q, int(masks[y // nb]))[proj]
        sign = 1.0 - 2.0 * parity[chars[:, None] & lamp[None, :]]
        cols = W.B.mul_table[:, y % nb]
        blocks[:, rows, rows] += 2.0
        blocks[:, rows, cols] -= sign
        blocks[:, cols, rows] -= sign
    return blocks


@dataclass(frozen=True, eq=False)
class PoincareResult:
    """The optimal constant, a witness function attaining it, and the
    character blocks of the two scalar forms (lhs normalized by |X|).

    ``lhs_form`` and ``rhs_form`` stack block S in rows S*|B| to
    (S+1)*|B| - 1, so each has one row per group element.
    """

    constant: float
    witness: GroupFunction
    lhs_form: np.ndarray
    rhs_form: np.ndarray


def relative_poincare_constant(group: WreathGroup) -> PoincareResult:
    """The minimal C with lhs(f) <= C * rhs(f) for every f into any
    Hilbert space, on a wreath group Z/2 wr_Q B.

    Right translations commute with the left action of the lamp group
    (Z/2)^Q, so both forms split over its characters: the functions
    chi_S(m) g(b), chi_S(m) = (-1)^popcount(S & m), span one invariant
    subspace per lamp mask S, where both forms are |B| x |B| blocks (see
    :func:`_character_blocks`).  C is the largest generalized eigenvalue
    over all blocks, with block 0 restricted to the complement of the
    constants: the projector J onto the constants is subtracted from its
    lhs and added to its rhs, which moves the constants to eigenvalue -1.
    Every block goes through one batched Cholesky reduction and one
    batched symmetric eigensolve.

    Scalar functions suffice: both forms act coordinatewise on vector
    values.  The witness is the top eigenvector of the first mask, in
    integer order, whose top eigenvalue is within EIG_TOL of C, with its
    first entry above EIG_TOL made positive, lifted to chi_S(m) g(b) with
    unit norm.  It is re-evaluated through the public form operations and
    must reproduce the constant to 1e-9.

    Sigma connects W, so the rhs form is positive definite off the
    constants: B's generators reach all of B (FiniteGroupTable checks
    it); proj is surjective (WreathGroup checks it); and conjugating
    delta by (empty, b) flips the lamp at proj(b), so Sigma reaches every
    lamp too.
    """
    if not isinstance(group, WreathGroup):
        raise InvalidInputError(
            "the relative Poincare constant is solved for wreath groups only"
        )
    nq, nb = group.Q.order, group.B.order
    storage = (1 << nq) * nb * nb
    if storage > POINCARE_BLOCK_CAP:
        raise CapExceededError(
            f"character blocks of {storage} entries exceed the block cap {POINCARE_BLOCK_CAP}"
        )
    sigma_idx, x_idx = _form_members(group)
    A = _character_blocks(group, x_idx) / len(x_idx)
    B = _character_blocks(group, sigma_idx)
    J = np.full((nb, nb), 1.0 / nb)
    A0, B0 = A[0].copy(), B[0].copy()
    A[0] -= J
    B[0] += J
    # B = L L^T, and the pencil (A, B) has the eigenvalues of L^-1 A L^-T
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    pencil = np.einsum("sik,slk->sil", np.einsum("sij,sjk->sik", Linv, A), Linv)
    vals, vecs = np.linalg.eigh(pencil)
    A[0], B[0] = A0, B0
    top = vals[:, -1]
    constant = float(top.max())
    S = int(np.flatnonzero(top >= constant - EIG_TOL)[0])
    g = vecs[S, :, -1] @ Linv[S]
    g /= np.linalg.norm(g)
    if g[np.flatnonzero(np.abs(g) > EIG_TOL)[0]] < 0:
        g = -g
    masks = _lamp_order(nq)[0]
    chi = 1.0 - 2.0 * (np.bitwise_count(masks & S) & 1)
    u = np.outer(chi, g).reshape(-1) / math.sqrt(1 << nq)
    witness = GroupFunction(group, u)

    if abs(float(u.sum())) > 1e-9 * math.sqrt(u.size):
        raise VerificationError("witness is not orthogonal to constants")
    lhs = relative_form_lhs(witness)
    rhs = relative_form_rhs(witness)
    if abs(lhs - constant * rhs) > EIG_TOL * max(1.0, rhs):
        raise VerificationError(
            f"witness reproduces {lhs / rhs if rhs else math.nan:.12g}, "
            f"eigensolver reported {constant:.12g}"
        )
    return PoincareResult(
        constant=constant,
        witness=witness,
        lhs_form=A.reshape(-1, nb),
        rhs_form=B.reshape(-1, nb),
    )


# -- conditionally negative definite kernels --------------------------------


def _cnd_blocks(psi: KernelFunction) -> np.ndarray:
    """The kernel matrix M[x, y] = psi(y^-1 x), symmetrised, as its
    (2^|Q|, |B|, |B|) stack of lamp-character blocks, block 0
    double-centred (see :func:`is_cnd`).  A table group is one block."""
    table = resolve_group(psi.group)
    if isinstance(psi.group, WreathGroup):
        rank, nb = _lamp_order(psi.group.Q.order)[1], psi.group.B.order
    else:
        rank, nb = np.zeros(1, dtype=np.int64), table.order
    # F[m, b1, b2] = psi((0, b2)^-1 (m, b1)): elements 0..|B|-1 are (0, b)
    gather = table.mul_table[table.inv[:nb]].reshape(nb, rank.size, nb)[:, rank]
    blocks = psi.values[gather].transpose(1, 2, 0)
    # the Walsh-Hadamard transform over the mask axis, one butterfly per lamp
    half = 1
    while half < rank.size:
        pairs = blocks.reshape(-1, 2, half, nb, nb)
        blocks = np.stack([pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]], axis=1)
        half *= 2
    blocks = blocks.reshape(rank.size, nb, nb)
    blocks = (blocks + blocks.transpose(0, 2, 1)) / 2.0
    blocks[0] -= blocks[0].mean(axis=0)[np.newaxis, :]
    blocks[0] -= blocks[0].mean(axis=1)[:, np.newaxis]
    return blocks


def is_cnd(psi: KernelFunction, tol: float = EIG_TOL) -> bool:
    """True iff psi is conditionally negative definite: for every
    mean-zero vector c, sum of c_x c_y psi(y^-1 x) <= tol, tested as
    negative semidefiniteness on the mean-zero subspace.

    The matrix M[x, y] = psi(y^-1 x) commutes with the left action
    (m, b) -> (m ^ n, b) of the lamp group, so on a wreath group its
    spectrum is the union of 2^|Q| blocks of size |B| x |B|, one per
    lamp character chi_S(m) = (-1)^popcount(S & m):

        block S = sum over m of chi_S(m) F[m],  F[m, b1, b2] = M[(m, b1), (0, b2)],

    all formed at once by one Walsh-Hadamard transform over the mask
    axis.  A table group is the one-block case, F = M.  The constants
    lie in block 0 alone, so only block 0 is double-centred, P B_0 P with
    P = I - J on R^|B|: its spectrum is that of B_0 on the mean-zero
    vectors plus a 0 for the constants, which never decides the
    comparison with tol >= 0.  The test reads the top eigenvalue over
    all blocks.

    Preconditions psi(identity) = 0 and psi(g^-1) = psi(g) are enforced
    up to tol scaled by the kernel magnitude.
    """
    table = resolve_group(psi.group)
    vals = psi.values
    scale = max(1.0, float(np.abs(vals).max()))
    if abs(float(vals[table.identity])) > tol * scale:
        raise InvalidInputError("kernel does not vanish at the identity")
    if float(np.abs(vals - vals[table.inv]).max()) > tol * scale:
        raise InvalidInputError("kernel is not symmetric under inversion")
    top = float(np.linalg.eigvalsh(_cnd_blocks(psi))[:, -1].max())
    return top <= tol * scale


def cnd_from_function(f: GroupFunction) -> KernelFunction:
    """The kernel psi(w) = sum over x of ||f(x) - f(xw)||^2.

    This is the squared displacement of f under the right regular
    action, hence always conditionally negative definite; the output is
    verified by is_cnd before it is returned.  The translates f(. w) are
    gathered for as many w at once as GATHER_CAP entries allow.
    """
    table = resolve_group(f.group)
    vals = f.values
    n = table.order
    right = table.mul_table.T  # right[w] is x -> x w
    psi = np.empty(n)
    step = max(1, GATHER_CAP // vals.size)
    for w in range(0, n, step):
        diff = np.subtract(vals[np.newaxis], vals[right[w : w + step]], order="C")
        # one contiguous row per w sums in the order of the per-w loop
        psi[w : w + step] = np.sum((diff * diff).reshape(-1, vals.size), axis=1)
    kern = KernelFunction(f.group, psi)
    if not is_cnd(kern, tol=1e-8):
        raise VerificationError("displacement kernel failed the negativity test")
    return kern


# -- randomized verification -------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelativeInequalityReport:
    """Outcome of the randomized inequality replay.

    ``ok`` refers to the mean-over-X display lhs <= C * rhs, the
    inequality the constant actually certifies.  The sup-over-X ratios
    (Eq-style, sup_X psi / sup_Sigma psi) are reported alongside; their
    optimal constant is generally LARGER than the display constant, so
    exceeding C there is informational, not a failure.
    """

    ok: bool
    constant: float
    trials: int
    seed: int
    checked: int
    degenerate: int
    violations: int
    worst_ratio: float
    sup_ratio_violations: int
    worst_sup_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_replay(W: WreathGroup, trials: int, seed: int) -> None:
    """Reject a replay that :func:`verify_relative_inequality` cannot run:
    negative trials or seed, or a group above the table cap."""
    if trials < 0:
        raise InvalidInputError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    _check_table_cap(W)


def verify_relative_inequality(
    W: WreathGroup,
    constant: float,
    witness: GroupFunction,
    trials: int = 200,
    seed: int = 0,
) -> RelativeInequalityReport:
    """Replay the inequality on random functions.

    Probes are a constant function (reported degenerate, its ratio is
    0/0), the indicator of the identity (element 0), the eigensolver
    ``witness``, and ``trials`` random functions of dimension cycling
    through 1, 2, 3.  For each probe the displacement kernel is also
    formed and the sup-over-X / sup-over-Sigma ratio recorded.
    """
    if not (constant > 0):
        raise InvalidInputError("the constant must be positive")
    sigma_idx, x_idx = _form_members(W)
    check_replay(W, trials, seed)
    n = W.order

    probes: list[np.ndarray] = [np.ones((n, 1)), np.zeros((n, 1))]
    probes[1][0, 0] = 1.0
    probes.append(witness.values)
    rng = np.random.default_rng(seed)
    for k in range(trials):
        probes.append(rng.standard_normal((n, 1 + k % 3)))

    checked = degenerate = violations = sup_violations = 0
    worst_ratio = 0.0
    worst_sup = 0.0
    for raw in probes:
        f = GroupFunction(W, raw)
        lhs = relative_form_lhs(f)
        rhs = relative_form_rhs(f)
        slack = EIG_TOL * max(1.0, rhs)
        if rhs <= slack:
            degenerate += 1
            continue
        checked += 1
        worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > constant * rhs + slack:
            violations += 1
        psi = cnd_from_function(f).values
        sup_x = float(psi[list(x_idx)].max())
        sup_sigma = float(psi[list(sigma_idx)].max())
        if sup_sigma > slack:
            worst_sup = max(worst_sup, sup_x / sup_sigma)
            if sup_x > constant * sup_sigma + slack:
                sup_violations += 1
    return RelativeInequalityReport(
        ok=violations == 0,
        constant=float(constant),
        trials=trials,
        seed=seed,
        checked=checked,
        degenerate=degenerate,
        violations=violations,
        worst_ratio=worst_ratio,
        sup_ratio_violations=sup_violations,
        worst_sup_ratio=worst_sup,
    )
