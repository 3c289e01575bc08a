"""Quadratic forms on finite groups, the optimal relative Poincare
constant, and positive / conditionally negative definite kernels.

The central object is the pair of energy forms attached to a finite
group W with a distinguished subset X and a symmetric generating set
Sigma:

    lhs(f) = (1/|X|) * sum over (x, y) in W x X of ||f(x) - f(xy)||^2
    rhs(f) =           sum over (x, s) in W x Sigma of ||f(x) - f(xs)||^2

The optimal constant C with lhs <= C * rhs for every Hilbert-valued f
is computed exactly as a generalized eigenvalue: both forms decouple
coordinatewise, so the vector-valued supremum equals the scalar one,
and on the orthogonal complement of the constants the rhs form is
positive definite whenever Sigma generates.

Groups enter either as a FiniteGroupTable or as a WreathGroup; wreath
groups are enumerated once into an indexed table, elements sorted by
(sorted lamp support, base element index).

Tolerance policy: eigenvalue comparisons use 1e-9 absolute margins;
kernel preconditions scale the margin by the magnitude of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    InvalidInputError,
    VerificationError,
)
from .expander_zoo import FiniteGroupTable
from .graph_core import LabeledGraph, laplacian_lambda2
from .wreath import RelativeSubset, WreathElement, WreathGroup, wreath_mul, x_subset

#: largest group order the dense eigensolver path will accept
POINCARE_ORDER_CAP = 2048

#: absolute eigenvalue tolerance (see module docstring)
EIG_TOL = 1e-9

GroupLike = Union[FiniteGroupTable, WreathGroup]


# -- groups as indexed tables ------------------------------------------------


@lru_cache(maxsize=16)
def wreath_indexed_group(W: WreathGroup) -> tuple[FiniteGroupTable, tuple[WreathElement, ...]]:
    """Enumerate a WreathGroup into a FiniteGroupTable.

    Elements are sorted by (sorted support, base index), so position 0
    is the identity.  The table's generator set is delta followed by
    the base-group generators, and element names read ``support|b``.
    """
    if W.order > POINCARE_ORDER_CAP:
        raise CapExceededError(
            f"wreath group of order {W.order} exceeds the table cap {POINCARE_ORDER_CAP}"
        )
    elems = sorted(
        (
            WreathElement(frozenset(q for q in range(W.Q.order) if mask >> q & 1), b)
            for mask in range(1 << W.Q.order)
            for b in range(W.B.order)
        ),
        key=WreathElement.key,
    )
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    mul = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            mul[i, j] = index[wreath_mul(W, x, y)]
    names = [
        "{" + ",".join(str(q) for q in sorted(x.config)) + "}|" + W.B.name(x.b)
        for x in elems
    ]
    gens = tuple(index[g] for g in W.generators)
    table = FiniteGroupTable(mul, generators=gens, element_names=names)
    return table, tuple(elems)


def _resolve(group: GroupLike) -> tuple[FiniteGroupTable, Optional[dict[WreathElement, int]]]:
    if isinstance(group, FiniteGroupTable):
        return group, None
    if isinstance(group, WreathGroup):
        table, elems = wreath_indexed_group(group)
        return table, {x: i for i, x in enumerate(elems)}
    raise InvalidInputError(f"not a group object: {type(group).__name__}")


def _member_indices(table, wreath_index, members) -> tuple[int, ...]:
    if isinstance(members, RelativeSubset):
        members = members.elements
    out = []
    for m in members:
        if isinstance(m, WreathElement):
            if wreath_index is None:
                raise InvalidInputError("wreath elements given for a plain table group")
            if m not in wreath_index:
                raise InvalidInputError(f"{m} is not an element of the group")
            out.append(wreath_index[m])
        elif isinstance(m, (int, np.integer)):
            if not (0 <= int(m) < table.order):
                raise InvalidInputError(f"element index {m} out of range")
            out.append(int(m))
        else:
            raise InvalidInputError(f"subset member {m!r} is not a group element")
    if not out:
        raise InvalidInputError("subset is empty")
    return tuple(out)


def _default_sigma(group: GroupLike, table):
    if isinstance(group, WreathGroup):
        return group.generators
    if not table.generators:
        raise InvalidInputError("group table carries no generating set")
    return table.generators


def _default_x(group: GroupLike):
    if isinstance(group, WreathGroup):
        return x_subset(group)
    raise InvalidInputError("an explicit X subset is required for a table group")


def resolve_group(group: GroupLike) -> FiniteGroupTable:
    """The canonical indexed multiplication table of a group given
    either as a table or as a wreath product."""
    return _resolve(group)[0]


def subset_indices(group: GroupLike, members) -> tuple[int, ...]:
    """Table indices of the given members (element indices, wreath
    elements, or a RelativeSubset)."""
    table, widx = _resolve(group)
    return _member_indices(table, widx, members)


def _canonical_subsets(group: GroupLike, sigma, x_set, table, wreath_index):
    """Index forms of Sigma (default: stored generators) and X (default:
    the single-lamp subset of a wreath group)."""
    if sigma is None:
        sigma = _default_sigma(group, table)
    if x_set is None:
        x_set = _default_x(group)
    return (
        _member_indices(table, wreath_index, sigma),
        _member_indices(table, wreath_index, x_set),
    )


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

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


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


def _function_on(group: GroupLike, f: GroupFunction) -> np.ndarray:
    if f.values.shape[0] != _order(group):
        raise InvalidInputError("function and group dimensions do not match")
    return f.values


# -- the two energy forms ----------------------------------------------------


def _displacement_sum(table, vals: np.ndarray, members) -> float:
    total = 0.0
    for y in members:
        diff = vals - vals[table.mul_table[:, y]]
        total += float(np.sum(diff * diff))
    return total


def relative_form_lhs(group: GroupLike, x_set, f: GroupFunction) -> float:
    """(1/|X|) * sum over (x, y) in W x X of ||f(x) - f(xy)||^2."""
    table, widx = _resolve(group)
    if x_set is None:
        x_set = _default_x(group)
    members = _member_indices(table, widx, x_set)
    vals = _function_on(group, f)
    return _displacement_sum(table, vals, members) / len(members)


def relative_form_rhs(group: GroupLike, sigma, f: GroupFunction) -> float:
    """Sum over (x, s) in W x Sigma of ||f(x) - f(xs)||^2.

    Sigma is used exactly as given: s and s^-1 are counted separately
    when both are listed, and no normalization is applied.
    """
    table, widx = _resolve(group)
    if sigma is None:
        sigma = _default_sigma(group, table)
    members = _member_indices(table, widx, sigma)
    vals = _function_on(group, f)
    return _displacement_sum(table, vals, members)


def _form_matrix(table, members) -> np.ndarray:
    """Matrix of u -> sum over members y of ||u - u(.y)||^2 (PSD)."""
    n = table.order
    M = np.zeros((n, n))
    rows = np.arange(n)
    for y in members:
        perm = table.mul_table[:, y]
        M[rows, rows] += 2.0
        np.add.at(M, (rows, perm), -1.0)
        np.add.at(M, (perm, rows), -1.0)
    return M


@dataclass(frozen=True, eq=False)
class PoincareResult:
    """The optimal constant, a witness function attaining it, and the
    two scalar quadratic-form matrices (lhs normalized by |X|)."""

    constant: float
    witness: GroupFunction
    lhs_form: np.ndarray
    rhs_form: np.ndarray


def relative_poincare_constant(
    group: GroupLike, sigma=None, x_set=None
) -> PoincareResult:
    """The minimal C with lhs(f) <= C * rhs(f) for every f into any
    Hilbert space.

    Computed as the largest generalized Rayleigh quotient of the two
    form matrices over the orthogonal complement of the constants,
    where the rhs form is positive definite as soon as Sigma connects
    the group.  Scalar functions suffice: both forms act coordinatewise
    on vector values, so the vector supremum is attained at a scalar
    eigenfunction.  The witness is re-evaluated through the public form
    operations and must reproduce the constant to 1e-9.
    """
    table, widx = _resolve(group)
    n = table.order
    if n > POINCARE_ORDER_CAP:
        raise CapExceededError(f"group order {n} exceeds the eigensolver cap")
    if n < 2:
        raise InvalidInputError("the trivial group admits no nonconstant functions")
    sigma_idx, x_idx = _canonical_subsets(group, sigma, x_set, table, widx)
    if len(table.generated_set(sigma_idx)) != n:
        raise DisconnectedGraphError(
            "the generating set does not connect the group; the rhs form is degenerate"
        )

    A = _form_matrix(table, x_idx) / len(x_idx)
    B = _form_matrix(table, sigma_idx)
    V = scipy.linalg.null_space(np.ones((1, n)))
    eigvals, eigvecs = scipy.linalg.eigh(V.T @ A @ V, V.T @ B @ V)
    constant = float(eigvals[-1])
    u = V @ eigvecs[:, -1]
    u /= np.linalg.norm(u)
    witness = GroupFunction(group, u)

    if abs(float(u.sum())) > 1e-9 * math.sqrt(n):
        raise VerificationError("witness is not orthogonal to constants")
    lhs = relative_form_lhs(group, x_idx, witness)
    rhs = relative_form_rhs(group, sigma_idx, witness)
    if abs(lhs - constant * rhs) > EIG_TOL * max(1.0, rhs):
        raise VerificationError(
            f"witness reproduces {lhs / rhs if rhs else math.nan:.12g}, "
            f"eigensolver reported {constant:.12g}"
        )
    return PoincareResult(constant=constant, witness=witness, lhs_form=A, rhs_form=B)


# -- positive definite and conditionally negative definite kernels ----------


def _kernel_matrix(table, values: np.ndarray) -> np.ndarray:
    # row y of mul_table[inv] is x -> inv(y) x, so transposing puts
    # phi(inv(y) x) at position (x, y)
    return values[table.mul_table[table.inv]].T


def is_positive_definite(phi: KernelFunction, tol: float = EIG_TOL) -> bool:
    """True iff the translation matrix phi(y^-1 x) is symmetric with
    smallest eigenvalue >= -tol."""
    table, _ = _resolve(phi.group)
    M = _kernel_matrix(table, phi.values)
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > tol * scale:
        return False
    return float(scipy.linalg.eigvalsh((M + M.T) / 2.0)[0]) >= -tol * scale


def is_cnd(psi: KernelFunction, tol: float = EIG_TOL) -> bool:
    """True iff psi is conditionally negative definite: for every
    mean-zero vector c, sum of c_x c_y psi(y^-1 x) <= tol, tested as
    negative semidefiniteness on the mean-zero subspace.

    Preconditions psi(identity) = 0 and psi(g^-1) = psi(g) are enforced
    up to tol scaled by the kernel magnitude.
    """
    table, _ = _resolve(psi.group)
    vals = psi.values
    scale = max(1.0, float(np.abs(vals).max()))
    if abs(float(vals[table.identity])) > tol * scale:
        raise InvalidInputError("kernel does not vanish at the identity")
    if float(np.abs(vals - vals[table.inv]).max()) > tol * scale:
        raise InvalidInputError("kernel is not symmetric under inversion")
    M = _kernel_matrix(table, vals)
    M = (M + M.T) / 2.0
    V = scipy.linalg.null_space(np.ones((1, table.order)))
    top = float(scipy.linalg.eigvalsh(V.T @ M @ V)[-1])
    return top <= tol * scale


def cnd_from_function(group: GroupLike, f: GroupFunction) -> KernelFunction:
    """The kernel psi(w) = sum over x of ||f(x) - f(xw)||^2.

    This is the squared displacement of f under the right regular
    action, hence always conditionally negative definite; the output is
    verified by is_cnd before it is returned.
    """
    table, _ = _resolve(group)
    vals = _function_on(group, f)
    psi = np.empty(table.order)
    for w in range(table.order):
        diff = vals - vals[table.mul_table[:, w]]
        psi[w] = float(np.sum(diff * diff))
    kern = KernelFunction(group, psi)
    if not is_cnd(kern, tol=1e-8):
        raise VerificationError("displacement kernel failed the negativity test")
    return kern


def schoenberg_transform(psi: KernelFunction, t: float) -> KernelFunction:
    """The pointwise exponential transform exp(-t * psi), t >= 0."""
    if not (t >= 0):
        raise InvalidInputError("transform parameter must be nonnegative")
    return KernelFunction(psi.group, np.exp(-t * psi.values))


def schoenberg_bound(eps: float, delta: float) -> float:
    """The constant -log(eps) / delta valid in the sup-over-X bound
    for conditionally negative definite kernels (0 < eps <= 1, delta > 0)."""
    if not (0.0 < eps <= 1.0):
        raise InvalidInputError("eps must lie in (0, 1]")
    if not (delta > 0.0):
        raise InvalidInputError("delta must be positive")
    return -math.log(eps) / delta


def spectral_gap(cayley: LabeledGraph) -> float:
    """Second-smallest Laplacian eigenvalue of a connected graph, the
    finite-quotient stand-in for a uniform Kazhdan-type constant."""
    return laplacian_lambda2(cayley)


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
        return {
            "ok": self.ok,
            "constant": self.constant,
            "trials": self.trials,
            "seed": self.seed,
            "checked": self.checked,
            "degenerate": self.degenerate,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "sup_ratio_violations": self.sup_ratio_violations,
            "worst_sup_ratio": self.worst_sup_ratio,
        }


def verify_relative_inequality(
    group: GroupLike,
    sigma,
    x_set,
    constant: float,
    trials: int = 200,
    seed: int = 0,
    include_witness: bool = True,
) -> RelativeInequalityReport:
    """Replay the inequality on random functions.

    Probes are a constant function (reported degenerate, its ratio is
    0/0), the indicator of the identity, optionally the eigensolver
    witness, and ``trials`` random functions of dimension cycling
    through 1, 2, 3.  For each probe the displacement kernel is also
    formed and the sup-over-X / sup-over-Sigma ratio recorded.
    """
    if not (constant > 0):
        raise InvalidInputError("the constant must be positive")
    table, widx = _resolve(group)
    n = table.order
    sigma_idx, x_idx = _canonical_subsets(group, sigma, x_set, table, widx)

    probes: list[np.ndarray] = [np.ones((n, 1)), np.zeros((n, 1))]
    probes[1][table.identity, 0] = 1.0
    if include_witness and n <= POINCARE_ORDER_CAP:
        probes.append(relative_poincare_constant(group, sigma_idx, x_idx).witness.values)
    rng = np.random.default_rng(seed)
    for k in range(trials):
        probes.append(rng.standard_normal((n, 1 + k % 3)))

    checked = degenerate = violations = sup_violations = 0
    worst_ratio = 0.0
    worst_sup = 0.0
    for raw in probes:
        f = GroupFunction(group, raw)
        lhs = relative_form_lhs(group, x_idx, f)
        rhs = relative_form_rhs(group, sigma_idx, f)
        slack = EIG_TOL * max(1.0, rhs)
        if rhs <= slack:
            degenerate += 1
            continue
        checked += 1
        worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > constant * rhs + slack:
            violations += 1
        psi = cnd_from_function(group, f).values
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
