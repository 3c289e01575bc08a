"""Finite group tables, Cayley graphs, and the Lubotzky-Phillips-Sarnak
expander construction over PGL2(q).

Only the quadratic-nonresidue branch of the LPS family is implemented:
p and q must be distinct primes congruent to 1 mod 4 with Legendre
symbol (p|q) = -1, which makes the graph a bipartite Cayley graph of
PGL2(q).  The residue/PSL2 branch is rejected.  PGL2(q) gets no
multiplication table: the graph is built from the p + 1 right-product
columns x -> x s of its generators, and checked against them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, InvalidInputError
from .graph_core import (
    LabeledGraph,
    adjacency_spectrum,
    build_graph,
    component_roots,
    diameter,
    girth,
    two_coloring,
)

#: PGL2(q) has q(q^2 - 1) elements; q above this needs an explicit override.
LPS_Q_CAP = 61


class FiniteGroupTable:
    """A finite group given by its full multiplication table.

    Parameters
    ----------
    mul : (order, order) integer array
        ``mul[a, b]`` is the index of the product ab.
    generators : iterable of element indices
        Must exclude the identity, be closed under inverse, and
        generate the whole group.
    element_names : optional list of display strings

    The constructor locates the identity, derives inverses, and checks
    group axioms: associativity by Light's test on the generators (on
    every element when there are none) when order <= 256, else on 1000
    seeded random triples.
    """

    __slots__ = ("order", "mul_table", "inv", "identity", "generators", "element_names")

    def __init__(
        self,
        mul: Sequence[Sequence[int]] | np.ndarray,
        generators: Iterable[int] = (),
        element_names: Optional[Sequence[str]] = None,
    ):
        table = np.asarray(mul, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidInputError("multiplication table must be square")
        n = table.shape[0]
        if n < 1:
            raise InvalidInputError("group must be nonempty")
        if table.min() < 0 or table.max() >= n:
            raise InvalidInputError("multiplication table entries out of range")
        self.order = int(n)
        self.mul_table = table

        idx = np.arange(n)
        identity = None
        for e in range(n):
            if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
                identity = e
                break
        if identity is None:
            raise InvalidInputError("table has no two-sided identity")
        self.identity = identity

        inv = np.full(n, -1, dtype=np.int64)
        for x in range(n):
            hits = np.flatnonzero(table[x] == identity)
            if hits.size != 1 or table[hits[0], x] != identity:
                raise InvalidInputError(f"element {x} lacks a unique two-sided inverse")
            inv[x] = hits[0]
        self.inv = inv

        gens = tuple(dict.fromkeys(int(s) for s in generators))
        for s in gens:
            if not (0 <= s < n):
                raise InvalidInputError("generator index out of range")
            if s == identity:
                raise InvalidInputError("identity is not allowed as a generator")
            if int(inv[s]) not in gens:
                raise InvalidInputError(f"generator set not closed under inverse (element {s})")
        self.generators = gens
        self._check_associativity()
        if element_names is not None:
            if len(element_names) != n:
                raise InvalidInputError("element_names length mismatch")
            self.element_names = tuple(str(s) for s in element_names)
        else:
            self.element_names = tuple(str(i) for i in range(n))

        # an empty generator list is allowed for tables used only for
        # arithmetic; cayley_graph insists on a nonempty one.  In a finite
        # group the elements x s reach from the identity are the subgroup
        # the generators span: the identity's component over x -> x s
        if gens:
            root = component_roots(np.tile(idx, len(gens)), table[:, list(gens)].T.reshape(-1), n)
            reached = int(np.count_nonzero(root == root[identity]))
            if reached != n:
                raise InvalidInputError(f"generators only reach {reached} of {n} elements")

    def _check_associativity(self) -> None:
        table = self.mul_table
        n = self.order
        if n <= 256:
            # Light's test: the elements s with (xs)y = x(sy) for all x, y
            # are closed under products, so checking a generating set (the
            # constructor then checks that it generates) proves the rest
            for s in self.generators or range(n):
                if not np.array_equal(table[table[:, s]], table[:, table[s]]):
                    raise InvalidInputError("multiplication table is not associative")
        else:
            rng = random.Random(12345)
            for _ in range(1000):
                a = rng.randrange(n)
                b = rng.randrange(n)
                c = rng.randrange(n)
                if table[table[a, b], c] != table[a, table[b, c]]:
                    raise InvalidInputError("multiplication table is not associative")

    # -- accessors ---------------------------------------------------------

    def right(self, s: int) -> np.ndarray:
        """x s for every element x: column s of the table."""
        return self.mul_table[:, s]

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def name(self, x: int) -> str:
        return self.element_names[x]

    def __repr__(self) -> str:
        return f"FiniteGroupTable(order={self.order}, generators={len(self.generators)})"


def homomorphism_defect(
    f: Sequence[int] | np.ndarray, source: FiniteGroupTable, target: FiniteGroupTable
) -> Optional[tuple[int, int]]:
    """The first (a, b) in row-major order with f(ab) != f(a) f(b), or
    None when ``f`` (source element -> target element) is a homomorphism."""
    f = np.asarray(f, dtype=np.int64)
    bad = np.flatnonzero(f[source.mul_table] != target.mul_table[f[:, None], f[None, :]])
    return None if bad.size == 0 else divmod(int(bad[0]), source.order)


# -- Cayley graphs ---------------------------------------------------------


def cayley_graph(
    group: FiniteGroupTable | _Pgl2,
    labels: Optional[dict[int, str]] = None,
) -> LabeledGraph:
    """Cayley graph of a group on its stored symmetric generator set.

    Every element g and generator s contribute the dart g -> gs reading
    s; the reverse dart reads the formal inverse.  Each non-involutive
    generator pair {s, s^-1} yields one undirected edge per element
    (emitted from the smaller-indexed generator of the pair), and an
    involutive generator yields one undirected edge per unordered pair
    {g, gs}, never two.  Each pair's edges come from the one column
    ``group.right(s)``, checked to be undone by ``group.right(s^-1)``.

    Parameters
    ----------
    labels : optional dict mapping a generator index to a base symbol.
        Missing pairs are labeled ``s0, s1, ...`` in order of first
        appearance in ``group.generators``.
    """
    gens = group.generators
    if not gens:
        raise InvalidInputError("cayley_graph needs a nonempty generator set")
    base_of: dict[int, str] = {}
    auto = 0
    for s in gens:
        if s in base_of:
            continue
        t = group.inverse(s)
        if labels and s in labels:
            base = labels[s]
        elif labels and t in labels and t != s:
            base = labels[t]
            s, t = t, s
        else:
            base = f"s{auto}"
            auto += 1
        base_of[s] = base
        base_of[t] = base  # the pair shares one base symbol; direction disambiguates

    n = group.order
    every = np.arange(n)
    emitted_pairs = set()
    heads, tails, alphabet = [], [], []
    for s in gens:
        t = group.inverse(s)
        pair = (min(s, t), max(s, t))
        if pair in emitted_pairs:
            continue
        emitted_pairs.add(pair)
        canon = pair[0]
        base = base_of[canon]
        alphabet.append(base)
        if canon != s and canon != t:
            raise InvalidInputError("generator pairing is inconsistent")
        col = group.right(canon)
        if not np.array_equal(group.right(group.inverse(canon))[col], every):
            raise InvalidInputError(f"right product by generator {canon} is not undone by its inverse")
        if s == t and (col == every).any():
            raise InvalidInputError("generator fixes an element; table is not a group")
        keep = every if s != t else np.flatnonzero(every < col)
        heads.append(keep)
        tails.append(col[keep])
    if len(set(alphabet)) != len(alphabet):
        raise InvalidInputError("duplicate base symbol across generator pairs")
    labels = [base for base, h in zip(alphabet, heads) for _ in range(h.size)]
    return build_graph(
        n, alphabet=alphabet, columns=(np.concatenate(heads).tolist(), np.concatenate(tails).tolist(), labels)
    )


def is_bipartite(g: LabeledGraph) -> bool:
    """Two-colorability (see :func:`graph_core.two_coloring`)."""
    return two_coloring(g) is not None


def _is_cayley_graph_of(g: LabeledGraph, group: FiniteGroupTable | _Pgl2) -> bool:
    """True when the darts out of every vertex x lead exactly to the
    products x s, s over the group's generators, counted with
    multiplicity, read from the columns ``group.right(s)``.  Then every
    left translation x -> hx is an automorphism of ``g``, so ``g`` is
    vertex-transitive."""
    gens = np.asarray(group.generators, dtype=np.int64)
    n = group.order
    if g.vertex_count != n or np.any(np.diff(g.first) != gens.size):
        return False
    want = np.sort(np.stack([group.right(s) for s in gens], axis=1), axis=1)
    return bool(np.array_equal(np.sort(g.dst[g.out].reshape(n, -1), axis=1), want))


# -- LPS graphs ------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Trial division; adequate for desk-scale parameters."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_minus_one(q: int) -> int:
    """A square root of -1 mod q (q prime, q = 1 mod 4), via the
    smallest quadratic non-residue; deterministic."""
    for n in range(2, q):
        if legendre_symbol(n, q) == -1:
            i = pow(n, (q - 1) // 4, q)
            if (i * i) % q == q - 1:
                return i
            raise InvalidInputError(f"{q} is not 1 mod 4")
    raise InvalidInputError(f"no non-residue found; {q} is not an odd prime")


@dataclass(frozen=True)
class LpsParams:
    """Validated parameter pair for the LPS construction."""

    p: int
    q: int
    legendre: int

    @staticmethod
    def validate(p: int, q: int) -> "LpsParams":
        for name, v in (("p", p), ("q", q)):
            if not is_prime(v):
                raise InvalidInputError(f"{name} = {v} is not prime")
            if v % 4 != 1:
                raise InvalidInputError(f"{name} = {v} is not congruent to 1 mod 4")
        if p == q:
            raise InvalidInputError("p and q must be distinct")
        sym = legendre_symbol(p, q)
        if sym != -1:
            raise InvalidInputError(
                f"Legendre symbol ({p}|{q}) = {sym}; only the -1 (PGL) case is supported"
            )
        return LpsParams(p=p, q=q, legendre=sym)


def lps_quadruples(p: int) -> list[tuple[int, int, int, int]]:
    """All (a0, a1, a2, a3) with a0 odd positive, a1, a2, a3 even,
    and a0^2 + a1^2 + a2^2 + a3^2 = p; there are exactly p + 1."""
    out = []
    r = math.isqrt(p)
    for a0 in range(1, r + 1, 2):
        rest0 = p - a0 * a0
        r1 = math.isqrt(rest0)
        for a1 in range(-(r1 - r1 % 2), r1 + 1, 2):
            rest1 = rest0 - a1 * a1
            r2 = math.isqrt(rest1)
            for a2 in range(-(r2 - r2 % 2), r2 + 1, 2):
                rest2 = rest1 - a2 * a2
                a3 = math.isqrt(rest2)
                if a3 * a3 == rest2 and a3 % 2 == 0:
                    out.append((a0, a1, a2, a3))
                    if a3 != 0:
                        out.append((a0, a1, a2, -a3))
    out.sort()
    if len(out) != p + 1:
        raise InvalidInputError(
            f"expected {p + 1} generator quadruples for p={p}, found {len(out)}"
        )
    return out


class _Pgl2:
    """PGL2(q) on a symmetric generator set, with elements canonicalized
    so the first nonzero matrix entry in row-major order equals 1 and
    indexed in sorted order.  No table is built: ``right(s)`` forms the
    products x s for every x at once from the matrix entries.

    The index of a canonical form is closed: the q(q - 1) forms
    (0, 1, c, d), c != 0, come first, (0, 1, c, d) at (c - 1) q + d, then
    (1, b, c, d) with d != bc at q(q - 1) + (bq + c)(q - 1) + d - [d > bc],
    the bc that d skips taken mod q."""

    def __init__(self, q: int, generators: Sequence[tuple[int, int, int, int]] = ()):
        self.q = q
        c, d = np.divmod(np.arange(q, q * q), q)
        bcd = np.stack(np.unravel_index(np.arange(q**3), (q, q, q)), axis=1).astype(np.int64)
        bcd = bcd[bcd[:, 2] != bcd[:, 0] * bcd[:, 1] % q]
        self.elements = np.concatenate([
            np.stack([np.zeros_like(c), np.ones_like(c), c, d], axis=1),
            np.column_stack([np.ones(len(bcd), dtype=np.int64), bcd]),
        ])
        self.order = len(self.elements)
        self.modinv = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
        self.identity = self.canonical_index(1, 0, 0, 1)
        self.generators = tuple(self.canonical_index(*m) for m in generators)

    def _indices(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Element indices of the matrices [[a, b], [c, d]], entries
        reduced mod q, each scaled by the inverse of its first nonzero
        entry (b when a = 0, as the determinant ad - bc is nonzero)."""
        q = self.q
        if np.any((a * d - b * c) % q == 0):
            raise InvalidInputError("product escaped the canonical element list")
        s = self.modinv[np.where(a != 0, a, b)]
        b, c, d = b * s % q, c * s % q, d * s % q
        return np.where(a == 0, (c - 1) * q + d, q * (q - 1) + (b * q + c) * (q - 1) + d - (d > b * c % q))

    def canonical_index(self, a: int, b: int, c: int, d: int) -> int:
        q = self.q
        if (a * d - b * c) % q == 0:
            raise InvalidInputError("matrix is singular mod q")
        return int(self._indices(*(np.array([e % q]) for e in (a, b, c, d)))[0])

    def inverse(self, x: int) -> int:
        """The adjugate [[d, -b], [-c, a]] of x, canonicalized."""
        a, b, c, d = self.elements[x].tolist()
        return self.canonical_index(d, -b, -c, a)

    def right(self, s: int) -> np.ndarray:
        """x s for every element x, as one index array."""
        q = self.q
        a1, b1, c1, d1 = self.elements.T
        a2, b2, c2, d2 = self.elements[s].tolist()
        return self._indices(
            (a1 * a2 + b1 * c2) % q, (a1 * b2 + b1 * d2) % q, (c1 * a2 + d1 * c2) % q, (c1 * b2 + d1 * d2) % q
        )


def lps_graph(p: int, q: int, allow_large: bool = False) -> tuple[LabeledGraph, _Pgl2]:
    """The LPS graph X^{p,q}: Cayley graph of PGL2(q) on p + 1
    quaternion-derived generators; (p + 1)-regular on q(q^2 - 1) vertices.

    Each quadruple (a0, a1, a2, a3) maps to the projective matrix
    [[a0 + i a1, a2 + i a3], [-a2 + i a3, a0 - i a1]] over F_q with
    i^2 = -1 mod q.  Requires Legendre symbol (p|q) = -1.

    Raises
    ------
    InvalidInputError
        Parameters outside the supported congruence/Legendre setting.
    CapExceededError
        q above 61 without ``allow_large`` (spectra get expensive).
    """
    params = LpsParams.validate(p, q)
    if q > LPS_Q_CAP and not allow_large:
        raise CapExceededError(
            f"q = {q} gives {q * (q * q - 1)} vertices; pass allow_large to proceed"
        )
    i = sqrt_minus_one(q)
    group = _Pgl2(
        q, [(a0 + i * a1, a2 + i * a3, -a2 + i * a3, a0 - i * a1) for (a0, a1, a2, a3) in lps_quadruples(p)]
    )
    gens = set(group.generators)
    if len(gens) != p + 1:
        raise InvalidInputError("generator quadruples collapsed in PGL2(q)")
    if {group.inverse(s) for s in gens} != gens:
        raise InvalidInputError("generator set not closed under inverse")
    graph = cayley_graph(group)
    graph.annotations["construction"] = f"lps p={p} q={q}"
    graph.annotations["legendre"] = params.legendre
    return graph, group


@dataclass(frozen=True)
class LpsReport:
    """Outcome of checking an LPS graph against its advertised properties."""

    p: int
    q: int
    vertices: int
    regular_degree: Optional[int]
    connected: bool
    bipartite: bool
    girth: float
    girth_bound: float
    diameter: int
    diam_over_log_n: float
    top_eigenvalue: float
    bottom_eigenvalue: float
    max_interior_abs: float
    ramanujan_bound: float
    spectrum_complete: bool
    passed: bool
    failures: tuple[str, ...]


def verify_lps(g: LabeledGraph, params: LpsParams, group: _Pgl2) -> LpsReport:
    """Check regularity, order, connectivity, girth bound, bipartiteness,
    and the Ramanujan eigenvalue window |lambda| <= 2 sqrt(p) for all
    eigenvalues other than +-(p + 1).

    ``group`` is the PGL2(q) ``lps_graph`` returned with ``g``.  When ``g``
    is its Cayley graph, left translations make it vertex-transitive,
    so girth and diameter are read from breadth-first searches out of
    the identity alone; otherwise that is a failure and both are
    computed from every vertex.  Above the dense spectrum cap the
    eigenvalue window comes from residual-checked Lanczos extremes and
    ``spectrum_complete`` is False: the window is then not certified.
    """
    p, q = params.p, params.q
    failures = []
    expect_n = q * (q * q - 1)
    if g.vertex_count != expect_n:
        failures.append(f"vertex count {g.vertex_count} != q(q^2-1) = {expect_n}")
    degs = set(np.diff(g.first).tolist())
    regular_degree = degs.pop() if len(degs) == 1 else None
    if regular_degree != p + 1:
        failures.append(f"graph is not (p+1)-regular (degrees {regular_degree or 'vary'})")
    connected = g.is_connected
    if not connected:
        failures.append("graph is disconnected")
    bip = is_bipartite(g)
    if not bip:
        failures.append("Legendre -1 case must be bipartite")
    # one breadth-first search from the identity sees what every vertex sees
    sources = (group.identity,) if _is_cayley_graph_of(g, group) else None
    if sources is None:
        failures.append("not the Cayley graph of its table")

    gr = girth(g, sources)
    bound = 4 * math.log(q, p) - math.log(4, p)
    if not gr >= bound:
        failures.append(f"girth {gr} below bound {bound:.4f}")

    dia = diameter(g, sources) if connected else -1
    spectrum = adjacency_spectrum(g)
    vals = np.array(spectrum.eigenvalues)
    top = float(vals[0])
    bottom = float(vals[-1])
    if abs(top - (p + 1)) > 1e-9:
        failures.append(f"top eigenvalue {top} != p+1")
    if abs(bottom + (p + 1)) > 1e-9:
        failures.append(f"bottom eigenvalue {bottom} != -(p+1) (bipartite case)")
    interior = vals[(np.abs(vals - (p + 1)) > 1e-9) & (np.abs(vals + (p + 1)) > 1e-9)]
    max_interior = float(np.abs(interior).max()) if interior.size else 0.0
    ram = 2 * math.sqrt(p)
    if max_interior > ram + 1e-9:
        failures.append(f"interior eigenvalue {max_interior} exceeds 2*sqrt(p) = {ram:.6f}")

    return LpsReport(
        p=p,
        q=q,
        vertices=g.vertex_count,
        regular_degree=regular_degree,
        connected=connected,
        bipartite=bip,
        girth=gr,
        girth_bound=bound,
        diameter=dia,
        diam_over_log_n=dia / math.log(expect_n) if connected else math.nan,
        top_eigenvalue=top,
        bottom_eigenvalue=bottom,
        max_interior_abs=max_interior,
        ramanujan_bound=ram,
        spectrum_complete=spectrum.complete,
        passed=not failures,
        failures=tuple(failures),
    )
