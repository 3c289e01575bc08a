"""Finite group tables, Cayley graphs, and the Lubotzky-Phillips-Sarnak
expander construction over PGL2(q).

Only the quadratic-nonresidue branch of the LPS family is implemented:
p and q must be distinct primes congruent to 1 mod 4 with Legendre
symbol (p|q) = -1, which makes the graph a bipartite Cayley graph of
PGL2(q).  The residue/PSL2 branch is rejected.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, InvalidInputError
from .graph_core import (
    LabeledGraph,
    adjacency_spectrum,
    bfs_tree,
    build_graph,
    diameter,
    girth,
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
    group axioms: full associativity when order <= 256, else 1000
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

        self._check_associativity()

        gens = tuple(dict.fromkeys(int(s) for s in generators))
        for s in gens:
            if not (0 <= s < n):
                raise InvalidInputError("generator index out of range")
            if s == identity:
                raise InvalidInputError("identity is not allowed as a generator")
            if int(inv[s]) not in gens:
                raise InvalidInputError(f"generator set not closed under inverse (element {s})")
        self.generators = gens
        if element_names is not None:
            if len(element_names) != n:
                raise InvalidInputError("element_names length mismatch")
            self.element_names = tuple(str(s) for s in element_names)
        else:
            self.element_names = tuple(str(i) for i in range(n))

        # an empty generator list is allowed for tables used only for
        # arithmetic; cayley_graph insists on a nonempty one
        if gens:
            reached = self.generated_set(gens)
            if len(reached) != n:
                raise InvalidInputError(
                    f"generators only reach {len(reached)} of {n} elements"
                )

    def _check_associativity(self) -> None:
        table = self.mul_table
        n = self.order
        if n <= 256:
            rows = np.arange(n)
            for c in range(n):
                lhs = table[table, c]
                rhs = table[rows[:, None], table[:, c][None, :]]
                if not np.array_equal(lhs, rhs):
                    raise InvalidInputError("multiplication table is not associative")
        else:
            rng = random.Random(12345)
            for _ in range(1000):
                a = rng.randrange(n)
                b = rng.randrange(n)
                c = rng.randrange(n)
                if table[table[a, b], c] != table[a, table[b, c]]:
                    raise InvalidInputError("multiplication table is not associative")

    def generated_set(self, gens: Sequence[int]) -> set[int]:
        """The subgroup generated by ``gens``: every element reached from
        the identity by right multiplication with them."""
        reached = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = int(self.mul_table[x, s])
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        return reached

    # -- accessors ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def name(self, x: int) -> str:
        return self.element_names[x]

    def __repr__(self) -> str:
        return f"FiniteGroupTable(order={self.order}, generators={len(self.generators)})"


# -- small group constructors ---------------------------------------------


def cyclic_group(n: int, generators: Iterable[int] = (1,)) -> FiniteGroupTable:
    """Z/n with addition; generator list is symmetrized automatically."""
    if n < 1:
        raise InvalidInputError("cyclic group order must be >= 1")
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    gens: list[int] = []
    for s in generators:
        s %= n
        for t in (s, (-s) % n):
            if t != 0 and t not in gens:
                gens.append(t)
    return FiniteGroupTable(mul, gens, [str(i) for i in range(n)])


def symmetric_group(n: int, generators: Optional[Sequence[tuple[int, ...]]] = None) -> FiniteGroupTable:
    """S_n on tuples, product (fg)(i) = f(g(i)); default gens: adjacent transpositions."""
    if not (1 <= n <= 6):
        raise InvalidInputError("symmetric_group supports 1 <= n <= 6")
    elements = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    mul = [
        [index[tuple(f[g[i]] for i in range(n))] for g in elements]
        for f in elements
    ]
    if generators is None:
        generators = [
            tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n))
            for k in range(n - 1)
        ]
    gen_idx = []
    for perm in generators:
        p = tuple(perm)
        if p not in index:
            raise InvalidInputError(f"{perm} is not a permutation of 0..{n - 1}")
        gen_idx.append(index[p])
        inverse = tuple(p.index(i) for i in range(n))
        gen_idx.append(index[inverse])
    names = ["".join(map(str, p)) for p in elements]
    return FiniteGroupTable(mul, dict.fromkeys(gen_idx), names)


def dihedral_group(n: int) -> FiniteGroupTable:
    """Dihedral group of order 2n; element (i, f) is rotation^i * flip^f."""
    if n < 1:
        raise InvalidInputError("dihedral parameter must be >= 1")
    order = 2 * n

    def combine(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        i, f = x
        j, g = y
        return ((i + (j if f == 0 else -j)) % n, f ^ g)

    elements = [(i, f) for f in (0, 1) for i in range(n)]
    index = {e: k for k, e in enumerate(elements)}
    mul = [[index[combine(x, y)] for y in elements] for x in elements]
    gens = [index[(1, 0)], index[((-1) % n, 0)], index[(0, 1)]]
    names = [f"r{i}" if f == 0 else f"r{i}s" for (i, f) in elements]
    return FiniteGroupTable(mul, dict.fromkeys(gens), names)


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    """Componentwise product; generators are gens(a) x {e} union {e} x gens(b)."""
    na, nb = a.order, b.order

    def pack(x: int, y: int) -> int:
        return x * nb + y

    mul = np.zeros((na * nb, na * nb), dtype=np.int64)
    for xa in range(na):
        for ya in range(nb):
            row = pack(xa, ya)
            mul[row] = (a.mul_table[xa][:, None] * nb + b.mul_table[ya][None, :]).reshape(-1)
    gens = [pack(s, b.identity) for s in a.generators]
    gens += [pack(a.identity, s) for s in b.generators]
    names = [f"({a.name(x)},{b.name(y)})" for x in range(na) for y in range(nb)]
    return FiniteGroupTable(mul, gens, names)


# -- Cayley graphs ---------------------------------------------------------


def cayley_graph(
    group: FiniteGroupTable,
    labels: Optional[dict[int, str]] = None,
) -> LabeledGraph:
    """Cayley graph of a group on its stored symmetric generator set.

    Every element g and generator s contribute the dart g -> gs reading
    s; the reverse dart reads the formal inverse.  Each non-involutive
    generator pair {s, s^-1} yields one undirected edge per element
    (emitted from the smaller-indexed generator of the pair), and an
    involutive generator yields one undirected edge per unordered pair
    {g, gs}, never two.

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

    emitted_pairs = set()
    edges = []
    alphabet = []
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
        if s != t:
            for g in range(group.order):
                edges.append((g, group.mul(g, canon), base))
        else:
            for g in range(group.order):
                h = group.mul(g, s)
                if g < h:
                    edges.append((g, h, base))
                elif g == h:
                    raise InvalidInputError("generator fixes an element; table is not a group")
    if len(set(alphabet)) != len(alphabet):
        raise InvalidInputError("duplicate base symbol across generator pairs")
    return build_graph(group.order, edges, alphabet=alphabet)


def is_bipartite(g: LabeledGraph) -> bool:
    """Two-colorability: color each breadth-first tree by depth parity,
    then no edge may join two vertices of the same color."""
    color = [-1] * g.vertex_count
    for s in range(g.vertex_count):
        if color[s] < 0:
            for v, d in bfs_tree(g, s).items():
                color[v] = 0 if d < 0 else color[g.dart_source(d)] ^ 1
    return all(color[u] != color[v] for u, v, _ in g.edges())


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
    """PGL2(q) with elements canonicalized so the first nonzero matrix
    entry in row-major order equals 1."""

    def __init__(self, q: int):
        self.q = q
        elements: list[tuple[int, int, int, int]] = []
        for c in range(1, q):
            for d in range(q):
                elements.append((0, 1, c, d))
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if d != (b * c) % q:
                        elements.append((1, b, c, d))
        elements.sort()
        self.elements = elements
        lookup = np.full(q ** 4, -1, dtype=np.int64)
        for i, (a, b, c, d) in enumerate(elements):
            lookup[((a * q + b) * q + c) * q + d] = i
        self.lookup = lookup
        self.modinv = np.zeros(q, dtype=np.int64)
        for x in range(1, q):
            self.modinv[x] = pow(x, q - 2, q)

    def canonical_index(self, a: int, b: int, c: int, d: int) -> int:
        q = self.q
        a, b, c, d = a % q, b % q, c % q, d % q
        if (a * d - b * c) % q == 0:
            raise InvalidInputError("matrix is singular mod q")
        for e in (a, b, c, d):
            if e:
                s = int(self.modinv[e])
                a, b, c, d = (a * s) % q, (b * s) % q, (c * s) % q, (d * s) % q
                break
        i = int(self.lookup[((a * q + b) * q + c) * q + d])
        if i < 0:
            raise InvalidInputError("canonicalization failed")
        return i

    def mul_table(self) -> np.ndarray:
        q = self.q
        n = len(self.elements)
        arr = np.array(self.elements, dtype=np.int64)
        a2, b2, c2, d2 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
        table = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            a1, b1, c1, d1 = self.elements[x]
            pa = (a1 * a2 + b1 * c2) % q
            pb = (a1 * b2 + b1 * d2) % q
            pc = (c1 * a2 + d1 * c2) % q
            pd = (c1 * b2 + d1 * d2) % q
            # scale by the inverse of the first nonzero entry
            e = np.where(pa != 0, pa, np.where(pb != 0, pb, np.where(pc != 0, pc, pd)))
            s = self.modinv[e]
            pa, pb, pc, pd = (pa * s) % q, (pb * s) % q, (pc * s) % q, (pd * s) % q
            table[x] = self.lookup[((pa * q + pb) * q + pc) * q + pd]
        if table.min() < 0:
            raise InvalidInputError("product escaped the canonical element list")
        return table


def pgl2_table(q: int, generators: Iterable[int] = ()) -> FiniteGroupTable:
    """Full multiplication table of PGL2(q) with readable matrix names."""
    pgl = _Pgl2(q)
    names = [f"[[{a},{b}],[{c},{d}]]" for (a, b, c, d) in pgl.elements]
    return FiniteGroupTable(pgl.mul_table(), generators, names)


def lps_graph(p: int, q: int, allow_large: bool = False) -> tuple[LabeledGraph, FiniteGroupTable]:
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
    pgl = _Pgl2(q)
    gen_indices = []
    for (a0, a1, a2, a3) in lps_quadruples(p):
        gen_indices.append(
            pgl.canonical_index(a0 + i * a1, a2 + i * a3, -a2 + i * a3, a0 - i * a1)
        )
    if len(set(gen_indices)) != p + 1:
        raise InvalidInputError("generator quadruples collapsed in PGL2(q)")
    names = [f"[[{a},{b}],[{c},{d}]]" for (a, b, c, d) in pgl.elements]
    group = FiniteGroupTable(pgl.mul_table(), gen_indices, names)
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
    passed: bool
    failures: tuple[str, ...]


def verify_lps(g: LabeledGraph, params: LpsParams) -> LpsReport:
    """Check regularity, order, connectivity, girth bound, bipartiteness,
    and the Ramanujan eigenvalue window |lambda| <= 2 sqrt(p) for all
    eigenvalues other than +-(p + 1)."""
    p, q = params.p, params.q
    failures = []
    expect_n = q * (q * q - 1)
    if g.vertex_count != expect_n:
        failures.append(f"vertex count {g.vertex_count} != q(q^2-1) = {expect_n}")
    degs = {g.degree(v) for v in range(g.vertex_count)}
    regular_degree = degs.pop() if len(degs) == 1 else None
    if regular_degree != p + 1:
        failures.append(f"graph is not (p+1)-regular (degrees {regular_degree or 'vary'})")
    connected = g.is_connected
    if not connected:
        failures.append("graph is disconnected")
    bip = is_bipartite(g)
    if not bip:
        failures.append("Legendre -1 case must be bipartite")

    gr = girth(g)
    bound = 4 * math.log(q, p) - math.log(4, p)
    if not gr >= bound:
        failures.append(f"girth {gr} below bound {bound:.4f}")

    dia = diameter(g) if connected else -1
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
        passed=not failures,
        failures=tuple(failures),
    )
