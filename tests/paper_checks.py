"""The paper-facing checks that ``test_acceptance.py`` replays at toy
sizes: coset enumeration of a presented group, the finite shadow of the
surjection a covering induces on presented groups, subwreath embeddings
verified edge by edge, and positive-definite kernels with the
exp(-t psi) transform and its sup-over-X bound.  Each is exhaustive, so
no command runs them."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from coarselab.covers_walls import CoveringMap
from coarselab.errors import (
    WREATH_VERTEX_CAP,
    CapExceededError,
    InvalidInputError,
    VerificationError,
)
from coarselab.expander_zoo import FiniteGroupTable, homomorphism_defect
from coarselab.graph_core import GraphFamily, LabeledGraph, inverse_label
from coarselab.labelings import Presentation, free_reduce, graphical_presentation
from coarselab.poincare_lab import EIG_TOL, KernelFunction, resolve_group
from coarselab.wreath import WreathElement, WreathGroup, lamp_support
from groups import wreath_mul
from oracles import kernel_matrix

# -- coset enumeration -------------------------------------------------------


def coset_enumeration_order(pres: Presentation, max_cosets: int = 20000) -> int:
    """Order of the presented group by coset enumeration over the
    trivial subgroup.

    Runs a relator-scanning strategy with coincidence handling; the
    final table is complete, closed under every relator at every live
    coset, and transitive, so the live-coset count is the group order.

    Raises
    ------
    CapExceededError
        More than ``max_cosets`` cosets were defined; the group may be
        infinite or just large.
    """
    sym_id: dict[str, int] = {}
    for i, s in enumerate(pres.alphabet):
        sym_id[s] = 2 * i
        sym_id[inverse_label(s)] = 2 * i + 1
    width = 2 * len(pres.alphabet)
    rel_ids = []
    for r in pres.relators:
        reduced = free_reduce(r)
        if not reduced:
            continue
        try:
            rel_ids.append([sym_id[s] for s in reduced])
        except KeyError as exc:
            raise InvalidInputError(f"relator symbol {exc} outside the alphabet") from exc

    table: list[list[int]] = [[-1] * width]
    parent = [0]

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, x: int) -> int:
        if len(table) >= max_cosets:
            raise CapExceededError(
                f"coset enumeration exceeded {max_cosets} cosets; group may be infinite"
            )
        n = len(table)
        table.append([-1] * width)
        parent.append(n)
        table[c][x] = n
        table[n][x ^ 1] = c
        return n

    def merge(a: int, b: int, queue: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        queue.append(b)

    def coincide(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        while queue:
            dead = queue.pop()
            for x in range(width):
                d = table[dead][x]
                if d == -1:
                    continue
                table[d][x ^ 1] = -1 if table[d][x ^ 1] == dead else table[d][x ^ 1]
                mu, nu = rep(dead), rep(d)
                if table[mu][x] != -1:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] != -1:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan(c: int, r: list[int], fill: bool) -> bool:
        """Scan relator r at coset c; returns True if anything changed."""
        changed = False
        while True:
            f, i = c, 0
            while i < len(r) and table[f][r[i]] != -1:
                f = rep(table[f][r[i]])
                i += 1
            if i == len(r):
                if f != c:
                    coincide(f, c)
                    return True
                return changed
            b, j = c, len(r) - 1
            while j >= i and table[b][r[j] ^ 1] != -1:
                b = rep(table[b][r[j] ^ 1])
                j -= 1
            if j < i:
                coincide(f, b)
                return True
            if j == i:
                table[f][r[i]] = b
                table[b][r[i] ^ 1] = f
                changed = True
                continue
            if not fill:
                return changed
            define(f, r[i])
            changed = True

    while True:
        changed = False
        c = 0
        while c < len(table):
            if rep(c) != c:
                c += 1
                continue
            for r in rel_ids:
                if rep(c) != c:
                    break
                if scan(c, r, fill=True):
                    changed = True
            if rep(c) == c:
                for x in range(width):
                    if table[c][x] == -1:
                        define(c, x)
                        changed = True
            c += 1
        if not changed:
            break

    live = [c for c in range(len(table)) if rep(c) == c]
    for c in live:
        for x in range(width):
            if table[c][x] == -1 or rep(table[c][x]) != table[c][x]:
                table[c][x] = rep(table[c][x]) if table[c][x] != -1 else -1
        if any(table[c][x] == -1 for x in range(width)):
            raise VerificationError("coset table incomplete after closure")
        for r in rel_ids:
            f = c
            for x in r:
                f = rep(table[f][x])
            if f != c:
                raise VerificationError("relator fails to close on the final table")
    return len(live)


# -- covers and quotients ----------------------------------------------------


def _evaluate_word(
    table: FiniteGroupTable, assignment: dict[str, int], word: Sequence[str]
) -> int:
    x = table.identity
    for s in word:
        base = s[:-3] if s.endswith("^-1") else s
        if base not in assignment:
            raise InvalidInputError(f"symbol {base!r} has no interpretation in the quotient")
        g = assignment[base]
        if s.endswith("^-1"):
            g = table.inverse(g)
        x = int(table.mul_table[x, g])
    return x


@dataclass(frozen=True)
class SurjectionReport:
    """Evaluation of cover and base relators in finite quotients.

    Truthy exactly when every cover relator dies in every quotient."""

    ok: bool
    cover_failures: tuple[tuple[int, tuple[str, ...], int], ...]
    base_quotient_ok: tuple[bool, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_cover_surjection(
    cm: CoveringMap,
    quotients: Sequence[tuple[FiniteGroupTable, dict[str, int]]],
) -> SurjectionReport:
    """Check the finite shadow of the induced surjection on presented
    groups: every relator of the cover's presentation must die in every
    supplied quotient of the base group.

    Quotients that fail to kill even the base relators are reported via
    ``base_quotient_ok`` (and any cover-relator failures they cause are
    listed like the rest).
    """
    base_pres = graphical_presentation(GraphFamily((cm.base,)))
    cover_pres = graphical_presentation(GraphFamily((cm.cover,)))
    failures = []
    base_flags = []
    for qi, (table, assignment) in enumerate(quotients):
        base_flags.append(
            all(
                _evaluate_word(table, assignment, r) == table.identity
                for r in base_pres.relators
            )
        )
        for r in cover_pres.relators:
            value = _evaluate_word(table, assignment, r)
            if value != table.identity:
                failures.append((qi, r, value))
    return SurjectionReport(
        ok=not failures,
        cover_failures=tuple(failures),
        base_quotient_ok=tuple(base_flags),
    )


# -- subwreath embedding -----------------------------------------------------


def subwreath_embed(
    W_small: WreathGroup,
    W_big: WreathGroup,
    vertex_inclusion: dict[int, int],
    quotient_bijection: dict[int, int],
) -> dict[WreathElement, WreathElement]:
    """The embedding (phi, l) -> (Phi, l) of Z/2 wr_{L'} L into
    Z/2 wr_{K'} K: Phi agrees with phi on the image of L's quotient
    (transported by the bijection) and vanishes elsewhere.

    ``vertex_inclusion`` maps B-elements of W_small into B-elements of
    W_big; it must be an injective homomorphism carrying generators to
    generators (that makes Cay(L, U) a subgraph of Cay(K, V)).
    ``quotient_bijection`` maps Q-elements of W_big back to Q-elements
    of W_small; composed with W_big's projection it must reproduce
    W_small's projection.  Both hypotheses are checked exhaustively, and
    the returned map is verified to be an injective homomorphism.
    """
    L, K = W_small.B, W_big.B
    incl = vertex_inclusion
    if sorted(incl) != list(range(L.order)):
        raise InvalidInputError("vertex inclusion must be defined on all of L")
    if len(set(incl.values())) != L.order:
        raise InvalidInputError("vertex inclusion is not injective")
    for v in incl.values():
        if not (0 <= v < K.order):
            raise InvalidInputError(f"inclusion value {v} outside K")
    if homomorphism_defect([incl[l] for l in range(L.order)], L, K) is not None:
        raise InvalidInputError("vertex inclusion is not a homomorphism")
    big_gens = set(K.generators)
    for u in L.generators:
        if incl[u] not in big_gens:
            raise InvalidInputError(
                f"Cay(L, U) is not a subgraph of Cay(K, V): generator {u} "
                f"maps to {incl[u]}, which is not a K-generator"
            )

    # the bijection must cover exactly the projected image of L
    projected = {W_big.proj[incl[l]] for l in range(L.order)}
    f = quotient_bijection
    if set(f) != projected:
        raise InvalidInputError(
            "quotient bijection must be defined exactly on the projection of L"
        )
    if len(set(f.values())) != len(f):
        raise InvalidInputError("quotient bijection is not injective")
    for l in range(L.order):
        if f[W_big.proj[incl[l]]] != W_small.proj[l]:
            raise InvalidInputError(
                "quotient bijection does not intertwine the two projections"
            )
    f_inv = {v: k for k, v in f.items()}
    if sorted(f_inv) != list(range(W_small.Q.order)):
        raise InvalidInputError("quotient bijection does not reach all of L'")

    if W_small.order > WREATH_VERTEX_CAP:
        raise CapExceededError("small wreath group too large to enumerate")
    mapping: dict[WreathElement, WreathElement] = {}
    configs = [frozenset(lamp_support(mask)) for mask in range(1 << W_small.Q.order)]
    for cfg in configs:
        big_cfg = frozenset(f_inv[q] for q in cfg)
        for b in range(L.order):
            mapping[WreathElement(cfg, b)] = WreathElement(big_cfg, incl[b])

    if len(set(mapping.values())) != len(mapping):
        raise VerificationError("subwreath embedding is not injective")
    elems = list(mapping)
    if len(elems) <= 256:
        check_pairs = ((x, y) for x in elems for y in elems)
    else:
        rng = random.Random(20240817)
        check_pairs = (
            (rng.choice(elems), rng.choice(elems)) for _ in range(2000)
        )
    for x, y in check_pairs:
        lhs = mapping[wreath_mul(W_small, x, y)]
        rhs = wreath_mul(W_big, mapping[x], mapping[y])
        if lhs != rhs:
            raise VerificationError("subwreath embedding is not a homomorphism")
    return mapping


def verify_subgraph_embedding(
    gm: dict[int, int], g_small: LabeledGraph, g_big: LabeledGraph
) -> bool:
    """True iff ``gm`` maps g_small injectively into g_big carrying
    every edge to an edge."""
    for v in range(g_small.vertex_count):
        if v not in gm:
            raise InvalidInputError(f"vertex {v} has no image")
    if len({gm[v] for v in range(g_small.vertex_count)}) != g_small.vertex_count:
        return False
    adjacency = set(zip(g_big.src.tolist(), g_big.dst.tolist()))
    for u, v in zip(g_small.src[0::2].tolist(), g_small.dst[0::2].tolist()):
        if (gm[u], gm[v]) not in adjacency:
            return False
    return True


# -- positive definite kernels -----------------------------------------------


def is_positive_definite(phi: KernelFunction, tol: float = EIG_TOL) -> bool:
    """True iff the translation matrix phi(y^-1 x) is symmetric with
    smallest eigenvalue >= -tol."""
    table = resolve_group(phi.group)
    M = kernel_matrix(table, phi.values)
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > tol * scale:
        return False
    return float(np.linalg.eigvalsh((M + M.T) / 2.0)[0]) >= -tol * scale


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
