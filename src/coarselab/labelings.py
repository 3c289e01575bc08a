"""Reduced labelings, piece enumeration, C'(lambda) small-cancellation
checking, random labeling search, graphical presentations, and
covering-induced surjection checks on finite quotients.

A labeling is reduced when at every vertex the outgoing darts carry
pairwise distinct labels.  That makes label-following deterministic,
so a word occurrence is determined by its start vertex, a
label-preserving isomorphism between pointed components is determined
by the image of the point, and "the same word readable from two
essentially distinct starts" becomes a statement about pairs of
inequivalent pointed vertices.  Piece enumeration therefore works on
the product graph of simultaneous label moves between inequivalent
starts: tree components yield finite maximal pieces (their leaf-to-leaf
paths), components with a cycle yield arbitrarily long pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Sequence

from .covers_walls import CoveringMap
from .errors import CapExceededError, InvalidInputError, VerificationError
from .expander_zoo import FiniteGroupTable
from .graph_core import (
    GraphFamily,
    LabeledGraph,
    bfs_tree,
    build_graph,
    girth,
    inverse_label,
    propagate,
    tree_path,
)

#: enumerate_pieces refuses families with more darts than this
PIECE_DART_CAP = 2000

#: graphical_presentation refuses components with larger cycle rank
PRESENTATION_RANK_CAP = 64

LETTERS = "abcdefghijklmnopqrstuvwxyz"


# -- alphabets and words ---------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of base symbols together with formal inverses."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for s in self.symbols:
            if not s or s.endswith("^-1"):
                raise InvalidInputError(f"bad base symbol {s!r}")
            if s in seen:
                raise InvalidInputError(f"duplicate symbol {s!r}")
            seen.add(s)

    @staticmethod
    def letters(n: int) -> "Alphabet":
        if not (1 <= n <= len(LETTERS)):
            raise InvalidInputError(f"letter alphabets support 1..{len(LETTERS)} symbols")
        return Alphabet(tuple(LETTERS[:n]))

    @property
    def signed(self) -> tuple[str, ...]:
        """S followed by S^-1; the two halves never intersect."""
        return self.symbols + tuple(inverse_label(s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


def word_inverse(word: Sequence[str]) -> tuple[str, ...]:
    return tuple(inverse_label(s) for s in reversed(word))


def free_reduce(word: Sequence[str]) -> tuple[str, ...]:
    out: list[str] = []
    for s in word:
        if out and out[-1] == inverse_label(s):
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def canonical_word(word: Sequence[str]) -> tuple[str, ...]:
    """A path and its reverse read mutually inverse words; pick the
    lexicographically smaller as the canonical representative."""
    w = tuple(word)
    return min(w, word_inverse(w))


def _is_subword(w: tuple[str, ...], big: tuple[str, ...]) -> bool:
    for candidate in (big, word_inverse(big)):
        if len(w) <= len(candidate):
            for i in range(len(candidate) - len(w) + 1):
                if candidate[i : i + len(w)] == w:
                    return True
    return False


# -- reduced labelings -----------------------------------------------------


@dataclass(frozen=True)
class ReducedCheck:
    """Outcome of the local reducedness test, with a counterexample."""

    ok: bool
    vertex: Optional[int] = None
    darts: Optional[tuple[int, int]] = None


def check_reduced(g: LabeledGraph) -> ReducedCheck:
    """A labeling is reduced iff at every vertex the outgoing darts
    carry pairwise distinct labels; then labels of reduced paths are
    freely reduced words.  Every dart must be labeled."""
    for u in range(g.vertex_count):
        seen: dict[str, int] = {}
        for d in g.out_darts(u):
            lab = g.dart_label(d)
            if lab is None:
                raise InvalidInputError(f"dart {d} is unlabeled")
            if lab in seen:
                return ReducedCheck(ok=False, vertex=u, darts=(seen[lab], d))
            seen[lab] = d
    return ReducedCheck(ok=True)


def _out_maps(g: LabeledGraph) -> list[dict[str, int]]:
    """Per-vertex map label -> dart; requires a reduced labeling."""
    res = check_reduced(g)
    if not res.ok:
        raise InvalidInputError(
            f"labeling is not reduced at vertex {res.vertex} (darts {res.darts})"
        )
    return [
        {g.dart_label(d): d for d in g.out_darts(u)}
        for u in range(g.vertex_count)
    ]


def follow_word(
    g: LabeledGraph, start: int, word: Sequence[str], out_map: Optional[list[dict[str, int]]] = None
) -> Optional[tuple[int, ...]]:
    """Darts of the unique path reading ``word`` from ``start``, or None."""
    maps = out_map if out_map is not None else _out_maps(g)
    u = start
    darts = []
    for s in word:
        d = maps[u].get(s)
        if d is None:
            return None
        darts.append(d)
        u = g.dart_target(d)
    return tuple(darts)


# -- pointed equivalence ---------------------------------------------------


def _pointed_spread(
    ga: LabeledGraph,
    maps_a: list[dict[str, int]],
    a: int,
    gb: LabeledGraph,
    maps_b: list[dict[str, int]],
    b: int,
) -> Optional[tuple[int, ...]]:
    """Label-preserving isomorphism component(a) -> component(b) with
    a -> b, grown by anchored breadth-first search; None if impossible."""

    def step(d: int, x: int) -> Optional[int]:
        d2 = maps_b[x].get(ga.dart_label(d))
        return None if d2 is None else gb.dart_target(d2)

    img = propagate(ga, a, b, step)
    if img is None or any(len(maps_a[u]) != len(maps_b[x]) for u, x in img.items()):
        return None
    if len(set(img.values())) != len(img):
        return None
    return tuple(sorted(img.items()))


def _pointed_classes(fam: GraphFamily, maps: list[list[dict[str, int]]]) -> dict[tuple[int, int], int]:
    """Equivalence classes of pointed vertices (component, vertex) under
    label-preserving isomorphisms carrying point to point.

    Candidates are grouped by a canonical breadth-first form first and
    each member is then confirmed against its group representative by
    the anchored search, so a hash collision cannot silently merge
    classes.
    """
    def form(ci: int, v: int) -> tuple:
        g = fam.components[ci]
        order = [v]
        index = {v: 0}
        rec = []
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for lab in sorted(maps[ci][u]):
                w = g.dart_target(maps[ci][u][lab])
                if w not in index:
                    index[w] = len(order)
                    order.append(w)
                rec.append((index[u], lab, index[w]))
        return tuple(rec)

    by_form: dict[tuple, list[tuple[int, int]]] = {}
    for ci, g in enumerate(fam.components):
        for v in range(g.vertex_count):
            by_form.setdefault(form(ci, v), []).append((ci, v))
    class_of: dict[tuple[int, int], int] = {}
    next_class = 0
    for members in by_form.values():
        rep_ci, rep_v = members[0]
        cid = next_class
        next_class += 1
        class_of[members[0]] = cid
        for ci, v in members[1:]:
            spread = _pointed_spread(
                fam.components[rep_ci], maps[rep_ci], rep_v, fam.components[ci], maps[ci], v
            )
            if spread is None:
                raise VerificationError("canonical form collision without an isomorphism")
            class_of[(ci, v)] = cid
    return class_of


# -- pieces ----------------------------------------------------------------


@dataclass(frozen=True)
class PieceOccurrence:
    component: int
    start: int
    darts: tuple[int, ...]


@dataclass(frozen=True)
class Piece:
    """A labeled path readable from at least two essentially distinct
    starts.  ``occurrences`` holds one representative per equivalence
    class; ``components`` lists every component the word is readable in.
    Infinite pieces store one period of a repeating word."""

    word: tuple[str, ...]
    length: float
    occurrences: tuple[PieceOccurrence, ...]
    components: tuple[int, ...]
    infinite: bool = False


@dataclass(frozen=True)
class _PairGraph:
    graph: LabeledGraph
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


def _build_pair_graph(
    fam: GraphFamily,
    maps: list[list[dict[str, int]]],
    class_of: dict[tuple[int, int], int],
) -> Optional[_PairGraph]:
    """Product graph of simultaneous label moves between inequivalent
    pointed starts.  A move by a common label from an inequivalent pair
    always lands on an inequivalent pair (equivalence of the shifted
    pair would propagate back along the unique incoming path), which is
    asserted below."""
    pointed = [(ci, v) for ci, g in enumerate(fam.components) for v in range(g.vertex_count)]
    nodes: list[tuple[tuple[int, int], tuple[int, int]]] = []
    index: dict[tuple, int] = {}
    for a in pointed:
        for b in pointed:
            if a == b or class_of[a] == class_of[b]:
                continue
            common = set(maps[a[0]][a[1]]) & set(maps[b[0]][b[1]])
            if common:
                index[(a, b)] = len(nodes)
                nodes.append((a, b))
    if not nodes:
        return None
    edges = []
    for i, (a, b) in enumerate(nodes):
        ca, va = a
        cb, vb = b
        for lab in set(maps[ca][va]) & set(maps[cb][vb]):
            a2 = (ca, fam.components[ca].dart_target(maps[ca][va][lab]))
            b2 = (cb, fam.components[cb].dart_target(maps[cb][vb][lab]))
            j = index.get((a2, b2))
            if j is None:
                raise VerificationError(
                    "simultaneous label move left the inequivalent-pair graph"
                )
            if i < j or (i == j and lab < inverse_label(lab)):
                edges.append((i, j, lab))
    alphabet = sorted({s for g in fam.components for s in g.alphabet})
    return _PairGraph(
        graph=build_graph(len(nodes), edges, alphabet=alphabet),
        pairs=tuple(nodes),
    )


def _find_simple_cycle(g: LabeledGraph, root: int) -> list[int]:
    """Darts of some simple cycle in the component of ``root``: the first
    non-tree dart in breadth-first order closes it through the tree."""
    parent = bfs_tree(g, root)
    for u, entry in parent.items():
        for d in g.out_darts(u):
            w = g.dart_target(d)
            if parent[w] == d or entry == LabeledGraph.dart_reverse(d):
                continue
            path_u, path_w = tree_path(g, parent, u), tree_path(g, parent, w)
            # cut at the last common ancestor, leaving a simple cycle
            i = 0
            while i < min(len(path_u), len(path_w)) and path_u[i] == path_w[i]:
                i += 1
            return path_u[i:] + [d] + [LabeledGraph.dart_reverse(e) for e in reversed(path_w[i:])]
    raise VerificationError("no cycle found in a component declared cyclic")


def _tree_paths(g: LabeledGraph, comp_vertices: list[int]) -> list[list[int]]:
    """All maximal simple paths (leaf to leaf) of a tree component,
    each returned once as a dart list."""
    leaves = [v for v in comp_vertices if g.degree(v) == 1]
    if len(comp_vertices) == 1:
        return []
    paths = []
    for a in leaves:
        parent = bfs_tree(g, a)
        paths.extend(tree_path(g, parent, b) for b in leaves if b > a)
    return paths


def _word_of(g: LabeledGraph, darts: Iterable[int]) -> tuple[str, ...]:
    return tuple(g.dart_label(d) for d in darts)


def _piece_analysis(fam: GraphFamily, cap: int) -> tuple[list[Piece], list[float]]:
    total_darts = sum(g.dart_count for g in fam.components)
    if total_darts > cap:
        raise CapExceededError(
            f"piece enumeration over {total_darts} darts exceeds the cap {cap}"
        )
    maps = [_out_maps(g) for g in fam.components]
    class_of = _pointed_classes(fam, maps)
    per_comp_max: list[float] = [0] * len(fam.components)
    pair_graph = _build_pair_graph(fam, maps, class_of)
    if pair_graph is None:
        return [], per_comp_max

    pg = pair_graph.graph
    comp_nodes: dict[int, list[int]] = {}
    for node in range(pg.vertex_count):
        comp_nodes.setdefault(pg.component_ids[node], []).append(node)

    finite_words: set[tuple[str, ...]] = set()
    infinite_words: set[tuple[str, ...]] = set()
    for nodes in comp_nodes.values():
        edge_count = sum(pg.degree(v) for v in nodes) // 2
        touched = {pair_graph.pairs[nodes[0]][0][0], pair_graph.pairs[nodes[0]][1][0]}
        if edge_count >= len(nodes):
            cycle = _find_simple_cycle(pg, nodes[0])
            infinite_words.add(canonical_word(_word_of(pg, cycle)))
            for ci in touched:
                per_comp_max[ci] = math.inf
        else:
            best = 0
            for darts in _tree_paths(pg, nodes):
                finite_words.add(canonical_word(_word_of(pg, darts)))
                best = max(best, len(darts))
            for ci in touched:
                per_comp_max[ci] = max(per_comp_max[ci], best)

    keep = [
        w
        for w in finite_words
        if not any(len(w) < len(other) and _is_subword(w, other) for other in finite_words)
    ]

    pieces = []
    for w in sorted(keep) + sorted(infinite_words):
        infinite = w in infinite_words
        starts_by_class: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        met = set()
        for ci, g in enumerate(fam.components):
            for v in range(g.vertex_count):
                darts = follow_word(g, v, w, maps[ci])
                if darts is None:
                    continue
                met.add(ci)
                cls = class_of[(ci, v)]
                entry = (ci, v, darts)
                if cls not in starts_by_class or entry < starts_by_class[cls]:
                    starts_by_class[cls] = entry
        if len(starts_by_class) < 2:
            raise VerificationError("piece word lost its inequivalent occurrences")
        occs = tuple(
            PieceOccurrence(component=ci, start=v, darts=darts)
            for ci, v, darts in sorted(starts_by_class.values())
        )
        pieces.append(
            Piece(
                word=w,
                length=math.inf if infinite else len(w),
                occurrences=occs,
                components=tuple(sorted(met)),
                infinite=infinite,
            )
        )
    pieces.sort(key=lambda p: (p.occurrences[0].component, p.occurrences[0].start, p.word))
    return pieces, per_comp_max


def enumerate_pieces(fam: GraphFamily, cap: int = PIECE_DART_CAP) -> tuple[Piece, ...]:
    """All maximal pieces of a reduced-labeled family.

    A piece is a labeled path readable from two starts not related by
    any label-preserving isomorphism between their components; maximal
    means not a proper subword (in either orientation) of another
    piece.  Components of the simultaneous-move product graph that
    contain a cycle witness arbitrarily long pieces and are reported as
    a single infinite piece carrying one period.
    """
    pieces, _ = _piece_analysis(fam, cap)
    return tuple(pieces)


@dataclass(frozen=True)
class SmallCancellationReport:
    """Strict C'(lambda) verdict with the per-component evidence."""

    lambda_value: Fraction
    girths: tuple[float, ...]
    max_piece_length: tuple[float, ...]
    passed: bool
    violations: tuple[str, ...]
    pieces: tuple[Piece, ...]


def check_small_cancellation(
    fam: GraphFamily, lam, cap: int = PIECE_DART_CAP
) -> SmallCancellationReport:
    """Check that every piece meeting a component is strictly shorter
    than lambda times that component's girth."""
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidInputError("lambda must be positive")
    pieces, per_comp_max = _piece_analysis(fam, cap)
    girths = tuple(girth(g) for g in fam.components)
    violations = []
    for ci, longest in enumerate(per_comp_max):
        if longest == 0:
            continue
        bound = math.inf if girths[ci] is math.inf else lam * girths[ci]
        ok = longest < bound
        if not ok:
            violations.append(
                f"component {ci}: piece length {longest} not < lambda*girth = {bound}"
            )
    return SmallCancellationReport(
        lambda_value=lam,
        girths=girths,
        max_piece_length=tuple(per_comp_max),
        passed=not violations,
        violations=tuple(violations),
        pieces=tuple(pieces),
    )


# -- random labelings ------------------------------------------------------


@dataclass(frozen=True)
class RandomLabelingOutcome:
    success: bool
    attempts: int
    family: Optional[GraphFamily]
    report: Optional[SmallCancellationReport]
    alphabet: Alphabet


def random_labeling(
    fam: GraphFamily,
    alphabet_size: int,
    lam,
    seed: int,
    max_attempts: int = 200000,
) -> RandomLabelingOutcome:
    """Rejection-sample uniform edge labelings until one is reduced and
    C'(lambda).

    Each attempt draws, for every edge of every component, an
    independent uniform label and orientation, then tests reducedness
    and the strict piece bound.  Requires lambda * girth > 1 on every
    component; below that no labeling can work, so the search is
    refused.  The outcome reports the attempts used; failure after
    ``max_attempts`` claims nothing about impossibility.
    """
    lam = Fraction(lam)
    alphabet = Alphabet.letters(alphabet_size)
    for ci, g in enumerate(fam.components):
        gr = girth(g)
        bound = math.inf if gr is math.inf else lam * gr
        if not bound > 1:
            raise InvalidInputError(
                f"component {ci}: lambda*girth = {bound} is not > 1, no reduced "
                "small-cancellation labeling can exist"
            )
    rng = Random(seed)
    symbols = alphabet.symbols
    structures = []
    for g in fam.components:
        structures.append(
            (g.vertex_count, [(g.dart_source(2 * k), g.dart_target(2 * k)) for k in range(g.edge_count)])
        )

    for attempt in range(1, max_attempts + 1):
        sampled = []
        for _, pairs in structures:
            labels = [symbols[rng.randrange(alphabet_size)] for _ in pairs]
            flips = [rng.randrange(2) for _ in pairs]
            sampled.append((labels, flips))
        # cheap reducedness test before building graphs
        ok = True
        for (n, pairs), (labels, flips) in zip(structures, sampled):
            out: list[set] = [set() for _ in range(n)]
            for (u, v), lab, flip in zip(pairs, labels, flips):
                a, b = (v, u) if flip else (u, v)
                fwd, bwd = lab, inverse_label(lab)
                if fwd in out[a] or bwd in out[b]:
                    ok = False
                    break
                out[a].add(fwd)
                out[b].add(bwd)
            if not ok:
                break
        if not ok:
            continue
        relabeled = []
        for (n, pairs), (labels, flips) in zip(structures, sampled):
            edges = []
            for (u, v), lab, flip in zip(pairs, labels, flips):
                edges.append((v, u, lab) if flip else (u, v, lab))
            relabeled.append(build_graph(n, edges, alphabet=symbols))
        candidate = GraphFamily(tuple(relabeled))
        report = check_small_cancellation(candidate, lam)
        if report.passed:
            return RandomLabelingOutcome(
                success=True,
                attempts=attempt,
                family=candidate,
                report=report,
                alphabet=alphabet,
            )
    return RandomLabelingOutcome(
        success=False, attempts=max_attempts, family=None, report=None, alphabet=alphabet
    )


# -- graphical presentations -----------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Group presentation: base symbols and relator words over S^+-."""

    alphabet: tuple[str, ...]
    relators: tuple[tuple[str, ...], ...]


def _component_relators(g: LabeledGraph, maps: list[dict[str, int]]) -> list[tuple[str, ...]]:
    """Fundamental-cycle relators of the BFS spanning tree rooted at 0."""
    parent = bfs_tree(g, 0)
    tree = {LabeledGraph.dart_edge(d) for d in parent.values() if d >= 0}
    relators = []
    for k in range(g.edge_count):
        if k in tree:
            continue
        d = 2 * k
        u, v = g.dart_source(d), g.dart_target(d)
        back = [LabeledGraph.dart_reverse(x) for x in reversed(tree_path(g, parent, v))]
        relators.append(free_reduce(_word_of(g, tree_path(g, parent, u) + [d] + back)))
    return relators


def _enumerate_simple_cycles(g: LabeledGraph) -> list[tuple[str, ...]]:
    """Words of all simple closed paths, one direction and basepoint each."""
    cycles = []
    n = g.vertex_count
    for root in range(n):
        stack = [(root, [], {root})]
        while stack:
            u, darts, visited = stack.pop()
            for d in g.out_darts(u):
                if darts and d == LabeledGraph.dart_reverse(darts[-1]):
                    continue
                w = g.dart_target(d)
                if w == root and darts:
                    seq = darts + [d]
                    # dedupe direction: keep the orientation whose first
                    # dart id is smaller than the reverse reading's first
                    rev_first = LabeledGraph.dart_reverse(seq[-1])
                    if seq[0] <= rev_first:
                        cycles.append(_word_of(g, seq))
                elif w == root and not darts:
                    # length-1 loop
                    if d % 2 == 0:
                        cycles.append((g.dart_label(d),))
                elif w not in visited and w > root:
                    stack.append((w, darts + [d], visited | {w}))
    return cycles


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
        x = table.mul(x, g)
    return x


def graphical_presentation(
    fam: GraphFamily,
    rank_cap: int = PRESENTATION_RANK_CAP,
    quotients: Optional[Sequence[tuple[FiniteGroupTable, dict[str, int]]]] = None,
) -> Presentation:
    """Presentation whose relators are the fundamental-cycle words of
    every component (BFS tree based at vertex 0).

    The normal closure of the fundamental cycles equals that of all
    closed paths, so nothing is lost by skipping the exponentially many
    simple cycles.  As a cross-check, for components with at most 12
    edges all simple closed paths are enumerated and, in every supplied
    finite quotient that kills the basis relators, their words are
    verified to die as well.
    """
    alphabet = tuple(sorted({s for g in fam.components for s in g.alphabet}))
    relators: list[tuple[str, ...]] = []
    per_component: list[list[tuple[str, ...]]] = []
    for ci, g in enumerate(fam.components):
        rank = g.edge_count - g.vertex_count + 1
        if rank > rank_cap:
            raise CapExceededError(
                f"component {ci} has cycle rank {rank}, above the cap {rank_cap}"
            )
        maps = _out_maps(g)
        rel = _component_relators(g, maps)
        per_component.append(rel)
        relators.extend(rel)

    if quotients:
        for ci, g in enumerate(fam.components):
            if g.edge_count > 12:
                continue
            cycle_words = _enumerate_simple_cycles(g)
            for table, assignment in quotients:
                if any(
                    _evaluate_word(table, assignment, r) != table.identity
                    for r in per_component[ci]
                ):
                    continue
                for w in cycle_words:
                    if _evaluate_word(table, assignment, w) != table.identity:
                        raise VerificationError(
                            f"simple closed path {w} escapes the normal closure "
                            f"of the basis relators in a quotient of order {table.order}"
                        )
    return Presentation(alphabet=alphabet, relators=tuple(relators))


# -- coset enumeration -----------------------------------------------------


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


# -- covers and quotients ---------------------------------------------------


def check_label_preserving_cover(cm: CoveringMap) -> bool:
    """True iff the covering preserves labels and restricts to a
    bijection on every vertex star."""
    if cm.cover.alphabet != cm.base.alphabet:
        raise InvalidInputError("cover and base use different alphabets")
    for d in range(cm.cover.dart_count):
        if cm.cover.dart_label(d) != cm.base.dart_label(cm.dart_map[d]):
            return False
    for u in range(cm.cover.vertex_count):
        image_star = sorted(cm.dart_map[d] for d in cm.cover.out_darts(u))
        if image_star != sorted(cm.base.out_darts(cm.vertex_map[u])):
            return False
    return True


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
