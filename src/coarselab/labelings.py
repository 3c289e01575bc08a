"""Reduced labelings, piece enumeration, C'(lambda) small-cancellation
checking, random labeling search, and graphical presentations.

A labeling is reduced when at every vertex the outgoing darts carry
pairwise distinct labels.  That makes label-following deterministic,
so a word occurrence is determined by its start vertex, a
label-preserving isomorphism between pointed components is determined
by the image of the point, and "the same word readable from two
essentially distinct starts" becomes a statement about pairs of
inequivalent pointed vertices.  Piece enumeration therefore works on
the graph of pointed pairs, the simultaneous label moves from two
distinct starts (Stallings' pullback of the labeling with itself).
Its components decide equivalence themselves: moves carry the pairs
(x, phi(x)) of an isomorphism phi onto each other and back, so a
component holds only equivalent or only inequivalent pairs, and it
holds equivalent ones exactly when every pair's starts carry the same
labels and no start repeats in either coordinate (then x -> y is the
isomorphism).  Of the inequivalent components, trees yield finite
maximal pieces (their leaf-to-leaf paths) and components with a cycle
yield arbitrarily long pieces.

The small-cancellation verdict walks the pair components breadth-first
one at a time and stops at the first that breaks the bound.  The pieces
are read off the whole pair graph at once with numpy: every move from
an out-table, components by root hooking, equivalence and tree shape by
array reductions, the leaf-to-leaf words of every tree from a lockstep
walk out of all leaves, and the occurrences of every word by following
it from all starts at once.  Only cyclic components take the
breadth-first walk, for one period.  A report checks its pieces against
its verdict, so the two routes hold each other to account.  Moves are
label codes over the family's signed symbols; a word is spelled out only
to be canonicalised or reported.  The random search's candidates share
the darts of the unlabeled family and differ only in their label codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import PIECE_DART_CAP, PRESENTATION_RANK_CAP
from .errors import CapExceededError, InvalidInputError, VerificationError
from .graph_core import (
    GraphFamily,
    LabeledGraph,
    component_roots,
    fundamental_cycles,
    girth,
    inverse_label,
    label_clash,
    labels_apart,
)

#: random_labeling draws labels and orientations for this many attempts at
#: once; whole batches are always drawn, so the stream ignores the budget
LABEL_BATCH = 1024

LETTERS = "abcdefghijklmnopqrstuvwxyz"


# -- words -----------------------------------------------------------------


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
    freely reduced words.  Every dart must be labeled.  The counterexample
    is the first clash of :func:`~coarselab.graph_core.label_clash`."""
    clash = label_clash(g)
    if clash is None:
        return ReducedCheck(ok=True)
    earlier, d = clash
    if earlier < 0:
        raise InvalidInputError(f"dart {d} is unlabeled")
    return ReducedCheck(ok=False, vertex=int(g.src[d]), darts=(earlier, d))


def _require_reduced(g: LabeledGraph) -> None:
    """Raise unless the labeling of ``g`` is reduced, naming its first clash."""
    res = check_reduced(g)  # raises on an unlabeled dart
    if not res.ok:
        raise InvalidInputError(f"labeling is not reduced at vertex {res.vertex} (darts {res.darts})")


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


def _family_moves(
    fam: GraphFamily, cap: int
) -> tuple[tuple[str, ...], list[np.ndarray], list[dict[int, int]]]:
    """The moves of a reduced family within the dart cap.

    Returns the family's signed symbols (its sorted base symbols, then
    their inverses, so codes c and c + k (mod 2k) are mutual inverses),
    each component's label codes over them, and the moves of every
    pointed vertex, numbered across the family, as code -> target in
    out-dart order.  The labeling is reduced when every dart is labeled
    and no vertex has fewer moves than out-darts; else the first component
    that is not is named by :func:`check_reduced`."""
    if cap < 0:
        raise InvalidInputError(f"the dart cap must be nonnegative, got {cap}")
    total_darts = sum(g.dart_count for g in fam.components)
    if total_darts > cap:
        raise CapExceededError(
            f"piece enumeration over {total_darts} darts exceeds the cap {cap}"
        )
    bases = sorted(set().union(*(g.alphabet for g in fam.components)))
    symbols = (*bases, *map(inverse_label, bases))
    codes: list[np.ndarray] = []
    moves: list[dict[int, int]] = []
    for g in fam.components:
        c = g.codes
        if g.symbols != symbols:
            # -1 stays -1: it indexes the appended last entry
            c = np.array([symbols.index(s) for s in g.symbols] + [-1])[c]
        codes.append(c)
        at, to, first = c[g.out].tolist(), (g.dst[g.out] + len(moves)).tolist(), g.first.tolist()
        moves.extend(dict(zip(at[a:b], to[a:b])) for a, b in zip(first, first[1:]))
    if sum(map(len, moves)) < total_darts or any(-1 in m for m in moves):
        for g in fam.components:
            _require_reduced(g)
    return symbols, codes, moves


#: a breadth-first tree of pair nodes: node -> (parent node, move code)
_PairTree = dict[int, tuple[int, int]]


def _walk_pair_component(
    moves: list[dict[int, int]], root: int
) -> tuple[_PairTree, Optional[tuple[int, int, int]], bool]:
    """Breadth-first walk of the component of the pair node ``root``,
    taking the moves of :func:`_family_moves` in out-dart order.

    The pair of starts ``(a, b)`` is the node ``a * P + b`` for ``P``
    pointed vertices.  Returns the breadth-first tree as node -> (parent
    node, code of the move from the parent), the root's parent being
    -1; the first move ``(u, code, w)`` that closes a cycle, or None for
    a tree; and whether the component's pairs are equivalent: each
    pair's starts carry the same labels and no start repeats in either
    coordinate (a uniform C_2n paired with C_n repeats in one only).
    """
    size = len(moves)
    tree = {root: (-1, -1)}
    order = [root]
    closing = None
    same_labels = True
    for u in order:
        x, y = divmod(u, size)
        same_labels = same_labels and moves[x].keys() == moves[y].keys()
        # a second move between a node and its parent is met, as a
        # cycle, while the parent is expanded, so every move back
        # to the parent can be passed over
        up = tree[u][0]
        for lab, x2 in moves[x].items():
            y2 = moves[y].get(lab)
            if y2 is None:
                continue
            w = x2 * size + y2
            if w in tree:
                if w != up and closing is None:
                    closing = (u, lab, w)
                continue
            tree[w] = (u, lab)
            order.append(w)
    firsts = {u // size for u in order}
    seconds = {u % size for u in order}
    return tree, closing, same_labels and len(firsts) == len(seconds) == len(order)


def _pair_components(
    fam: GraphFamily, cap: int
) -> Iterator[tuple[tuple[int, int], _PairTree, Optional[tuple[int, int, int]], bool]]:
    """Components of the graph of simultaneous label moves between
    distinct pointed starts of a reduced family within the dart cap, each
    walked once by :func:`_walk_pair_component`; the family is checked
    on the call, the components are walked as they are read.

    Nodes of distinct starts sharing a label are tried as roots in
    increasing order, so a component is entered at its smallest node.
    The mirror ``(b, a)`` of a walked component reads the same words and
    is skipped.  Every equivalent pair lies in a walked component or in
    its mirror.  Yields the graph components ``(ca, cb)`` the pair
    component touches and the walk's tree, closing move and equivalence
    flag.
    """
    _, _, moves = _family_moves(fam, cap)
    comp = [ci for ci, g in enumerate(fam.components) for _ in range(g.vertex_count)]
    size = len(moves)
    # a pair node shares a label, so its starts are holders of one label
    holders: dict[int, list[int]] = {}
    for p, m in enumerate(moves):
        for c in m:
            holders.setdefault(c, []).append(p)

    def walks():
        done: set[int] = set()
        for a, m in enumerate(moves):
            for b in sorted({b for c in m for b in holders[c]}):
                root = a * size + b
                if a == b or root in done:
                    continue
                tree, closing, equivalent = _walk_pair_component(moves, root)
                for u in tree:
                    x, y = divmod(u, size)
                    done.add(u)
                    done.add(y * size + x)
                yield (comp[a], comp[b]), tree, closing, equivalent

    return walks()


def _longest_path(tree: _PairTree) -> int:
    """Length of a longest path of a breadth-first tree, from one
    reverse sweep of subtree heights."""
    height = dict.fromkeys(tree, 0)
    longest = 0
    for u in reversed(tree):
        up = tree[u][0]
        if up >= 0:
            longest = max(longest, height[up] + height[u] + 1)
            height[up] = max(height[up], height[u] + 1)
    return longest


def _root_word(tree: _PairTree, v: int) -> tuple[int, ...]:
    """Codes read along the tree path from the root to ``v``."""
    word = []
    while tree[v][0] >= 0:
        v, c = tree[v]
        word.append(c)
    return tuple(reversed(word))


def _legs(wx: tuple[int, ...], wy: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two root words cut at the last common node of their ends: the
    moves out of a node carry distinct codes, so the words share
    exactly the prefix read up to that node."""
    k = 0
    while k < min(len(wx), len(wy)) and wx[k] == wy[k]:
        k += 1
    return wx[k:], wy[k:]


def _index_dtype(count: int) -> type:
    """int32 when every integer below ``count`` fits it, else int64."""
    return np.int32 if count <= 1 << 31 else np.int64


def _pair_darts(
    step: np.ndarray, columns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The graph of pointed pairs of the out-table ``step`` (P + 1 rows,
    the last one the sink), one move per edge: every label of
    ``columns`` pairs every two distinct holders x != y into the move
    (x, y) -> (step[x, l], step[y, l]), whose way back by the inverse
    label is left implicit.  Returns the pair nodes, the ends of every
    move, as keys x * P + y in increasing order, and the source node,
    target node and label of every move."""
    size = len(step) - 1
    # keys and node indices fit int32 at the dart cap, which halves the
    # largest arrays
    key = _index_dtype(size * size)
    ends = []
    for label in columns:
        h = np.flatnonzero(step[:size, label] < size).astype(key)
        x, y = np.repeat(h, len(h)), np.tile(h, len(h))
        apart = x != y
        x, y = x[apart], y[apart]
        ends.append((x * size + y, (step[x, label] * size + step[y, label]).astype(key)))
    # an in-place sort: np.unique holds several times the keys at once
    nodes = np.concatenate([k for pair in ends for k in pair])
    nodes.sort()
    nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
    index = _index_dtype(len(nodes))
    src = np.concatenate([np.searchsorted(nodes, a).astype(index) for a, _ in ends])
    dst = np.concatenate([np.searchsorted(nodes, b).astype(index) for _, b in ends])
    counts = [len(a) for a, _ in ends]
    move = np.repeat(np.asarray(columns, dtype=np.min_scalar_type(step.shape[1])), counts)
    return nodes, src, dst, move


def _leaf_paths(
    src: np.ndarray, dst: np.ndarray, move: np.ndarray, inverse: np.ndarray, trees: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The leaf-to-leaf paths of the tree components marked in ``trees``,
    walked in lockstep from every leaf at once, over the moves of
    :func:`_pair_darts` and their ways back, labeled ``inverse[move]``.

    A state is a start leaf, a node, the node it came from and the labels
    read so far, and each step extends it by every move but the one
    back.  Yields, for each length k that some path has, the end nodes
    of the paths of length k, each leaf pair once (from its smaller
    leaf), and their label rows."""
    in_trees = trees[src]
    src, dst, move = src[in_trees], dst[in_trees], move[in_trees]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    move = np.concatenate([move, inverse[move]])
    out_degree = np.bincount(src, minlength=len(trees))
    by_source = np.argsort(src, kind="stable")
    out_start = np.cumsum(out_degree) - out_degree
    heads, labels = dst[by_source], move[by_source]
    leaf = out_degree == 1
    node = np.flatnonzero(trees & leaf)
    origin, prev, words = node, np.full(len(node), -1), np.empty((len(node), 0), dtype=move.dtype)
    while len(node):
        count = out_degree[node]
        parent = np.repeat(np.arange(len(node)), count)
        dart = np.repeat(out_start[node] - (np.cumsum(count) - count), count) + np.arange(len(parent))
        forward = heads[dart] != prev[parent]
        parent, dart = parent[forward], dart[forward]
        reached, start = heads[dart], origin[parent]
        words = np.column_stack((words[parent], labels[dart]))
        ends = leaf[reached]
        done = ends & (start < reached)
        if done.any():
            yield words.shape[1], reached[done], words[done]
        going = ~ends
        origin, prev, node, words = start[going], node[parent[going]], reached[going], words[going]


def _piece_analysis(fam: GraphFamily, cap: int) -> tuple[list[Piece], list[float]]:
    """Pieces and the longest piece meeting each component, read in bulk
    off the graph of pointed pairs.

    Pointed vertices are numbered across the family, P of them, in an
    out-table ``step`` of (vertex, label code) -> target, the sink row
    P for no move.  The pair nodes (:func:`_pair_darts`) are numbered in
    the order of their keys x * P + y and split into components by root
    hooking.  A component is read when its smallest node is at most its
    mirror's (the same starts swapped, reading the same words) and its
    pairs are inequivalent; equivalent components only name the classes
    of starts.  A component with as many darts as a tree, 2 * (nodes -
    1), gives its leaf-to-leaf words (:func:`_leaf_paths`), the last of
    which is its longest path.  Only cyclic components take the
    breadth-first walk, from their smallest node, for one period.  Every
    word is then followed from all starts at once, and the smallest
    start of each class it is readable from is its occurrence there.
    """
    symbols, codes, moves = _family_moves(fam, cap)
    size, width = len(moves), len(symbols)
    offsets = np.cumsum([0] + [g.vertex_count for g in fam.components])
    comp_of = np.repeat(np.arange(len(fam)), np.diff(offsets))
    local = np.arange(size) - offsets[comp_of]
    step = np.full((size + 1, width), size, dtype=np.int64)
    dart_of = np.full((size + 1, width), -1, dtype=np.int64)
    for g, c, offset in zip(fam.components, codes, offsets):
        step[offset + g.src, c] = offset + g.dst
        dart_of[offset + g.src, c] = np.arange(g.dart_count)
    per_comp_max: list[float] = [0] * len(fam)
    held = step[:size] < size
    if not (np.count_nonzero(held, axis=0) > 1).any():
        # no two starts share a label, so there is no pair node
        return [], per_comp_max

    inverse = (np.arange(width) + width // 2) % width
    nodes, src, dst, move = _pair_darts(step, range(width // 2))
    n = len(nodes)
    nx, ny = np.divmod(nodes, size)
    root = component_roots(src, dst, n)
    kept = root <= root[np.searchsorted(nodes, ny * size + nx)]
    # a component is equivalent when every pair's starts carry the same
    # labels (equal rows of ``held``) and no start repeats in either
    # coordinate
    carried = np.unique(held, axis=0, return_inverse=True)[1].reshape(-1)
    inequivalent = np.zeros(n, dtype=bool)
    inequivalent[root[carried[nx] != carried[ny]]] = True
    for coord in (nx, ny):
        keys = np.sort(coord * np.int64(n) + root)
        inequivalent[keys[1:][keys[1:] == keys[:-1]] % n] = True
    del keys  # 8 bytes a node, not held through the tree count below
    # a class is named by its smallest start
    class_of = np.arange(size)
    same = ~inequivalent[root]
    np.minimum.at(class_of, nx[same], ny[same])
    read = kept & inequivalent[root]
    # each move stands for both darts of an edge, so a tree component has
    # one move fewer than nodes
    is_tree = np.bincount(root[src], minlength=n) == np.bincount(root, minlength=n) - 1

    infinite_words: set[tuple[str, ...]] = set()
    cyclic = np.flatnonzero(read & ~is_tree & (root == np.arange(n)))
    for r in cyclic.tolist():
        # one period: down the tree to the closing move, across it, and
        # back up to the last common node of its two ends
        tree, (u, c, w), _ = _walk_pair_component(moves, int(nodes[r]))
        to_u, to_w = _legs(_root_word(tree, u), _root_word(tree, w))
        period = [*to_u, c, *(inverse[x] for x in reversed(to_w))]
        infinite_words.add(canonical_word([symbols[x] for x in period]))
    finite_words: set[tuple[str, ...]] = set()
    longest = np.zeros(len(fam))
    # the paths come in increasing length, so the last length set is the longest
    for k, ends, rows in _leaf_paths(src, dst, move, inverse, read & is_tree[root]):
        longest[comp_of[nx[ends]]] = longest[comp_of[ny[ends]]] = k
        finite_words.update(
            canonical_word([symbols[c] for c in row]) for row in np.unique(rows, axis=0).tolist()
        )
    longest[comp_of[nx[cyclic]]] = longest[comp_of[ny[cyclic]]] = math.inf
    per_comp_max = [x if math.isinf(x) else int(x) for x in longest.tolist()]

    # a word that is also a period is listed once, as infinite; a finite
    # word inside a longer one, either way round, is not maximal
    lengths = {len(w) for w in finite_words}
    inside = {
        form[i : i + k]
        for other in finite_words
        for form in (other, word_inverse(other))
        for k in lengths
        if k < len(other)
        for i in range(len(other) - k + 1)
    }
    keep = [w for w in finite_words - infinite_words if w not in inside]

    pieces = []
    for w in sorted(keep) + sorted(infinite_words):
        path = [symbols.index(s) for s in w]
        at = np.arange(size)
        for c in path:
            at = step[at, c]
        starts = np.flatnonzero(at < size)
        _, firsts = np.unique(class_of[starts], return_index=True)
        if len(firsts) < 2:
            raise VerificationError("piece word lost its inequivalent occurrences")
        # the starts ascend, so each class's first is its smallest
        reps = np.sort(starts[firsts])
        at, walked = reps, []
        for c in path:
            walked.append(dart_of[at, c])
            at = step[at, c]
        infinite_word = w in infinite_words
        pieces.append(
            Piece(
                word=w,
                length=math.inf if infinite_word else len(w),
                occurrences=tuple(
                    PieceOccurrence(component=ci, start=v, darts=tuple(ds))
                    for ci, v, ds in zip(
                        comp_of[reps].tolist(), local[reps].tolist(), np.stack(walked, axis=1).tolist()
                    )
                ),
                components=tuple(np.unique(comp_of[starts]).tolist()),
                infinite=infinite_word,
            )
        )
    pieces.sort(key=lambda p: (p.occurrences[0].component, p.occurrences[0].start, p.word))
    return pieces, per_comp_max


def enumerate_pieces(fam: GraphFamily, cap: int = PIECE_DART_CAP) -> tuple[Piece, ...]:
    """All maximal pieces of a reduced-labeled family.

    A piece is a labeled path readable from two starts not related by
    any label-preserving isomorphism between their components; maximal
    means not a proper subword (in either orientation) of another
    piece.  A component of the simultaneous-move product graph that
    contains a cycle witnesses arbitrarily long pieces; it and its
    mirror, the same starts swapped, are reported as one infinite piece
    carrying one period.  A word that is also such a period is listed
    once, as infinite.
    """
    pieces, _ = _piece_analysis(fam, cap)
    return tuple(pieces)


@dataclass(frozen=True)
class SmallCancellationReport:
    """Strict C'(lambda) verdict with the per-component evidence.

    ``passed`` is decided when the report is made.  ``max_piece_length``
    and ``violations`` come from the full piece enumeration, run on first
    access and checked against ``passed``."""

    lambda_value: Fraction
    girths: tuple[float, ...]
    passed: bool
    family: GraphFamily = field(repr=False, compare=False)
    cap: int = field(repr=False, compare=False)

    @cached_property
    def _evidence(self) -> tuple[tuple[float, ...], tuple[str, ...]]:
        _, per_comp_max = _piece_analysis(self.family, self.cap)
        violations = []
        for ci, longest in enumerate(per_comp_max):
            if longest == 0:
                continue
            bound = math.inf if math.isinf(self.girths[ci]) else self.lambda_value * self.girths[ci]
            if not longest < bound:
                violations.append(
                    f"component {ci}: piece length {longest} not < lambda*girth = {bound}"
                )
        if (not violations) != self.passed:
            raise VerificationError("piece enumeration disagrees with the pair-graph verdict")
        return tuple(per_comp_max), tuple(violations)

    @property
    def max_piece_length(self) -> tuple[float, ...]:
        return self._evidence[0]

    @property
    def violations(self) -> tuple[str, ...]:
        return self._evidence[1]


def check_small_cancellation(
    fam: GraphFamily, lam, cap: int = PIECE_DART_CAP, girths: Optional[Sequence] = None
) -> SmallCancellationReport:
    """Check that every piece meeting a component is strictly shorter
    than lambda times that component's girth.

    The verdict walks the pair graph one component at a time and stops
    at the first component with a cycle or a path as long as
    lambda*girth; the pieces themselves are read in bulk only when the
    report's evidence is read, and checked against the verdict.  Girths do not
    depend on the labels, so a caller that checks many labelings of one
    unlabeled family passes its component ``girths`` in once computed."""
    lam = Fraction(lam)
    if lam <= 0:
        raise InvalidInputError("lambda must be positive")
    walks = _pair_components(fam, cap)
    girths = tuple(girth(g) for g in fam.components) if girths is None else tuple(girths)
    if len(girths) != len(fam):
        raise InvalidInputError(f"{len(girths)} girths given for {len(fam)} components")
    limits = [math.inf if math.isinf(gr) else math.ceil(lam * gr) for gr in girths]
    return SmallCancellationReport(
        lambda_value=lam,
        girths=girths,
        passed=all(
            equivalent or (closing is None and _longest_path(tree) < min(limits[ca], limits[cb]))
            for (ca, cb), tree, closing, equivalent in walks
        ),
        family=fam,
        cap=cap,
    )


# -- random labelings ------------------------------------------------------


@dataclass(frozen=True)
class RandomLabelingOutcome:
    success: bool
    attempts: int
    family: Optional[GraphFamily]
    report: Optional[SmallCancellationReport]
    alphabet: tuple[str, ...]


def _oriented(g: LabeledGraph, signed: np.ndarray, symbols: tuple[str, ...]) -> LabeledGraph:
    """``g`` labeled by the signed labels of :func:`random_labeling`, each
    edge written in the direction that reads its symbol."""
    flip, ends = signed >= len(symbols), (g.src[0::2], g.dst[0::2])
    return LabeledGraph(g.vertex_count, np.where(flip, *ends[::-1]), np.where(flip, *ends), signed % len(symbols), symbols)


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
    independent uniform label and orientation.  Attempts are drawn
    ``LABEL_BATCH`` at a time from ``numpy.random.default_rng(seed)``
    and filtered for reducedness as a whole batch; the survivors then
    face the strict piece bound in attempt order.  Requires lambda *
    girth > 1 on every component; below that no labeling can work, so
    the search is refused.  The outcome reports the attempts used;
    failure after ``max_attempts`` claims nothing about impossibility.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    if max_attempts < 1:
        raise InvalidInputError(f"max_attempts must be at least 1, got {max_attempts}")
    lam = Fraction(lam)
    if not 1 <= alphabet_size <= len(LETTERS):
        raise InvalidInputError(f"letter alphabets support 1..{len(LETTERS)} symbols")
    alphabet = tuple(LETTERS[:alphabet_size])
    girths = tuple(girth(g) for g in fam.components)
    for ci, gr in enumerate(girths):
        bound = math.inf if math.isinf(gr) else lam * gr
        if not bound > 1:
            raise InvalidInputError(
                f"component {ci}: lambda*girth = {bound} is not > 1, no reduced "
                "small-cancellation labeling can exist"
            )
    width = 2 * alphabet_size
    comps = fam.components
    # the source of every dart of the family, numbered across the family
    offsets = np.cumsum([0] + [g.vertex_count for g in comps])
    src = np.concatenate([g.src + o for g, o in zip(comps, offsets)])
    dart_cuts = np.cumsum([g.dart_count for g in comps])[:-1]
    rng = np.random.default_rng(seed)

    for start in range(0, max_attempts, LABEL_BATCH):
        # one signed label per edge and attempt: s < k reads symbol s from
        # the first end to the second, s >= k reads symbol s - k the other
        # way, so label and orientation are uniform and independent
        signed = rng.integers(width, size=(LABEL_BATCH, src.size // 2))
        # as label codes over the symbols and their inverses, dart 2k reads
        # s and dart 2k + 1 reads s + k mod 2k
        codes = np.stack((signed, (signed + alphabet_size) % width), axis=2).reshape(LABEL_BATCH, -1)
        for row in np.flatnonzero(labels_apart(src, codes, width)[: max_attempts - start]):
            rows = np.split(codes[row], dart_cuts)
            # each candidate shares the darts of the family and reads edge k
            # the other way round where s >= k, which is the same labeled graph
            candidate = GraphFamily(tuple(g.relabel(r, alphabet) for g, r in zip(comps, rows)))
            report = check_small_cancellation(candidate, lam, girths=girths)
            if report.passed:
                family = GraphFamily(tuple(_oriented(g, r[0::2], alphabet) for g, r in zip(comps, rows)))
                return RandomLabelingOutcome(
                    success=True,
                    attempts=start + int(row) + 1,
                    family=family,
                    report=replace(report, family=family),
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


def _component_relators(g: LabeledGraph) -> list[tuple[str, ...]]:
    """Fundamental-cycle relators of the BFS spanning tree rooted at 0."""
    labels = g.labels()
    return [free_reduce([labels[d] for d in darts]) for _, darts in fundamental_cycles(g)]


def graphical_presentation(fam: GraphFamily, rank_cap: int = PRESENTATION_RANK_CAP) -> Presentation:
    """Presentation whose relators are the fundamental-cycle words of
    every component (BFS tree based at vertex 0).

    The normal closure of the fundamental cycles equals that of all
    closed paths, so nothing is lost by skipping the exponentially many
    simple cycles.
    """
    if rank_cap < 0:
        raise InvalidInputError(f"the rank cap must be nonnegative, got {rank_cap}")
    alphabet = tuple(sorted({s for g in fam.components for s in g.alphabet}))
    relators: list[tuple[str, ...]] = []
    for ci, g in enumerate(fam.components):
        rank = g.edge_count - g.vertex_count + 1
        if rank > rank_cap:
            raise CapExceededError(
                f"component {ci} has cycle rank {rank}, above the cap {rank_cap}"
            )
        _require_reduced(g)
        relators.extend(_component_relators(g))
    return Presentation(alphabet=alphabet, relators=tuple(relators))
