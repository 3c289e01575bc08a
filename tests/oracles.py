"""Naive reference implementations used only by the test suite.

Everything in here is written straight from the defining formulas with
no attention to speed, so the fast library code has something honest to
disagree with.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from coarselab.graph_core import LabeledGraph, bfs_tree, build_graph, source_rows


def edge_list(g: LabeledGraph) -> list[tuple[int, int, Optional[str]]]:
    """One (source, target, label) triple per edge, read off dart 2k."""
    return list(zip(g.src[0::2].tolist(), g.dst[0::2].tolist(), g.labels()[0::2]))


def degrees(g: LabeledGraph) -> list[int]:
    """The out-dart count of every vertex (a loop counts twice)."""
    return [int(x) for x in g.first[1:] - g.first[:-1]]


def out_darts(g: LabeledGraph, v: int) -> list[int]:
    """The darts out of ``v``, in increasing order."""
    return g.out[g.first[v] : g.first[v + 1]].tolist()


def loop_check_reduced(g: LabeledGraph):
    """The reducedness check as a loop over the vertices and their
    out-darts in order: the first vertex, with its first two out-darts,
    that repeat a label; raises on an unlabeled dart met first."""
    from coarselab.errors import InvalidInputError
    from coarselab.labelings import ReducedCheck

    labels = g.labels()
    for u in range(g.vertex_count):
        seen: dict[str, int] = {}
        for d in out_darts(g, u):
            lab = labels[d]
            if lab is None:
                raise InvalidInputError(f"dart {d} is unlabeled")
            if lab in seen:
                return ReducedCheck(ok=False, vertex=u, darts=(seen[lab], d))
            seen[lab] = d
    return ReducedCheck(ok=True)


def naive_bfs(n: int, adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def naive_girth(g: LabeledGraph):
    """Shortest cycle by deleting each edge and measuring the detour.

    Any loop is a 1-cycle.  Otherwise, for edge e = (u, v), the shortest
    cycle through e has length 1 + dist(u, v) in the graph minus e.
    """
    edges = list(edge_list(g))
    if any(u == v for u, v, _ in edges):
        return 1
    best = math.inf
    for skip in range(len(edges)):
        adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for j, (u, v, _) in enumerate(edges):
            if j != skip:
                adj[u].append(v)
                adj[v].append(u)
        u, v, _ = edges[skip]
        d = naive_bfs(g.vertex_count, adj, u)[v]
        if d >= 0:
            best = min(best, d + 1)
    return best


def naive_cheeger(g: LabeledGraph) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum |boundary(A)| / |A| over nonempty A with |A| <= n/2."""
    n = g.vertex_count
    edges = list(edge_list(g))
    best = None
    best_set = None
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            boundary = sum(1 for u, v, _ in edges if (u in inside) != (v in inside))
            ratio = Fraction(boundary, size)
            if best is None or ratio < best or (ratio == best and subset < best_set):
                best = ratio
                best_set = subset
    return best, best_set


def complete(n: int) -> LabeledGraph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen() -> LabeledGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def prism(n: int) -> LabeledGraph:
    rims = [(i, (i + 1) % n) for i in range(n)] + [(n + i, n + (i + 1) % n) for i in range(n)]
    return build_graph(2 * n, rims + [(i, n + i) for i in range(n)])


def multi_k4() -> LabeledGraph:
    """K4 with a doubled edge on the root's first tree edge and a loop,
    the base of the golden artifacts."""
    return build_graph(4, [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3)])


def random_connected_graph(rng, n: int, extra_edges: int) -> LabeledGraph:
    """Random tree plus ``extra_edges`` uniform chords (repeats allowed)."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    return build_graph(n, edges)


def random_graph(rng, n: int, edge_count: int) -> LabeledGraph:
    """Uniform random endpoints; may be disconnected, may have loops."""
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
    return build_graph(n, edges)



def random_multigraph(rng, n: int, edge_count: int, bipartite: bool = False) -> LabeledGraph:
    """Random multigraph with one of its edges doubled and, unless it is
    drawn bipartite (edges only between even and odd vertices, so n >= 2),
    a loop."""
    edges = []
    while len(edges) < edge_count:
        u, v = rng.randrange(n), rng.randrange(n)
        if not bipartite or (u + v) % 2:
            edges.append((u, v))
    if edges:
        edges.append(rng.choice(edges))
    if not bipartite:
        v = rng.randrange(n)
        edges.append((v, v))
    rng.shuffle(edges)
    return build_graph(n, edges)


def scipy_components(g: LabeledGraph, removed=frozenset()) -> list[int]:
    """Component labels from scipy after deleting the edges in ``removed``."""
    import numpy as np
    import scipy.sparse
    import scipy.sparse.csgraph

    kept = [(u, v) for k, (u, v, _) in enumerate(edge_list(g)) if k not in removed]
    rows = np.array([u for u, _ in kept], dtype=np.int64)
    cols = np.array([v for _, v in kept], dtype=np.int64)
    n = g.vertex_count
    adj = scipy.sparse.coo_matrix((np.ones(len(kept)), (rows, cols)), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(adj, directed=False)
    return [int(x) for x in labels]


def scipy_distance_matrix(g: LabeledGraph, sources=None):
    """Unweighted distances from each of ``sources`` (default: every
    vertex) by scipy's breadth-first ``shortest_path``; ``inf`` between
    components."""
    import numpy as np
    import scipy.sparse
    import scipy.sparse.csgraph

    rows = np.array([u for u, _, _ in edge_list(g)], dtype=np.int64)
    cols = np.array([v for _, v, _ in edge_list(g)], dtype=np.int64)
    n = g.vertex_count
    adj = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return scipy.sparse.csgraph.shortest_path(
        adj.tocsr(), method="D", unweighted=True, directed=False, indices=sources
    )


def wallmetric_csv(d_wall, d_graph) -> str:
    """The ``wallmetric`` artifact from full wall and graph distance
    matrices, one f-string per pair u < v in row order."""
    n = len(d_wall)
    d_graph = d_graph.astype("int64")
    rows = ["u,v,wall_distance,graph_distance"]
    for u in range(n):
        rows += [
            f"{u},{v},{w},{d}"
            for v, w, d in zip(
                range(u + 1, n), d_wall[u, u + 1 :].tolist(), d_graph[u, u + 1 :].tolist()
            )
        ]
    return "\n".join(rows) + "\n"


def dense_eigvalsh(g: LabeledGraph):
    """Adjacency eigenvalues, descending, of the dense matrix built edge by
    edge (a loop adds 2 on the diagonal)."""
    import numpy as np

    dense = np.zeros((g.vertex_count, g.vertex_count))
    for u, v, _ in edge_list(g):
        dense[u, v] += 1
        dense[v, u] += 1
    return np.linalg.eigvalsh(dense)[::-1]


def dense_laplacian_lambda2(g: LabeledGraph) -> float:
    """Second-smallest eigenvalue of D - A, the dense matrix built edge by
    edge (a loop cancels out of D - A); 0 for a disconnected graph."""
    import numpy as np

    lap = np.zeros((g.vertex_count, g.vertex_count))
    for u, v, _ in edge_list(g):
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return float(np.linalg.eigvalsh(lap)[1])


def all_character_blocks_spectrum(g: LabeledGraph):
    """Adjacency eigenvalues, descending, from all m character blocks of
    the cyclic symmetry h that ``graph_core`` picks, conjugate pairs
    included: block c is the matrix of A on the span of
    sum_k w^(-ck) e_(h^k r_j) over the cycle heads r_j."""
    import numpy as np

    from coarselab.graph_core import _cyclic_symmetry

    powers = _cyclic_symmetry(g)
    m, n = powers.shape
    heads = sorted({int(min(powers[:, x])) for x in range(n)})
    where = {}
    for j, r in enumerate(heads):
        for k in range(m):
            where[int(powers[k, r])] = (j, k)
    w = np.exp(2j * np.pi * np.arange(m) / m)
    vals = []
    for c in range(m):
        block = np.zeros((len(heads), len(heads)), dtype=complex)
        for u, v, _ in edge_list(g):
            for a, b in ((u, v), (v, u)):
                (ja, ka), (jb, kb) = where[a], where[b]
                if ka == 0:
                    block[jb, ja] += w[c * kb % m]
        vals.extend(np.linalg.eigvalsh(block))
    return np.sort(vals)[::-1]


def lifted_character_residual(g: LabeledGraph) -> float:
    """The worst residual ||A v - lambda v|| / ||v|| over the eigenpairs
    of the character blocks c = 0 .. floor(m/2) of the cyclic symmetry
    that ``graph_core`` picks, each eigenvector u lifted to n rows as
    v[x] = w^(-cK[x]) u[J[x]] / sqrt(m), x = h^K[x](r_J[x]), and
    multiplied by the scipy sparse adjacency.  The blocks are added up
    dart by dart in dart order, as the character route adds them."""
    from coarselab.graph_core import _adjacency_csr, _cyclic_symmetry

    powers = _cyclic_symmetry(g)
    m, n = powers.shape
    heads = sorted({int(min(powers[:, x])) for x in range(n)})
    J, K = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for j, r in enumerate(heads):
        for k in range(m):
            J[powers[k, r]], K[powers[k, r]] = j, k
    w = np.exp(2j * np.pi * np.arange(m) / m)
    blocks = np.zeros((m // 2 + 1, len(heads), len(heads)), dtype=complex)
    for c in range(len(blocks)):
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            if K[u] == 0:
                blocks[c, J[v], J[u]] += w[c * K[v] % m]
    vals, vecs = np.linalg.eigh(blocks)
    adj = _adjacency_csr(g)
    worst = 0.0
    for c in range(len(blocks)):
        lifted = w[-c * K % m][:, np.newaxis] * vecs[c][J] / math.sqrt(m)
        resid = np.linalg.norm(adj @ lifted - lifted * vals[c], axis=0)
        worst = max(worst, float((resid / np.linalg.norm(lifted, axis=0)).max()))
    return worst


def bfs_two_coloring(g: LabeledGraph) -> Optional[np.ndarray]:
    """The breadth-first 2-coloring: the tree of ``bfs_tree`` from the
    smallest vertex of each component colored by depth parity, its root
    0; None when some dart joins two vertices of one color."""
    color = [0] * g.vertex_count
    src = g.src.tolist()
    heads = np.unique(g.component_ids, return_index=True)[1]
    for v, d in bfs_tree(g, *heads.tolist()).items():
        color[v] = 0 if d < 0 else color[src[d]] ^ 1
    color = np.array(color, dtype=np.int8)
    return None if np.any(color[g.src] == color[g.dst]) else color


def right_orbit(steps: np.ndarray, start: int) -> np.ndarray:
    """Which elements right multiplication reaches from ``start``, as a
    boolean mask, one frontier at a time: row k of ``steps`` is the
    permutation x -> x s_k."""
    seen = np.zeros(steps.shape[1], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        reached = steps[:, frontier].reshape(-1)
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return seen


def naive_is_bipartite(g: LabeledGraph) -> bool:
    """Try every 2-coloring; a loop makes every coloring fail."""
    edges = [(u, v) for u, v, _ in edge_list(g)]
    return any(
        all((mask >> u & 1) != (mask >> v & 1) for u, v in edges)
        for mask in range(1 << g.vertex_count)
    )


# -- naive piece reference --------------------------------------------------
#
# Pointed isomorphism goes through networkx VF2 on labeled multidigraphs,
# common words come from a plain simultaneous depth-first search, and
# nothing below shares code with the library's piece machinery.

import networkx as nx
from networkx.algorithms import isomorphism as nx_iso


def _inv(sym: str) -> str:
    return sym[:-3] if sym.endswith("^-1") else sym + "^-1"


def _component_digraph(g: LabeledGraph) -> nx.MultiDiGraph:
    dg = nx.MultiDiGraph()
    dg.add_nodes_from(range(g.vertex_count))
    for u, v, lab in zip(g.src.tolist(), g.dst.tolist(), g.labels()):
        dg.add_edge(u, v, label=lab)
    return dg


def naive_pointed_equivalent(fam, a, b) -> bool:
    """True iff a label-preserving isomorphism of components maps the
    pointed vertex ``a`` to ``b`` (VF2 with an anchor color)."""
    if a == b:
        return True
    g1 = _component_digraph(fam.components[a[0]])
    g2 = _component_digraph(fam.components[b[0]])
    for v in g1.nodes:
        g1.nodes[v]["anchor"] = 1 if v == a[1] else 0
    for v in g2.nodes:
        g2.nodes[v]["anchor"] = 1 if v == b[1] else 0
    matcher = nx_iso.MultiDiGraphMatcher(
        g1,
        g2,
        node_match=nx_iso.categorical_node_match("anchor", 0),
        edge_match=nx_iso.categorical_multiedge_match("label", None),
    )
    return matcher.is_isomorphic()


def naive_pointed_classes(fam) -> dict:
    """Class id per pointed vertex, by VF2 comparison with class reps."""
    reps: list[tuple[int, int]] = []
    class_of: dict[tuple[int, int], int] = {}
    for ci, g in enumerate(fam.components):
        for v in range(g.vertex_count):
            p = (ci, v)
            for idx, r in enumerate(reps):
                if naive_pointed_equivalent(fam, p, r):
                    class_of[p] = idx
                    break
            else:
                class_of[p] = len(reps)
                reps.append(p)
    return class_of


def _naive_out_maps(fam) -> list[dict]:
    maps = []
    for g in fam.components:
        per = []
        labels, dst = g.labels(), g.dst.tolist()
        for v in range(g.vertex_count):
            labs = {}
            for d in out_darts(g, v):
                lab = labels[d]
                assert lab not in labs, "oracle requires a reduced labeling"
                labs[lab] = dst[d]
            per.append(labs)
        maps.append(per)
    return maps


def naive_piece_summary(fam):
    """Dictionary with the piece data a correct implementation must match.

    Keys: ``maximal_words`` (canonical forms, finite pieces only, empty
    when any piece is infinite), ``per_comp_max`` (length bound met by
    each component, possibly math.inf), ``infinite`` (bool).
    """
    maps = _naive_out_maps(fam)
    class_of = naive_pointed_classes(fam)
    pointed = [(ci, v) for ci, g in enumerate(fam.components) for v in range(g.vertex_count)]
    state_cap = len(pointed) * len(pointed) + 2

    words: set = set()
    per_comp_max = [0] * len(fam.components)
    infinite = False
    for a in pointed:
        for b in pointed:
            if a == b or class_of[a] == class_of[b]:
                continue
            stack = [((a, b), (), frozenset([(a, b)]))]
            while stack:
                (pa, pb), word, anc = stack.pop()
                la = maps[pa[0]][pa[1]]
                lb = maps[pb[0]][pb[1]]
                for sym in set(la) & set(lb):
                    if word and sym == _inv(word[-1]):
                        continue
                    w2 = word + (sym,)
                    words.add(w2)
                    per_comp_max[a[0]] = max(per_comp_max[a[0]], len(w2))
                    per_comp_max[b[0]] = max(per_comp_max[b[0]], len(w2))
                    nxt = ((pa[0], la[sym]), (pb[0], lb[sym]))
                    if nxt in anc or len(w2) > state_cap:
                        infinite = True
                        per_comp_max[a[0]] = math.inf
                        per_comp_max[b[0]] = math.inf
                        continue
                    stack.append((nxt, w2, anc | {nxt}))

    def canon(w):
        back = tuple(_inv(s) for s in reversed(w))
        return min(w, back)

    def contains(w, big):
        for form in (big, tuple(_inv(s) for s in reversed(big))):
            if any(form[i : i + len(w)] == w for i in range(len(form) - len(w) + 1)):
                return True
        return False

    canonical = {canon(w) for w in words}
    maximal = set()
    if not infinite:
        maximal = {
            w
            for w in canonical
            if not any(len(o) > len(w) and contains(w, o) for o in canonical)
        }
    return {
        "maximal_words": maximal,
        "per_comp_max": per_comp_max,
        "infinite": infinite,
    }


def naive_word_starts(fam, word) -> list:
    """All pointed vertices from which ``word`` is readable."""
    maps = _naive_out_maps(fam)
    hits = []
    for ci, g in enumerate(fam.components):
        for v in range(g.vertex_count):
            u = v
            ok = True
            for sym in word:
                if sym not in maps[ci][u]:
                    ok = False
                    break
                u = maps[ci][u][sym]
            if ok:
                hits.append((ci, v))
    return hits


def follow_word(g, start, word):
    """Darts of the unique path reading ``word`` from ``start`` in a
    reduced labeling, or None."""
    u = start
    darts = []
    labels, dst = g.labels(), g.dst.tolist()
    for s in word:
        d = next((d for d in out_darts(g, u) if labels[d] == s), None)
        if d is None:
            return None
        darts.append(d)
        u = dst[d]
    return tuple(darts)


def walked_pieces(fam, cap):
    """Pieces and per-component longest piece from the breadth-first walk
    of every pair component, one dict step at a time: the leaf-to-leaf
    words of every tree read off its root words (the tree's move codes
    spelled through the family's symbols), one period per cyclic
    component, maximality by a scan over every pair of words, and each
    word followed from each start in turn."""
    from collections import Counter

    from coarselab.errors import VerificationError
    from coarselab.labelings import (
        Piece,
        PieceOccurrence,
        _family_moves,
        _legs,
        _longest_path,
        _pair_components,
        _root_word,
        canonical_word,
        word_inverse,
    )

    def is_subword(w, big):
        for candidate in (big, word_inverse(big)):
            if len(w) <= len(candidate):
                for i in range(len(candidate) - len(w) + 1):
                    if candidate[i : i + len(w)] == w:
                        return True
        return False

    symbols, _, _ = _family_moves(fam, cap)

    def root_word(tree, u):
        return tuple(symbols[c] for c in _root_word(tree, u))

    first = [0]
    for g in fam.components:
        first.append(first[-1] + g.vertex_count)
    class_of = list(range(first[-1]))
    per_comp_max = [0] * len(fam.components)
    finite_words: set = set()
    infinite_words: set = set()
    for touched, tree, closing, equivalent in _pair_components(fam, cap):
        if equivalent:
            for u in tree:
                x, y = divmod(u, first[-1])
                class_of[x] = min(class_of[x], y)
                class_of[y] = min(class_of[y], x)
            continue
        if closing is not None:
            u, c, w = closing
            to_u, to_w = _legs(root_word(tree, u), root_word(tree, w))
            infinite_words.add(canonical_word(to_u + (symbols[c],) + word_inverse(to_w)))
            best = math.inf
        else:
            children = Counter(up for up, _ in tree.values())
            leaves = [
                root_word(tree, u) for u, (up, _) in tree.items() if children[u] + (up >= 0) == 1
            ]
            for i, x in enumerate(leaves):
                for y in leaves[i + 1 :]:
                    to_x, to_y = _legs(x, y)
                    finite_words.add(canonical_word(word_inverse(to_x) + to_y))
            best = _longest_path(tree)
        for ci in touched:
            per_comp_max[ci] = max(per_comp_max[ci], best)

    keep = [
        w
        for w in finite_words - infinite_words
        if not any(len(w) < len(other) and is_subword(w, other) for other in finite_words)
    ]
    pieces = []
    for w in sorted(keep) + sorted(infinite_words):
        infinite = w in infinite_words
        starts_by_class: dict = {}
        met = set()
        for ci, g in enumerate(fam.components):
            for v in range(g.vertex_count):
                darts = follow_word(g, v, w)
                if darts is None:
                    continue
                met.add(ci)
                cls = class_of[first[ci] + v]
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


def random_reduced_family(rng, max_components=2):
    """Random small connected graphs with a random reduced labeling over
    an alphabet of at most two symbols; used for oracle comparisons."""
    from coarselab.graph_core import GraphFamily
    from coarselab.labelings import check_reduced

    while True:
        k = rng.randrange(1, max_components + 1)
        comps = []
        total_edges = 0
        for _ in range(k):
            n = rng.randrange(3, 6)
            extra = rng.randrange(0, 3)
            base = random_connected_graph(rng, n, extra)
            total_edges += base.edge_count
            symbols = ["a", "b"][: rng.randrange(1, 3)]
            edges = []
            for u, v, _ in edge_list(base):
                lab = symbols[rng.randrange(len(symbols))]
                if rng.randrange(2):
                    u, v = v, u
                edges.append((u, v, lab))
            comps.append(build_graph(base.vertex_count, edges, alphabet=symbols))
        if total_edges > 10:
            continue
        fam = GraphFamily(tuple(comps))
        if all(check_reduced(g).ok for g in fam.components):
            return fam


# -- Poincare form oracle ----------------------------------------------------


def naive_form_matrices(mul, x_members, sigma_members):
    """Form matrices assembled pair by pair from outer products.

    Entry for the ordered pair (x, y): the squared difference
    (u[x] - u[x y])^2 contributes the rank-one matrix e e^T with
    e = unit(x) - unit(x y).  The lhs matrix is normalized by |X|.
    """
    import numpy as np

    n = len(mul)
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for members, M in ((x_members, A), (sigma_members, B)):
        for y in members:
            for x in range(n):
                e = np.zeros(n)
                e[x] += 1.0
                e[mul[x][y]] -= 1.0
                M += np.outer(e, e)
    return A / len(x_members), B


def helmert_complement(n):
    """Orthonormal basis of the mean-zero subspace, rows of the
    classical Helmert matrix; deterministic and scipy-free."""
    import numpy as np

    V = np.zeros((n, n - 1))
    for k in range(1, n):
        V[:k, k - 1] = 1.0
        V[k, k - 1] = -float(k)
        V[:, k - 1] /= math.sqrt(k * (k + 1))
    return V


def naive_poincare_constant(mul, x_members, sigma_members, samples=100000, seed=0, iters=300):
    """Best Rayleigh quotient found by random sampling refined with
    generalized power iteration; a lower bound converging to the max."""
    import numpy as np

    n = len(mul)
    A, B = naive_form_matrices(mul, x_members, sigma_members)
    V = helmert_complement(n)
    Ac = V.T @ A @ V
    Bc = V.T @ B @ V
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n - 1, samples))
    num = np.einsum("is,ij,js->s", U, Ac, U)
    den = np.einsum("is,ij,js->s", U, Bc, U)
    ratios = num / den
    best = int(np.argmax(ratios))
    u = U[:, best]
    for _ in range(iters):
        u = np.linalg.solve(Bc, Ac @ u)
        u /= np.linalg.norm(u)
    return float((u @ Ac @ u) / (u @ Bc @ u))


def _wreath_key(x):
    """Sorted support, then the B-index."""
    return (tuple(sorted(x.config)), x.b)


def naive_wreath_table(W):
    """Multiplication table over the sorted element list, by direct
    evaluation of the group law."""
    from coarselab.wreath import WreathElement
    from groups import wreath_mul

    elems = sorted(
        (
            WreathElement(frozenset(q for q in range(W.Q.order) if m >> q & 1), b)
            for m in range(1 << W.Q.order)
            for b in range(W.B.order)
        ),
        key=_wreath_key,
    )
    index = {x: i for i, x in enumerate(elems)}
    mul = [[index[wreath_mul(W, x, y)] for y in elems] for x in elems]
    return elems, index, mul



def naive_wreath_cayley(W, radius=None):
    """The wreath Cayley graph (or ball) by breadth-first search on
    frozenset elements, every product by the group law ``wreath_mul``;
    levels are sorted by (sorted support, B-index)."""
    from coarselab.wreath import DELTA_LABEL, WreathBall, WreathElement
    from groups import wreath_mul

    pairs = []
    for t in W.B.generators:
        canon = min(t, W.B.inverse(t))
        if all(canon != c for c, _ in pairs):
            pairs.append((canon, W.B.name(canon)))
    moves = [W.delta()] + [WreathElement(frozenset(), t) for t in W.B.generators]

    index = {W.identity(): 0}
    order = [W.identity()]
    frontier = [W.identity()]
    depth = 0
    while frontier and (radius is None or depth < radius):
        found = {wreath_mul(W, x, m) for x in frontier for m in moves} - index.keys()
        frontier = sorted(found, key=_wreath_key)
        for y in frontier:
            index[y] = len(order)
            order.append(y)
        depth += 1

    edges = []
    for i, x in enumerate(order):
        j = index.get(wreath_mul(W, x, W.delta()))
        if j is not None and i < j:
            edges.append((i, j, DELTA_LABEL))
        for t, base in pairs:
            j = index.get(wreath_mul(W, x, WreathElement(frozenset(), t)))
            if j is not None and (i < j or W.B.inverse(t) != t):
                edges.append((i, j, base))
    graph = build_graph(
        len(order),
        edges,
        alphabet=[DELTA_LABEL] + [base for _, base in pairs],
        annotations={
            "construction": f"wreath Z/2 over Q of order {W.Q.order}, base order {W.B.order}",
            "vertex_supports": tuple(tuple(sorted(x.config)) for x in order),
            "vertex_b_names": tuple(W.B.name(x.b) for x in order),
        },
    )
    return WreathBall(graph=graph, elements=tuple(order), radius=radius, complete=radius is None)

# -- metric diagnostics oracle -----------------------------------------------
#
# The per-pair loops the library's diagnostics replaced with one gather of
# the pair distances: distance tables built whole, then every pair x < y
# visited in order.


def _naive_distance_table(space, role):
    import numpy as np

    from coarselab.errors import DisconnectedGraphError, InvalidInputError
    from coarselab.graph_core import distance_matrix

    if isinstance(space, LabeledGraph):
        dist = distance_matrix(space)
        if not np.all(np.isfinite(dist)):
            raise DisconnectedGraphError(f"{role} graph metric needs a connected graph")
        return dist
    if role == "source":
        mat = np.asarray(space, dtype=np.float64)
        if not np.all(np.isfinite(mat)):
            raise InvalidInputError("distance matrix entries must be finite")
        if np.abs(mat - mat.T).max() > 1e-9 or np.abs(np.diag(mat)).max() > 1e-9:
            raise InvalidInputError("distance matrix must be symmetric with zero diagonal")
        if mat.min() < 0:
            raise InvalidInputError("distances must be nonnegative")
        return mat
    pts = np.asarray(space, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("target points must be finite")
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _naive_image_keys(entry) -> list:
    import numpy as np

    if isinstance(entry.target, LabeledGraph):
        return [("v", v) for v in entry.mapping]
    pts = np.asarray(entry.target, dtype=np.float64)
    return [("p", pts[v].tobytes()) for v in entry.mapping]


def naive_compression_moduli(mf):
    from coarselab.errors import InvalidInputError
    from coarselab.metric_diag import ModuliReport

    classes: dict[float, list[float]] = {}
    for entry in mf.entries:
        src = _naive_distance_table(entry.source, "source")
        tgt = _naive_distance_table(entry.target, "target")
        n = entry.size
        for x in range(n):
            for y in range(x + 1, n):
                t = float(src[x, y])
                dy = float(tgt[entry.mapping[x], entry.mapping[y]])
                classes.setdefault(t, []).append(dy)
    if not classes:
        raise InvalidInputError("the family contains no vertex pairs")
    ts = sorted(classes)
    rho = [min(classes[t]) for t in ts]
    gamma = [max(classes[t]) for t in ts]
    counts = [len(classes[t]) for t in ts]
    rho_env = rho.copy()
    for i in range(len(ts) - 2, -1, -1):
        rho_env[i] = min(rho_env[i], rho_env[i + 1])
    gamma_env = gamma.copy()
    for i in range(1, len(ts)):
        gamma_env[i] = max(gamma_env[i], gamma_env[i - 1])
    return ModuliReport(
        distances=tuple(ts),
        rho=tuple(rho),
        gamma=tuple(gamma),
        rho_envelope=tuple(rho_env),
        gamma_envelope=tuple(gamma_env),
        counts=tuple(counts),
    )


def naive_is_weak_embedding(mf, lipschitz_bound):
    from coarselab.errors import InvalidInputError
    from coarselab.metric_diag import WeakEmbeddingReport

    if len(mf) < 2:
        raise InvalidInputError("a weak-embedding trend needs at least two indices")
    lips = []
    fracs = []
    for entry in mf.entries:
        src = _naive_distance_table(entry.source, "source")
        tgt = _naive_distance_table(entry.target, "target")
        n = entry.size
        worst = 0.0
        for x in range(n):
            for y in range(x + 1, n):
                t = float(src[x, y])
                if t <= 0:
                    continue
                worst = max(worst, float(tgt[entry.mapping[x], entry.mapping[y]]) / t)
        lips.append(worst)
        sizes: dict = {}
        for k in _naive_image_keys(entry):
            sizes[k] = sizes.get(k, 0) + 1
        fracs.append(max(sizes.values()) / n)
    lipschitz_ok = all(c <= lipschitz_bound + 1e-12 for c in lips)
    decreasing = all(fracs[i + 1] < fracs[i] for i in range(len(fracs) - 1))
    return WeakEmbeddingReport(
        lipschitz_constants=tuple(lips),
        fiber_fractions=tuple(fracs),
        lipschitz_ok=lipschitz_ok,
        fractions_decreasing=decreasing,
        passed=lipschitz_ok and decreasing,
    )


def naive_distortion(entry):
    from coarselab.errors import InvalidInputError

    if len(set(_naive_image_keys(entry))) != entry.size:
        raise InvalidInputError("distortion needs an injective map")
    src = _naive_distance_table(entry.source, "source")
    tgt = _naive_distance_table(entry.target, "target")
    n = entry.size
    expansion = 0.0
    contraction = 0.0
    for x in range(n):
        for y in range(x + 1, n):
            t = float(src[x, y])
            if t <= 0:
                raise InvalidInputError(
                    "source has distinct points at zero distance; not a metric"
                )
            dy = float(tgt[entry.mapping[x], entry.mapping[y]])
            if dy <= 0:
                raise InvalidInputError("distinct source points at zero target distance")
            expansion = max(expansion, dy / t)
            contraction = max(contraction, t / dy)
    if expansion == 0.0:
        raise InvalidInputError("no separated pairs to measure")
    return expansion * contraction


def naive_ball_concentration(points, radius) -> int:
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    within = dist <= radius + 1e-12
    return int(within.sum(axis=1).max())


def naive_coset_ball_replay(table, members, values, radius) -> tuple[int, int]:
    """(base_index, captured): the first x whose coset points x y (y in
    X) land most often within ``radius`` of the image of x."""
    import numpy as np

    best_x = 0
    best = -1
    for x in range(table.order):
        center = values[x]
        hits = 0
        for y in members:
            img = values[table.mul_table[x, y]]
            if float(np.linalg.norm(img - center)) <= radius + 1e-12:
                hits += 1
        if hits > best:
            best = hits
            best_x = x
    return best_x, best


def naive_pgl2_mul_table(pgl):
    """The PGL2(q) table of a ``_Pgl2``, row by row from the matrix
    product formulas: about 20 modular operations per entry, each
    canonical product found in a dense q^4 table of the element list."""
    q = pgl.q
    n = len(pgl.elements)
    arr = np.array(pgl.elements, dtype=np.int64)
    lookup = np.full(q**4, -1, dtype=np.int64)
    lookup[((arr[:, 0] * q + arr[:, 1]) * q + arr[:, 2]) * q + arr[:, 3]] = np.arange(n)
    a2, b2, c2, d2 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    table = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        a1, b1, c1, d1 = pgl.elements[x]
        pa = (a1 * a2 + b1 * c2) % q
        pb = (a1 * b2 + b1 * d2) % q
        pc = (c1 * a2 + d1 * c2) % q
        pd = (c1 * b2 + d1 * d2) % q
        e = np.where(pa != 0, pa, np.where(pb != 0, pb, np.where(pc != 0, pc, pd)))
        s = pgl.modinv[e]
        pa, pb, pc, pd = (pa * s) % q, (pb * s) % q, (pc * s) % q, (pd * s) % q
        table[x] = lookup[((pa * q + pb) * q + pc) * q + pd]
    return table


# -- dense relative Poincare reference ---------------------------------------


def dense_form_matrix(table, members):
    """Matrix of u -> sum over members y of ||u - u(.y)||^2 (PSD), one
    row per element of the group table."""
    import numpy as np

    n = table.order
    M = np.zeros((n, n))
    rows = np.arange(n)
    for y in members:
        perm = table.mul_table[:, y]
        M[rows, rows] += 2.0
        np.add.at(M, (rows, perm), -1.0)
        np.add.at(M, (perm, rows), -1.0)
    return M


def dense_poincare_constant(table, sigma_members, x_members):
    """The optimal relative constant and a unit witness, from one dense
    generalized eigensolve of the two form matrices on the orthogonal
    complement of the constants (scipy's null space)."""
    import numpy as np
    import scipy.linalg

    n = table.order
    A = dense_form_matrix(table, x_members) / len(x_members)
    B = dense_form_matrix(table, sigma_members)
    V = scipy.linalg.null_space(np.ones((1, n)))
    eigvals, eigvecs = scipy.linalg.eigh(V.T @ A @ V, V.T @ B @ V)
    u = V @ eigvecs[:, -1]
    return float(eigvals[-1]), u / np.linalg.norm(u)


# -- brute-force covering verification ---------------------------------------
#
# The reference that homology_cover, iterate_homology_cover and the O(E)
# XOR deck check (covers_walls.xor_fiber_heads) are held against: every
# covering axiom checked dart by dart, and the whole deck group rebuilt by
# path lifting from one fiber.

#: verify_covering enumerates the whole fiber; cap its size.
DECK_ENUM_CAP = 4096


def propagate(g: LabeledGraph, root: int, image: int, step):
    """Grow the vertex map ``root -> image`` breadth-first along darts.

    ``step(d, x)`` names the image of the target of dart ``d`` when its
    source maps to ``x``, or None when there is none.  Returns the map
    on the component of ``root``, in visiting order, or None when some
    step has no image or two darts disagree on a vertex's image.
    """
    img = {root: image}
    order = [root]
    for u in order:
        x = img[u]
        for d in out_darts(g, u):
            y = step(d, x)
            if y is None:
                return None
            w = g.dst[d]
            if w not in img:
                img[w] = y
                order.append(w)
            elif img[w] != y:
                return None
    return img


@dataclass(frozen=True)
class CoverVerification:
    deck_order: int
    elementary_abelian: bool
    deck_maps: tuple[tuple[int, ...], ...]


def verify_covering(cm, deck_cap: int = DECK_ENUM_CAP) -> CoverVerification:
    """Check the covering axioms of a ``CoveringMap`` and reconstruct the
    full deck group.

    Verifies: dart/vertex maps commute with incidence and reversal,
    labels are preserved, the map is a local isomorphism on every
    vertex star, all fibers have size 2^deck_rank, and path lifting
    from every point of one fiber yields a well-defined label-preserving
    automorphism; the resulting maps must form a group acting freely
    and transitively on every fiber.  For a single homology step the
    group must in addition be elementary abelian (every deck map an
    involution) and consist of coordinate translations.

    Raises
    ------
    VerificationError
        Any failed axiom.
    CapExceededError
        Fiber larger than ``deck_cap``.
    """
    from coarselab.errors import CapExceededError, VerificationError

    base, cover = cm.base, cm.cover
    if len(cm.vertex_map) != cover.vertex_count or len(cm.dart_map) != cover.dart_count:
        raise VerificationError("map arrays have wrong length")
    cover_labels, base_labels = cover.labels(), base.labels()
    for d in range(cover.dart_count):
        bd = cm.dart_map[d]
        if cm.dart_map[d ^ 1] != bd ^ 1:
            raise VerificationError(f"dart_map breaks the reversal involution at dart {d}")
        if cm.vertex_map[cover.src[d]] != base.src[bd]:
            raise VerificationError(f"dart_map and vertex_map disagree at dart {d}")
        if cover_labels[d] != base_labels[bd]:
            raise VerificationError(f"label not preserved at dart {d}")
    for u in range(cover.vertex_count):
        image_star = sorted(cm.dart_map[d] for d in out_darts(cover, u))
        if image_star != sorted(out_darts(base, cm.vertex_map[u])):
            raise VerificationError(f"not a local isomorphism at cover vertex {u}")

    expected_fiber = 1 << cm.deck_rank
    if expected_fiber > deck_cap:
        raise CapExceededError(f"deck group of size {expected_fiber} exceeds cap {deck_cap}")
    fibers: dict[int, list[int]] = {v: [] for v in range(base.vertex_count)}
    for v in range(cover.vertex_count):
        fibers[cm.vertex_map[v]].append(v)
    for v, fib in fibers.items():
        if len(fib) != expected_fiber:
            raise VerificationError(f"fiber over {v} has size {len(fib)}, expected {expected_fiber}")

    # the end of the unique dart over a given base dart at a given cover vertex
    star_index: list[dict[int, int]] = []
    for u in range(cover.vertex_count):
        star_index.append({cm.dart_map[d]: cover.dst[d] for d in out_darts(cover, u)})

    def lift_map(b0: int, t: int) -> tuple[int, ...]:
        img = propagate(cover, b0, t, lambda d, x: star_index[x].get(cm.dart_map[d]))
        if img is None:
            raise VerificationError("path lifting failed; covering not regular")
        if len(img) != cover.vertex_count:
            raise VerificationError("deck lift did not reach the whole cover")
        return tuple(img[v] for v in range(cover.vertex_count))

    base_fiber = fibers[0]
    b0 = min(base_fiber)
    maps = [lift_map(b0, t) for t in sorted(base_fiber)]
    seen = set(maps)
    if len(seen) != len(maps):
        raise VerificationError("two deck maps coincide; action not free on the fiber")
    identity = tuple(range(cover.vertex_count))
    for m in maps:
        if m != identity and any(m[v] == v for v in range(cover.vertex_count)):
            raise VerificationError("a nontrivial deck map has a fixed point")
        if tuple(sorted(m)) != identity:
            raise VerificationError("a deck map is not a bijection")
    for m1 in maps:
        for m2 in maps:
            if tuple(m1[x] for x in m2) not in seen:
                raise VerificationError("deck maps are not closed under composition")
    for fib in fibers.values():
        anchor = fib[0]
        if sorted(m[anchor] for m in maps) != sorted(fib):
            raise VerificationError("deck action is not transitive on some fiber")

    elementary = all(tuple(m[x] for x in m) == identity for m in maps)
    if cm.single_step:
        if not elementary:
            raise VerificationError("single-step deck group must have exponent 2")
        for m in maps:
            t = m[b0] ^ b0
            if t >= expected_fiber or any(m[v] != v ^ t for v in range(cover.vertex_count)):
                raise VerificationError("single-step deck map is not a coordinate translation")
    return CoverVerification(
        deck_order=len(maps),
        elementary_abelian=elementary,
        deck_maps=tuple(maps),
    )


def naive_xor_rank(g: LabeledGraph) -> Optional[int]:
    """The largest r >= 1 at which ``g`` reads as an XOR lift
    (``graph_core.xor_deck``), or None; straight from the definition.

    With the vertices numbered v * 2^r + x and the edges k * 2^r + x, each
    basis bit t of the fiber must give an automorphism: the map x -> x XOR t
    on vertex and on edge numbers carries every edge (a, b) onto the edge
    (a XOR t, b XOR t), so it permutes the darts and fixes every edge fiber
    k.  The edge k * 2^r + x must also start at a vertex (u, x) of its own
    slot x, as an XOR lift numbers its edges."""
    n, edges = g.vertex_count, list(edge_list(g))
    for r in range(n.bit_length() - 1, 0, -1):
        fiber = 1 << r
        if n % fiber or len(edges) % fiber:
            continue
        if all(a % fiber == e % fiber for e, (a, _, _) in enumerate(edges)) and all(
            edges[e ^ t][:2] == (a ^ t, b ^ t)
            for t in (1 << i for i in range(r))
            for e, (a, b, _) in enumerate(edges)
        ):
            return r
    return None


# -- names the library no longer needs ---------------------------------------


def searched_wall_sides(cm):
    """The side matrix of the walls of a homology cover found by search,
    as ``covers_walls.walls_from_cover`` found it before it read the sides
    off the cut masks: wall k is the edge fiber of base edge k, and its
    sides are the components of the cover without it, side 0 that of
    vertex 0.  Kept as the reference the computed sides are held against."""
    import numpy as np

    from coarselab.graph_core import components

    rows = []
    for k in range(cm.base.edge_count):
        wall = frozenset(e for e in range(cm.cover.edge_count) if cm.dart_map[2 * e] // 2 == k)
        comp = components(cm.cover, wall)
        assert max(comp) == 1, f"removing wall {k} leaves {max(comp) + 1} components"
        rows.append(comp)
    return np.array(rows, dtype=np.uint8).reshape(cm.base.edge_count, cm.cover.vertex_count)


def truncated_girth(g: LabeledGraph, sources: Optional[Sequence[int]] = None):
    """Length of a shortest cycle; ``math.inf`` for forests.  The
    per-source Python search that ``graph_core.girth`` replaced with its
    level walk, kept as the reference that walk is held against.

    Loops count as 1-cycles and a parallel pair as a 2-cycle.  Uses a
    truncated breadth-first search from every vertex of ``sources``
    (default: every vertex); a search stops expanding once it can no
    longer beat the best cycle found so far.  A search from a vertex of
    a shortest cycle finds that cycle, so on a vertex-transitive graph
    one source is exact; in general a subset of sources gives an upper
    bound.  A source that is not a vertex raises
    :class:`InvalidInputError`, as in :func:`distance_matrix`.
    """
    rows = source_rows(g, sources).tolist()
    src, dst = g.src.tolist(), g.dst.tolist()
    for d in range(0, g.dart_count, 2):
        if src[d] == dst[d]:
            return 1
    seen_pairs = set()
    for d in range(0, g.dart_count, 2):
        key = (min(src[d], dst[d]), max(src[d], dst[d]))
        if key in seen_pairs:
            return 2
        seen_pairs.add(key)

    best = math.inf
    n = g.vertex_count
    dist = [-1] * n
    entry = [-1] * n
    for s in rows:
        if best == 3:
            break
        touched = [s]
        dist[s] = 0
        entry[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if 2 * dist[u] + 1 >= best:
                break
            for d in out_darts(g, u):
                if d == entry[u] ^ 1:
                    continue
                w = g.dst[d]
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    entry[w] = d
                    queue.append(w)
                    touched.append(w)
                else:
                    # closing a non-tree dart yields a closed walk, hence
                    # an upper bound; minimizing over all sources is exact
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        for v in touched:
            dist[v] = -1
            entry[v] = -1
    return best


def simple_cycle_words(g: LabeledGraph) -> list[tuple[str, ...]]:
    """Words of all simple closed paths, one direction and basepoint each."""
    cycles = []
    n = g.vertex_count
    labels, dst = g.labels(), g.dst.tolist()
    for root in range(n):
        stack = [(root, [], {root})]
        while stack:
            u, darts, visited = stack.pop()
            for d in out_darts(g, u):
                if darts and d == darts[-1] ^ 1:
                    continue
                w = dst[d]
                if w == root and darts:
                    seq = darts + [d]
                    # dedupe direction: keep the orientation whose first
                    # dart id is smaller than the reverse reading's first
                    rev_first = seq[-1] ^ 1
                    if seq[0] <= rev_first:
                        cycles.append(tuple(labels[x] for x in seq))
                elif w == root and not darts:
                    # length-1 loop
                    if d % 2 == 0:
                        cycles.append((labels[d],))
                elif w not in visited and w > root:
                    stack.append((w, darts + [d], visited | {w}))
    return cycles


def bfs_distances(g: LabeledGraph, source: int) -> list[int]:
    """Unweighted distances from ``source``; -1 marks unreachable vertices."""
    from coarselab.graph_core import bfs_tree

    dist = [-1] * g.vertex_count
    for v, d in bfs_tree(g, source).items():
        dist[v] = 0 if d < 0 else dist[g.src[d]] + 1
    return dist


@dataclass(frozen=True)
class DgReport:
    """Per-component diameter/girth ratios and their maximum."""

    ratios: tuple[float, ...]
    maximum: float


def dg_ratio(family) -> DgReport:
    """Diameter/girth ratio of each component of a GraphFamily plus the
    maximum; an acyclic component has no finite ratio and is rejected."""
    from coarselab.errors import InvalidInputError
    from coarselab.graph_core import diameter, girth

    ratios = []
    for i, g in enumerate(family.components):
        gr = girth(g)
        if gr is math.inf:
            raise InvalidInputError(f"family component {i} is acyclic; ratio undefined")
        ratios.append(diameter(g) / gr)
    return DgReport(ratios=tuple(ratios), maximum=max(ratios))


def graphs_equal(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Structural identity: vertex count, dart triples, alphabet.
    Annotations are metadata and deliberately ignored."""
    if a.vertex_count != b.vertex_count or a.dart_count != b.dart_count:
        return False
    if a.alphabet != b.alphabet:
        return False
    return (
        np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst) and a.labels() == b.labels()
    )


def wreath_inv(W, x):
    """The inverse of a wreath element by the law: (m, b)^-1 is
    (proj(b^-1) . m, b^-1), checked against ``wreath_mul``."""
    from coarselab.wreath import WreathElement
    from groups import wreath_mul

    W.validate(x)
    binv = W.B.inverse(x.b)
    shift = W.proj[binv]
    inv = WreathElement(frozenset(int(W.Q.mul_table[shift, q]) for q in x.config), binv)
    assert wreath_mul(W, x, inv) == W.identity()
    return inv


def graph_dict(g: LabeledGraph) -> dict:
    """The graph document of ``g`` built as plain dicts, one per edge."""
    doc = {
        "format_version": "1",
        "alphabet": sorted(g.alphabet),
        "vertices": g.vertex_count,
        "edges": [{"u": u, "v": v, "label": lab, "orientation": "forward"} for u, v, lab in edge_list(g)],
    }
    if g.annotations:
        doc["annotations"] = g.annotations
    return doc


def reference_json(doc) -> str:
    """The canonical bytes by definition: ``json.dumps`` with sorted keys,
    two-space indent and ASCII escapes, and one trailing newline.  Graphs
    anywhere in ``doc`` are written as their per-edge dict documents."""

    def plain(x):
        if isinstance(x, LabeledGraph):
            return plain(graph_dict(x))
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x

    return json.dumps(plain(doc), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def per_edge_graph_from_document(doc, strict: bool = True, where: str = "") -> LabeledGraph:
    """A graph document parsed one edge record at a time, each checked in
    turn; the bulk parse must build the same graph and raise the same
    first error."""
    from coarselab.errors import InvalidInputError
    from coarselab.graph_core import base_symbol
    from coarselab.jsonio import _check_version, _fields, _object

    def integer(value, ew, field):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidInputError(f"{ew}field {field!r} must be an integer")
        return value

    obj = _object(doc, where or "graph document ")
    _fields(obj, where, ("format_version", "alphabet", "vertices", "edges"), ("annotations",), strict)
    _check_version(obj, where)
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise InvalidInputError(f"{where}field 'alphabet' must be a list of strings")
    n = integer(obj["vertices"], where, "vertices")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise InvalidInputError(f"{where}field 'edges' must be a list")
    declared = set(alphabet)
    triples = []
    for i, e in enumerate(raw_edges):
        ew = f"{where}edge {i}: "
        _object(e, ew)
        _fields(e, ew, required=("u", "v"), optional=("label", "orientation"), strict=strict)
        u = integer(e["u"], ew, "u")
        v = integer(e["v"], ew, "v")
        for name, end in (("u", u), ("v", v)):
            if not (0 <= end < n):
                raise InvalidInputError(f"{ew}endpoint {name} = {end} out of range [0, {n})")
        lab = e.get("label")
        if lab is not None:
            if not isinstance(lab, str):
                raise InvalidInputError(f"{ew}field 'label' must be a string or null")
            if base_symbol(lab) not in declared:
                raise InvalidInputError(f"{ew}label {lab!r} outside the declared alphabet")
        orient = e.get("orientation", "forward")
        if orient not in ("forward", "reverse"):
            raise InvalidInputError(f"{ew}field 'orientation' must be 'forward' or 'reverse'")
        triples.append((v, u, lab) if orient == "reverse" else (u, v, lab))
    annotations = obj.get("annotations")
    if annotations is not None:
        _object(annotations, f"{where}annotations: ")
    try:
        return build_graph(n, triples, alphabet=alphabet, annotations=annotations)
    except InvalidInputError as err:
        if where:
            raise InvalidInputError(f"{where}{err}") from err
        raise
