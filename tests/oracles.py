"""Naive reference implementations used only by the test suite.

Everything in here is written straight from the defining formulas with
no attention to speed, so the fast library code has something honest to
disagree with.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from coarselab.graph_core import LabeledGraph, build_graph


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
    edges = list(g.edges())
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
    edges = list(g.edges())
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

    kept = [(u, v) for k, (u, v, _) in enumerate(g.edges()) if k not in removed]
    rows = np.array([u for u, _ in kept], dtype=np.int64)
    cols = np.array([v for _, v in kept], dtype=np.int64)
    n = g.vertex_count
    adj = scipy.sparse.coo_matrix((np.ones(len(kept)), (rows, cols)), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(adj, directed=False)
    return [int(x) for x in labels]


def naive_is_bipartite(g: LabeledGraph) -> bool:
    """Try every 2-coloring; a loop makes every coloring fail."""
    edges = [(u, v) for u, v, _ in g.edges()]
    return any(
        all((mask >> u & 1) != (mask >> v & 1) for u, v in edges)
        for mask in range(1 << g.vertex_count)
    )


def is_simple_cycle(g: LabeledGraph, darts: list[int]) -> bool:
    """True iff ``darts`` is a nonempty closed walk visiting no vertex twice."""
    if not darts:
        return False
    for d, nxt in zip(darts, darts[1:] + darts[:1]):
        if g.dart_target(d) != g.dart_source(nxt):
            return False
    starts = [g.dart_source(d) for d in darts]
    return len(set(starts)) == len(starts)

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
    for d in range(g.dart_count):
        dg.add_edge(g.dart_source(d), g.dart_target(d), label=g.dart_label(d))
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
        for v in range(g.vertex_count):
            labs = {}
            for d in g.out_darts(v):
                lab = g.dart_label(d)
                assert lab not in labs, "oracle requires a reduced labeling"
                labs[lab] = g.dart_target(d)
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
            for u, v, _ in base.edges():
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


def naive_wreath_table(W):
    """Multiplication table over the sorted element list, by direct
    evaluation of the group law."""
    from coarselab.wreath import WreathElement, wreath_mul

    elems = sorted(
        (
            WreathElement(frozenset(q for q in range(W.Q.order) if m >> q & 1), b)
            for m in range(1 << W.Q.order)
            for b in range(W.B.order)
        ),
        key=WreathElement.key,
    )
    index = {x: i for i, x in enumerate(elems)}
    mul = [[index[wreath_mul(W, x, y)] for y in elems] for x in elems]
    return elems, index, mul
