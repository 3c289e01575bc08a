"""The benchmark's workloads: inputs made from a seed, the `coarselab`
steps each workload runs, and the checks that read every artifact.

A workload is a list of steps, each one `coarselab` invocation; each of
the two workloads runs two parts (`expander` and `lamplighter`,
`cancellation` and `walls`), which write files of different names.  Checks
read artifacts for their mathematical content and never compare bytes:
later changes may change output bytes on purpose (the spectrum artifact
already differs between thread counts).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from coarselab import jsonio
from coarselab.covers_walls import homology_cover, wall_hilbert_embedding, walls_from_cover
from coarselab.graph_core import build_graph
from coarselab.labelings import check_small_cancellation
from coarselab.metric_diag import MapEntry, MapFamily


class CheckFailed(Exception):
    """An artifact does not mean what its step promises."""


@dataclass(frozen=True)
class Step:
    """One `coarselab` invocation, run with the workload directory as cwd.

    ``check(out)`` receives the step's standard output (for a piped step,
    the artifact it fed to the next step) and raises CheckFailed when an
    artifact is wrong.  With ``pipe`` set, standard output feeds the next
    step's standard input and is also kept in that file, as ``tee`` would.
    """

    args: tuple[str, ...]
    check: Callable[[str], None]
    pipe: Optional[str] = None

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Scale:
    """Input sizes and the facts the checks expect at those sizes."""

    lps: tuple[int, int]  # (p, q)
    lps_girth: int
    lps_diameter: int
    label_cycles: tuple[int, int]  # (count, length) of the unlabeled cycles
    label_lambda: str
    label_attempts: int
    piece_cycles: tuple[int, int]  # (count, length) of the seeded labeling
    poincare: tuple[tuple[int, float, int], ...]  # Z/k wr Z/k, its constant, trials to replay
    wreath_k: int
    cover_base: str  # cover, walls and spectrum
    metric_base: str  # wallmetric, girth and concentrate
    metric_cover_girth: int
    metric_cover_diameter: int
    family_bases: tuple[str, ...]  # map family for moduli and weakembed


FULL = Scale(
    lps=(5, 13),
    lps_girth=8,
    lps_diameter=7,
    label_cycles=(3, 8),
    label_lambda="1/7",
    label_attempts=60000,
    piece_cycles=(8, 60),
    poincare=((5, 2.0944271910, 0), (6, 2.4880338717, 6), (7, 3.0020281863, 0)),
    wreath_k=10,
    cover_base="k6",
    metric_base="prism6",
    metric_cover_girth=8,
    metric_cover_diameter=16,
    family_bases=("prism4", "k5", "petersen"),
)

SMALL = Scale(
    lps=(13, 5),
    lps_girth=4,
    lps_diameter=3,
    label_cycles=(3, 8),
    label_lambda="1/7",
    label_attempts=200,
    piece_cycles=(2, 30),
    poincare=((3, 1.5205176042696106, 4), (4, 1.7198404615, 0)),
    wreath_k=4,
    cover_base="k4",
    metric_base="k4",
    metric_cover_girth=6,
    metric_cover_diameter=5,
    family_bases=("k4", "prism3"),
)

CONSTANT_TOL = 1e-9
EIGEN_TOL = 1e-8
LETTERS = ("a", "b", "c")


def derive_seed(seed: int, purpose: str) -> int:
    """A seed for one random input, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- input graphs ---------------------------------------------------------------


def base_edges(name: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of k<n>, prism<n> or petersen."""
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return 10, outer + spokes + inner
    if name.startswith("prism"):
        n = int(name[5:])
        rims = [(i, (i + 1) % n) for i in range(n)] + [(n + i, n + (i + 1) % n) for i in range(n)]
        return 2 * n, rims + [(i, n + i) for i in range(n)]
    n = int(name[1:])
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_json(n: int, edges, alphabet=()) -> str:
    doc = {
        "format_version": "1",
        "alphabet": list(alphabet),
        "vertices": n,
        "edges": [
            {"u": e[0], "v": e[1], "label": e[2] if len(e) > 2 else None, "orientation": "forward"}
            for e in edges
        ],
    }
    return json.dumps(doc) + "\n"


def inverse(symbol: str) -> str:
    return symbol[:-3] if symbol.endswith("^-1") else symbol + "^-1"


def cyclic_word(rng: random.Random, length: int) -> list[str]:
    """A uniformly drawn cyclically reduced word over a, b, c and inverses."""
    symbols = [s for x in LETTERS for s in (x, inverse(x))]
    while True:
        word = [rng.choice(symbols)]
        while len(word) < length:
            s = rng.choice(symbols)
            if s != inverse(word[-1]):
                word.append(s)
        if word[0] != inverse(word[-1]):
            return word


def cycles_json(words_or_lengths) -> str:
    """Disjoint cycles in one graph document; a word labels its cycle."""
    edges = []
    offset = 0
    for item in words_or_lengths:
        length = item if isinstance(item, int) else len(item)
        for j in range(length):
            label = None if isinstance(item, int) else item[j]
            edges.append((offset + j, offset + (j + 1) % length, label))
        offset += length
    alphabet = () if all(isinstance(i, int) for i in words_or_lengths) else LETTERS
    return graph_json(offset, edges, alphabet)


def group_json(k: int) -> str:
    doc = {
        "format_version": "1",
        "mul": [[(a + b) % k for b in range(k)] for a in range(k)],
        "generators": [1, k - 1],
        "names": [str(i) for i in range(k)],
    }
    return json.dumps(doc) + "\n"


# -- independent facts for the checks ---------------------------------------------


def adjacency(doc: dict) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(doc["vertices"])]
    for e in doc["edges"]:
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    return adj


def girth_and_eccentricity(adj: list[list[int]], root: int = 0) -> tuple[float, int]:
    """Shortest cycle through ``root`` and the eccentricity of ``root``:
    the girth and diameter of a vertex-transitive graph."""
    dist = {root: 0}
    branch = {root: -1}
    parent = {root: -1}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                branch[w] = w if u == root else branch[u]
                parent[w] = u
                order.append(w)
    best = math.inf
    for u in order:
        tree_used = False
        for w in adj[u]:
            if w == parent[u] and not tree_used:
                tree_used = True  # the tree edge itself; a parallel copy still counts
                continue
            if parent[w] == u:
                continue
            if branch[u] != branch[w]:
                best = min(best, dist[u] + dist[w] + 1)
    return best, max(dist.values())


def longest_repeated_word(words: list[list[str]]) -> int:
    """Longest word read along two different directed walks of the
    labeled cycles: the longest piece when no cycle has a label symmetry."""
    walks = []
    for w in words:
        back = [inverse(s) for s in reversed(w)]
        walks += [w, back]
    longest = 0
    for length in range(1, max(len(w) for w in words)):
        seen = set()
        repeated = False
        for w in walks:
            ring = w + w[: length - 1]
            for i in range(len(w)):
                key = tuple(ring[i : i + length])
                if key in seen:
                    repeated = True
                    break
                seen.add(key)
            if repeated:
                break
        if not repeated:
            return longest
        longest = length
    return longest


def rotations(word: list[str]) -> set[tuple[str, ...]]:
    back = [inverse(s) for s in reversed(word)]
    return {tuple(w[i:] + w[:i]) for w in (word, back) for i in range(len(w))}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_json(workdir: Path, name: str) -> dict:
    try:
        return json.loads((workdir / name).read_text())
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{name}: {e}") from e


def close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


# -- workloads ------------------------------------------------------------------


def expander(workdir: Path, seed: int, scale: Scale) -> list[Step]:
    """``lps | spectrum``; the graph has no seeded input."""
    p, q = scale.lps
    n = q * (q * q - 1)

    def check_lps(out):
        # exit code 0 already says "verification: passed"; the summary is
        # suppressed by --out -, so girth and diameter are re-derived here
        doc = json.loads(out)
        expect(doc["vertices"] == n, f"lps: {doc['vertices']} vertices, expected {n}")
        adj = adjacency(doc)
        expect(all(len(a) == p + 1 for a in adj), f"lps: not {p + 1}-regular")
        found = girth_and_eccentricity(adj)
        wanted = (scale.lps_girth, scale.lps_diameter)
        expect(found == wanted, f"lps: girth, diameter {found}, expected {wanted}")

    def check_spectrum(out):
        doc = json.loads(out)
        vals = doc["eigenvalues"]
        expect(len(vals) == n and doc["complete"], "spectrum: not the full spectrum")
        expect(close(vals[0], p + 1, CONSTANT_TOL), f"spectrum: top {vals[0]}")
        expect(close(vals[-1], -(p + 1), CONSTANT_TOL), f"spectrum: bottom {vals[-1]}")
        bound = 2 * math.sqrt(p) + CONSTANT_TOL
        expect(doc["max_interior_abs"] <= bound, f"spectrum: interior {doc['max_interior_abs']}")

    return [
        Step(("lps", "--p", str(p), "--q", str(q), "--out", "-"), check_lps, pipe="lps.json"),
        Step(("spectrum", "--out", "-"), check_spectrum),
    ]


def cancellation(workdir: Path, seed: int, scale: Scale) -> list[Step]:
    """A search that spends its attempt budget, then pieces and
    presentation of a seeded reduced labeling.

    lambda * girth = 8/7 forbids pieces of length 2.  Three 8-cycles have
    48 length-2 walks for 30 reduced words, so a labeling passes only when
    label symmetries of at least two cycles identify enough walks, which
    is rare enough that the search spends its whole budget on practically
    every seed.  On two cycles one symmetric cycle suffices: one of twenty
    seeds tried found a labeling after 5,781 attempts."""
    count, length = scale.label_cycles
    (workdir / "cycles.json").write_text(cycles_json([length] * count))
    rng = random.Random(derive_seed(seed, "labeling"))
    words = [cyclic_word(rng, scale.piece_cycles[1]) for _ in range(scale.piece_cycles[0])]
    (workdir / "labeling.json").write_text(cycles_json(words))
    longest = longest_repeated_word(words)
    relator_forms = [rotations(w) for w in words]

    def check_label(out):
        match = re.search(r"^attempts: (\d+)$", out, re.M)
        expect(match is not None, "label: no attempt count")
        attempts = int(match.group(1))
        if "success:" not in out:
            expect(attempts == scale.label_attempts, f"label: {attempts} attempts")
            return
        expect(attempts <= scale.label_attempts, f"label: {attempts} attempts")
        recheck_labeling(workdir / "labeled.json", scale.label_lambda)

    def check_pieces(_):
        doc = load_json(workdir, "pieces.json")
        expect(doc["count"] == len(doc["pieces"]) > 0, "pieces: count mismatch")
        finite = [pc for pc in doc["pieces"] if not pc["infinite"]]
        expect(all(len(pc["word"]) == pc["length"] for pc in finite), "pieces: word lengths")
        top = max((pc["length"] for pc in finite), default=0)
        expect(top == longest, f"pieces: longest {top}, expected {longest}")

    def check_present(_):
        doc = load_json(workdir, "present.json")
        expect(doc["alphabet"] == list(LETTERS), f"present: alphabet {doc['alphabet']}")
        rels = [tuple(r) for r in doc["relators"]]
        expect(len(rels) == len(words), f"present: {len(rels)} relators")
        unmatched = list(relator_forms)
        for r in rels:
            hit = next((f for f in unmatched if r in f), None)
            expect(hit is not None, "present: a relator is no cycle word")
            unmatched.remove(hit)

    label_seed = derive_seed(seed, "label")
    return [
        Step(
            ("label", "cycles.json", "--random", "--alphabet", "3", "--lambda", scale.label_lambda,
             "--seed", str(label_seed), "--max-attempts", str(scale.label_attempts),
             "--out", "labeled.json"),
            check_label,
        ),
        Step(("pieces", "labeling.json", "--out", "pieces.json"), check_pieces),
        Step(("present", "labeling.json", "--out", "present.json"), check_present),
    ]


def recheck_labeling(path: Path, lam: str) -> None:
    """Reducedness by hand, the piece bound by the library's reference check."""
    doc = json.loads(path.read_text())
    for g in doc["graphs"]:
        out = [set() for _ in range(g["vertices"])]
        for e in g["edges"]:
            u, v, lab = e["u"], e["v"], e["label"]
            if e["orientation"] == "reverse":
                u, v = v, u
            expect(lab not in out[u] and inverse(lab) not in out[v], "label: not reduced")
            out[u].add(lab)
            out[v].add(inverse(lab))
    fam = jsonio.parse_graph(path.read_bytes())
    expect(check_small_cancellation(fam, Fraction(lam)).passed, "label: pieces too long")


def lamplighter(workdir: Path, seed: int, scale: Scale) -> list[Step]:
    """Relative Poincare constants of Z/k wr Z/k, then a full wreath Cayley graph."""
    steps = []
    for k in {scale.wreath_k, *(k for k, _, _ in scale.poincare)}:
        (workdir / f"z{k}.json").write_text(group_json(k))

    def group_args(k):
        proj = ",".join(str(i) for i in range(k))
        return ("--q-table", f"z{k}.json", "--b-table", f"z{k}.json", "--proj", proj)

    for k, constant, trials in scale.poincare:
        out = f"poincare{k}.json"

        def check_poincare(_, k=k, constant=constant, out=out, trials=trials):
            doc = load_json(workdir, out)
            expect(doc["group_order"] == k << k, f"poincare: order {doc['group_order']}")
            expect(close(doc["constant"], constant, CONSTANT_TOL), f"poincare: {doc['constant']}")
            if trials:
                ver = doc["verification"]
                expect(ver["ok"] and ver["trials"] == trials, "poincare: verification")

        extra = ("--trials", str(trials), "--seed", str(derive_seed(seed, "trials"))) if trials else ()
        steps.append(Step(("poincare", "--relative") + group_args(k) + extra + ("--out", out), check_poincare))

    k = scale.wreath_k

    def check_wreath(_):
        doc = load_json(workdir, "wreath.json")
        expect(doc["vertices"] == k << k, f"wreath: {doc['vertices']} vertices")
        degree = [0] * doc["vertices"]
        for e in doc["edges"]:
            degree[e["u"]] += 1
            degree[e["v"]] += 1
        expect(set(degree) == {3}, "wreath: not 3-regular")

    steps.append(Step(("wreath",) + group_args(k) + ("--out", "wreath.json"), check_wreath))
    return steps


def walls(workdir: Path, seed: int, scale: Scale) -> list[Step]:
    """Covers, walls and metric diagnostics; the graphs have no seeded input."""
    for name in {scale.cover_base, scale.metric_base, *scale.family_bases}:
        (workdir / f"{name}.json").write_text(graph_json(*base_edges(name)))

    def cover_and_embedding(name):
        base = build_graph(*base_edges(name))
        cm = homology_cover(base)
        return base, cm, wall_hilbert_embedding(cm.cover, walls_from_cover(cm))

    entries = []
    for name in scale.family_bases:
        base, cm, embedding = cover_and_embedding(name)
        entries.append(MapEntry(cm.cover, base, cm.vertex_map))
        entries.append(MapEntry(cm.cover, embedding, tuple(range(cm.cover.vertex_count))))
    _, cm, points = cover_and_embedding(scale.metric_base)
    (workdir / "metriccover.json").write_text(jsonio.serialize_graph(cm.cover))
    (workdir / "family.json").write_text(jsonio.serialize_map_family(MapFamily(tuple(entries))))
    (workdir / "points.json").write_text(jsonio.serialize_points(points))
    radius = 1.0
    norms = (points * points).sum(axis=1)
    # exact: the coordinates are halves, so no rounding enters
    sq = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    concentration = int((sq <= radius * radius).sum(axis=1).max())
    pair_total = sum(e.size * (e.size - 1) // 2 for e in entries)

    n, edges = base_edges(scale.cover_base)
    rank = len(edges) - n + 1
    degree = n - 1  # the cover bases are complete graphs
    cover_n = n << rank
    mn, medges = base_edges(scale.metric_base)
    metric_n = mn << (len(medges) - mn + 1)

    def check_cover(_):
        doc = load_json(workdir, "cover.json")
        got = (doc["vertices"], len(doc["edges"]))
        expect(got == (cover_n, len(edges) << rank), f"cover: {got}")

    def check_walls(_):
        doc = load_json(workdir, "walls.json")
        expect(doc["cover_vertices"] == cover_n, f"walls: {doc['cover_vertices']} vertices")
        expect(doc["wall_sizes"] == [1 << rank] * len(edges), f"walls: sizes {doc['wall_sizes']}")

    def check_spectrum(_):
        vals = load_json(workdir, "spectrum.json")["eigenvalues"]
        expect(close(vals[0], degree, EIGEN_TOL), f"spectrum: top {vals[0]}")
        expect(close(vals[-1], -degree, EIGEN_TOL), f"spectrum: bottom {vals[-1]}")

    def check_wallmetric(_):
        try:
            data = (workdir / "wallmetric.csv").read_bytes()
        except OSError as e:
            raise CheckFailed(f"wallmetric: {e}") from e
        rows = data.split(b"\n")
        expect(rows[0] == b"u,v,wall_distance,graph_distance", "wallmetric: header")
        expect(rows[-1] == b"", "wallmetric: unterminated")
        expect(len(rows) - 2 == metric_n * (metric_n - 1) // 2, f"wallmetric: {len(rows) - 2} rows")
        for row in rows[1:-1:997]:
            _, _, wall, graph = row.split(b",")
            expect(0 < float(wall) <= float(graph), f"wallmetric: row {row!r}")

    def check_girth(_):
        doc = load_json(workdir, "girth.json")
        got = (doc["girth"], doc["diameter"])
        expect(got == (scale.metric_cover_girth, scale.metric_cover_diameter), f"girth: {got}")

    def check_moduli(_):
        try:
            lines = (workdir / "moduli.csv").read_text().splitlines()
        except OSError as e:
            raise CheckFailed(f"moduli: {e}") from e
        expect(lines[0] == "t,rho,gamma,count", "moduli: header")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        expect(sum(r[3] for r in rows) == pair_total, "moduli: pair count")
        expect(rows[0][0] == 1.0 and rows[0][2] <= 1.0 + CONSTANT_TOL, "moduli: not 1-Lipschitz")

    def check_weakembed(_):
        doc = load_json(workdir, "weakembed.json")
        lips = doc["lipschitz_constants"]
        expect(len(lips) == len(entries), "weakembed: entry count")
        expect(all(close(c, 1.0, CONSTANT_TOL) for c in lips), f"weakembed: {lips}")
        expect(doc["lipschitz_ok"], "weakembed: lipschitz_ok")

    def check_concentrate(_):
        doc = load_json(workdir, "concentrate.json")
        expect(doc["count"] == concentration, f"concentrate: {doc['count']}, expected {concentration}")

    return [
        Step(("cover", f"{scale.cover_base}.json", "--out", "cover.json"), check_cover),
        Step(("walls", f"{scale.cover_base}.json", "--out", "walls.json"), check_walls),
        Step(("spectrum", "cover.json", "--out", "spectrum.json"), check_spectrum),
        Step(("wallmetric", f"{scale.metric_base}.json", "--out", "wallmetric.csv"), check_wallmetric),
        Step(("girth", "metriccover.json", "--out", "girth.json"), check_girth),
        Step(("moduli", "family.json", "--out", "moduli.csv"), check_moduli),
        Step(("weakembed", "family.json", "--lipschitz", "1.0", "--out", "weakembed.json"), check_weakembed),
        Step(("concentrate", "points.json", "--radius", str(radius), "--out", "concentrate.json"),
             check_concentrate),
    ]


def combined(*parts: Callable[[Path, int, Scale], list[Step]]):
    """A workload that runs the steps of each part in turn, in one pass."""

    def make(workdir: Path, seed: int, scale: Scale) -> list[Step]:
        return [step for part in parts for step in part(workdir, seed, scale)]

    return make


WORKLOADS: dict[str, Callable[[Path, int, Scale], list[Step]]] = {
    "expander_lamplighter": combined(expander, lamplighter),
    "cancellation_walls": combined(cancellation, walls),
}
