"""Command-line frontend tying the library into reproducible pipelines.

Every subcommand is a pure function of its input files, flags, and
seed: rerunning a command reproduces its output byte for byte.  Human
summaries go to stdout; the machine artifact (JSON or CSV) goes to the
``--out`` path.  ``--out -`` sends the artifact to stdout instead and
suppresses the summary, which is what makes shell pipelines work.

Exit codes: 0 success, 2 invalid input, 3 a safety cap was exceeded,
4 a mathematical verification failed (never an input problem).

``run()`` is the process entry, for ``python -m coarselab.cli`` and the
``coarselab`` console script alike: it freezes the import-time heap, then
calls ``main()``.  Tests and in-process callers call ``main(argv)``, which
leaves the garbage collector as it finds it.
"""

from __future__ import annotations

import os

# the thread bound must be in the environment before BLAS spins up its
# pool, so this block runs ahead of any numeric import
_threads = os.environ.get("COARSE_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import gc
import math
import sys
from fractions import Fraction

import numpy as np

from . import covers_walls, expander_zoo, jsonio, labelings, metric_diag, poincare_lab, wreath
from .errors import (
    COVER_VERTEX_CAP,
    PIECE_DART_CAP,
    PRESENTATION_RANK_CAP,
    WREATH_VERTEX_CAP,
    CapExceededError,
    InvalidInputError,
    VerificationError,
)
from .graph_core import (
    CHEEGER_ENUM_CAP,
    GraphFamily,
    LabeledGraph,
    adjacency_spectrum,
    cheeger_exact,
    diameter,
    distance_matrix,
    girth,
    split_components,
    xor_deck,
    xor_deck_gather,
)

THREADS_HELP = (
    "The environment variable COARSE_LAB_THREADS bounds internal "
    "parallelism (default: machine parallelism); it never affects results."
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _read_source(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InvalidInputError(f"cannot read {path}: {e.strerror}") from e


def _write_artifact(path: str, artifact: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    except OSError as e:
        raise InvalidInputError(f"cannot write {path}: {e.strerror}") from e


def _single_graph(args) -> LabeledGraph:
    parsed = jsonio.parse_graph(_read_source(args.input), strict=not args.lax)
    if isinstance(parsed, GraphFamily):
        raise InvalidInputError("this command takes a single-graph document")
    return parsed


def _graph_family(args) -> GraphFamily:
    parsed = jsonio.parse_graph(_read_source(args.input), strict=not args.lax)
    if isinstance(parsed, GraphFamily):
        return parsed
    return split_components(parsed)


def _wreath_group(args) -> wreath.WreathGroup:
    q_table = jsonio.parse_group_table(_read_source(args.q_table), strict=not args.lax)
    b_table = jsonio.parse_group_table(_read_source(args.b_table), strict=not args.lax)
    try:
        proj = tuple(int(part) for part in args.proj.split(","))
    except ValueError as e:
        raise InvalidInputError(f"--proj must be a comma list of integers: {args.proj!r}") from e
    return wreath.WreathGroup(Q=q_table, B=b_table, proj=proj)


# -- subcommand handlers ------------------------------------------------------


def _cmd_lps(args):
    graph, group = expander_zoo.lps_graph(args.p, args.q, allow_large=args.allow_large)
    report = expander_zoo.verify_lps(graph, expander_zoo.LpsParams.validate(args.p, args.q), group)
    lines = [
        f"lps graph p={args.p} q={args.q}",
        f"vertices: {report.vertices}",
        f"regular degree: {report.regular_degree}",
        f"connected: {report.connected}, bipartite: {report.bipartite}",
        f"girth: {_fmt(report.girth)} (lower bound {_fmt(report.girth_bound)})",
        f"max |eigenvalue| off the trivial ones: {_fmt(report.max_interior_abs)}",
        f"ramanujan bound 2*sqrt(p): {_fmt(report.ramanujan_bound)}"
        f" (margin {_fmt(report.ramanujan_bound - report.max_interior_abs)})",
    ]
    if not report.spectrum_complete:
        lines.append(
            "eigenvalue window: residual-checked Lanczos extremes only, not certified"
        )
    if not report.passed:
        raise VerificationError("; ".join(report.failures))
    lines.append("verification: passed")
    return lines, jsonio.serialize_graph(graph)


def _interior_abs(values, degree: float) -> float:
    rest = sorted(values, reverse=True)
    for trivial in (degree, -degree):
        for i, v in enumerate(rest):
            if abs(v - trivial) <= 1e-6:
                rest.pop(i)
                break
    return max((abs(v) for v in rest), default=0.0)


def _cmd_spectrum(args):
    g = _single_graph(args)
    summary = adjacency_spectrum(g)
    degrees = set(np.diff(g.first).tolist())
    regular = degrees.pop() if len(degrees) == 1 else None
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "spectrum",
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "regular_degree": regular,
        "complete": summary.complete,
        "residual": summary.residual,
        "eigenvalues": list(summary.eigenvalues),
    }
    lines = [
        f"vertices: {g.vertex_count}, edges: {g.edge_count}",
        f"regular degree: {regular}" if regular is not None else "not regular",
        f"eigenvalues: {len(summary.eigenvalues)}"
        + ("" if summary.complete else " (extremes only)"),
        f"largest: {_fmt(summary.eigenvalues[0])},"
        f" smallest: {_fmt(summary.eigenvalues[-1])}",
    ]
    if regular is not None and regular >= 2:
        bound = 2.0 * math.sqrt(regular - 1)
        interior = _interior_abs(summary.eigenvalues, float(regular))
        doc["ramanujan_bound"] = bound
        doc["max_interior_abs"] = interior
        doc["ramanujan_margin"] = bound - interior
        lines.append(
            f"max |eigenvalue| off +-{regular}: {_fmt(interior)}; "
            f"ramanujan bound 2*sqrt(d-1) = {_fmt(bound)}, "
            f"margin {_fmt(bound - interior)}"
        )
    return lines, jsonio.canonical_json(doc)


def _cmd_cheeger(args):
    g = _single_graph(args)
    result = cheeger_exact(g, cap=args.cap)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "cheeger",
        "value": float(result.value),
        "numerator": result.value.numerator,
        "denominator": result.value.denominator,
        "witness": list(result.witness),
        "boundary_edges": result.boundary_edges,
    }
    lines = [
        f"cheeger constant: {result.value} = {_fmt(float(result.value))}",
        f"witness subset ({len(result.witness)} vertices): {list(result.witness)}",
        f"boundary edges: {result.boundary_edges}",
    ]
    return lines, jsonio.canonical_json(doc)


def _cmd_girth(args):
    g = _single_graph(args)
    # the XOR deck maps of a graph whose darts pass the lift check, such as
    # any homology cover, are automorphisms moving (v, 0) onto its whole
    # fiber, so the fiber heads see every shortest cycle and eccentricity
    lift = xor_deck(g)
    sources = None if lift is None else lift.fiber_heads()
    value = girth(g, sources)
    finite = not math.isinf(value)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "girth",
        "girth": int(value) if finite else None,
        "diameter": diameter(g, sources) if g.is_connected else None,
    }
    lines = [f"girth: {int(value) if finite else 'infinite (no cycle)'}"]
    if g.is_connected:
        lines.append(f"diameter: {doc['diameter']}")
    else:
        lines.append("diameter: undefined (disconnected)")
    return lines, jsonio.canonical_json(doc)


def _cmd_cover(args):
    g = _single_graph(args)
    cm = covers_walls.iterate_homology_cover(g, args.iterations, vertex_cap=args.vertex_cap)
    cm.cover.annotations["covering"] = {
        "base_vertices": cm.base.vertex_count,
        "deck_rank": cm.deck_rank,
        "iterations": args.iterations,
        "single_step": cm.single_step,
        "vertex_map": cm.vertex_map.tolist(),
    }
    lines = [
        f"base: {cm.base.vertex_count} vertices, {cm.base.edge_count} edges",
        f"cover: {cm.cover.vertex_count} vertices, {cm.cover.edge_count} edges",
        f"deck rank: {cm.deck_rank} (fibers of size {2 ** cm.deck_rank})",
        f"cover girth: {covers_walls.cover_girth(cm)}",
    ]
    return lines, jsonio.serialize_graph(cm.cover)


def _cmd_walls(args):
    g = _single_graph(args)
    cm = covers_walls.homology_cover(g)
    walls = covers_walls.walls_from_cover(cm)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "walls",
        "cover_vertices": walls.vertex_count,
        "cover_edges": walls.edge_count,
        "wall_count": len(walls.walls),
        "wall_sizes": [len(w) for w in walls.walls],
        "walls": [sorted(w) for w in walls.walls],
    }
    lines = [
        f"homology cover: {walls.vertex_count} vertices, {walls.edge_count} edges",
        f"walls: {len(walls.walls)} with sizes {[len(w) for w in walls.walls]}",
        "validation: every wall separates the cover into two components",
    ]
    return lines, jsonio.canonical_json(doc)


def _field_table(count: int, sep: str) -> np.ndarray:
    """Entry x, for 0 <= x < count, is the decimal digits of x followed by
    ``sep``, as one fixed-width record of ASCII bytes: the digits are
    right-aligned, and the left padding is zero bytes, which no digit or
    separator uses."""
    width = len(str(count - 1))
    x = np.arange(count)[:, None]
    power = 10 ** np.arange(width - 1, -1, -1)
    table = np.empty((count, width + 1), dtype=np.uint8)
    table[:, :width] = x // power % 10 + ord("0")
    table[:, :width][(x < power) & (power > 1)] = 0
    table[:, width] = ord(sep)
    return table.view(f"V{width + 1}").ravel()


def _csv_rows(*fields: tuple[np.ndarray, np.ndarray]) -> str:
    """CSV lines from (field table, column) pairs, one line per column
    entry: each row is the concatenation of its table records, with the
    padding stripped."""
    rows = np.empty(fields[0][1].size, dtype=[(f"f{i}", t.dtype) for i, (t, _) in enumerate(fields)])
    for i, (table, column) in enumerate(fields):
        rows[f"f{i}"] = table[column]
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _pairs_from(lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair u < v < n with lo <= u < hi, in row order."""
    us = np.arange(lo, hi)
    counts = n - 1 - us
    u = np.repeat(us, counts)
    v = np.arange(u.size) - np.repeat(np.cumsum(counts) - counts - us - 1, counts)
    return u, v


def _cmd_wallmetric(args):
    g = _single_graph(args)
    cm = covers_walls.homology_cover(g)
    heads = covers_walls.xor_fiber_heads(cm)
    walls = covers_walls.walls_from_cover(cm)
    wall_rows = covers_walls.wall_pseudometric(cm.cover, walls, heads)
    # the cover is connected, so graph distances are integers below n
    graph_rows = distance_matrix(cm.cover, heads).astype(np.int64)
    n = cm.cover.vertex_count
    vertex_fields = _field_table(n, ",")
    top = int(graph_rows.max()) + 1
    wall_fields, graph_fields = _field_table(top, ","), _field_table(top, "\n")
    chunks = ["u,v,wall_distance,graph_distance\n"]
    # sqrt(n) sources per block hold O(n^1.5) pairs at once, against the
    # artifact's n^2 / 2 rows
    block = math.isqrt(n)
    for lo in range(0, n, block):
        u, v = _pairs_from(lo, min(lo + block, n), n)
        wall = xor_deck_gather(wall_rows, cm.deck_rank, u, v)
        graph = xor_deck_gather(graph_rows, cm.deck_rank, u, v)
        if np.any(wall > graph):
            raise VerificationError("wall distance exceeds graph distance somewhere")
        chunks.append(
            _csv_rows((vertex_fields, u), (vertex_fields, v), (wall_fields, wall), (graph_fields, graph))
        )
    lines = [
        f"homology cover: {n} vertices, {len(walls.walls)} walls",
        f"pairs: {n * (n - 1) // 2}, max wall distance: {_fmt(wall_rows.max())}",
        "check: wall distance <= graph distance everywhere",
    ]
    return lines, "".join(chunks)


def _cmd_label(args):
    fam = _graph_family(args)
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidInputError(f"--lambda must be a fraction like 1/6: {args.lam!r}") from e
    outcome = labelings.random_labeling(
        fam, args.alphabet, lam, args.seed, max_attempts=args.max_attempts
    )
    lines = [
        f"components: {len(fam)}, alphabet size: {args.alphabet}, "
        f"lambda: {lam}, seed: {args.seed}",
        f"attempts: {outcome.attempts}",
    ]
    if not outcome.success:
        lines.append("no reduced small-cancellation labeling found (claims nothing)")
        return lines, None
    rep = outcome.report
    lines.append(
        f"success: max piece length {list(rep.max_piece_length)} "
        f"against girths {list(rep.girths)}"
    )
    artifact = jsonio.serialize_graph_family(
        outcome.family,
        annotations={
            "attempts": outcome.attempts,
            "alphabet_size": args.alphabet,
            "lambda": str(lam),
            "seed": args.seed,
        },
    )
    return lines, artifact


def _cmd_pieces(args):
    fam = _graph_family(args)
    pieces = labelings.enumerate_pieces(fam, cap=args.cap)
    doc_pieces = []
    for p in pieces:
        doc_pieces.append(
            {
                "word": list(p.word),
                "length": None if p.infinite else int(p.length),
                "infinite": p.infinite,
                "components": list(p.components),
            }
        )
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "pieces",
        "count": len(pieces),
        "pieces": doc_pieces,
    }
    finite = [int(p.length) for p in pieces if not p.infinite]
    lines = [
        f"components: {len(fam)}",
        f"pieces: {len(pieces)}"
        + (f", longest finite: {max(finite)}" if finite else ""),
    ]
    if any(p.infinite for p in pieces):
        lines.append("contains an infinite (periodic) piece")
    return lines, jsonio.canonical_json(doc)


def _cmd_present(args):
    fam = _graph_family(args)
    pres = labelings.graphical_presentation(fam, rank_cap=args.rank_cap)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "presentation",
        "alphabet": list(pres.alphabet),
        "relators": [list(w) for w in pres.relators],
    }
    total = sum(len(w) for w in pres.relators)
    lines = [
        f"generators: {len(pres.alphabet)} {list(pres.alphabet)}",
        f"relators: {len(pres.relators)} (total length {total})",
    ]
    return lines, jsonio.canonical_json(doc)


def _cmd_wreath(args):
    W = _wreath_group(args)
    ball = wreath.wreath_cayley(W, radius=args.radius, cap=args.cap)
    lines = [
        f"wreath group order: {W.order} "
        f"(2^{W.Q.order} lamp configurations x {W.B.order} base elements)",
        f"generators: {len(W.generators)}",
        f"enumerated vertices: {ball.graph.vertex_count}"
        + ("" if ball.complete else f" (ball of radius {ball.radius})"),
        f"edges: {ball.graph.edge_count}",
    ]
    return lines, jsonio.serialize_graph(ball.graph)


def _cmd_poincare(args):
    if not args.relative:
        raise InvalidInputError("only the relative inequality is implemented; pass --relative")
    W = _wreath_group(args)
    if args.trials:
        poincare_lab.check_replay(args.trials, args.seed)
    result = poincare_lab.relative_poincare_constant(W)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "relative_poincare",
        "constant": result.constant,
        "group_order": W.order,
        "sigma_size": len(W.generators),
        "x_size": W.Q.order,
        "witness": result.witness.values.tolist(),
    }
    lines = [
        f"group order: {W.order}, |Sigma| = {len(W.generators)}, |X| = {W.Q.order}",
        f"relative poincare constant: {_fmt(result.constant)}",
    ]
    if args.trials:
        report = poincare_lab.verify_relative_inequality(
            W, None, None, result.constant, trials=args.trials, seed=args.seed,
            witness=result.witness,
        )
        doc["verification"] = report.to_json_dict()
        lines.append(
            f"verification: {report.checked} probes, {report.degenerate} degenerate,"
            f" worst ratio {_fmt(report.worst_ratio)}"
        )
        if not report.ok:
            raise VerificationError(
                f"{report.violations} probes violated the inequality at C = "
                f"{_fmt(result.constant)}"
            )
    return lines, jsonio.canonical_json(doc)


def _cmd_weakembed(args):
    mf = jsonio.parse_map_family(_read_source(args.input), strict=not args.lax)
    report = metric_diag.is_weak_embedding(mf, args.lipschitz)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "weak_embedding",
        "lipschitz_bound": args.lipschitz,
        "lipschitz_constants": list(report.lipschitz_constants),
        "fiber_fractions": list(report.fiber_fractions),
        "lipschitz_ok": report.lipschitz_ok,
        "fractions_decreasing": report.fractions_decreasing,
        "passed": report.passed,
    }
    lines = [
        f"indices: {len(mf)}, lipschitz bound: {_fmt(args.lipschitz)}",
        "lipschitz constants: " + ", ".join(_fmt(c) for c in report.lipschitz_constants),
        "fiber fractions: " + ", ".join(_fmt(c) for c in report.fiber_fractions),
        f"uniformly lipschitz: {report.lipschitz_ok}, "
        f"fractions strictly decreasing: {report.fractions_decreasing}",
        f"weak embedding (finite shadow): {report.passed}",
    ]
    return lines, jsonio.canonical_json(doc)


def _cmd_moduli(args):
    mf = jsonio.parse_map_family(_read_source(args.input), strict=not args.lax)
    report = metric_diag.compression_moduli(mf)
    csv = report.to_csv()
    lines = [f"distance classes: {len(report.distances)}"] + csv.strip().split("\n")
    return lines, csv


def _cmd_concentrate(args):
    points = jsonio.parse_points(_read_source(args.input), strict=not args.lax)
    count = metric_diag.ball_concentration(points, args.radius)
    doc = {
        "format_version": jsonio.FORMAT_VERSION,
        "report": "ball_concentration",
        "radius": args.radius,
        "points": int(points.shape[0]),
        "count": count,
    }
    lines = [
        f"points: {points.shape[0]} in R^{points.shape[1]}",
        f"largest ball of radius {_fmt(args.radius)} "
        f"(centered at a point of the set) captures: {count}",
    ]
    return lines, jsonio.canonical_json(doc)


# -- parser and dispatch --------------------------------------------------------


def _add_common(sp, reads_input=False):
    if reads_input:
        sp.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input document path, or - for stdin (default)",
        )
        sp.add_argument(
            "--lax",
            action="store_true",
            help="accept unknown JSON fields instead of rejecting them",
        )
    sp.add_argument(
        "--out",
        metavar="PATH",
        help="write the machine artifact (JSON/CSV) here; - for stdout "
        "(suppresses the human summary)",
    )


def _add_tables(sp):
    """The group-table inputs of ``wreath`` and ``poincare``."""
    sp.add_argument("--q-table", required=True, help="quotient group table (JSON path)")
    sp.add_argument("--b-table", required=True, help="base group table (JSON path)")
    sp.add_argument(
        "--proj", required=True, help="surjection B ->> Q as a comma list, e.g. 0,1,2"
    )
    sp.add_argument("--lax", action="store_true", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarselab",
        description="Expanders, covers, walls, wreath groups, and "
        "coarse-embedding diagnostics on finite instances.",
        epilog=THREADS_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    sp = sub.add_parser("lps", help="build and verify an LPS Ramanujan graph")
    sp.add_argument("--p", type=int, required=True, help="prime, 1 mod 4")
    sp.add_argument("--q", type=int, required=True, help="prime, 1 mod 4, (p|q) = -1")
    sp.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the q cap (spectra get expensive)",
    )
    _add_common(sp)
    sp.set_defaults(handler=_cmd_lps)

    sp = sub.add_parser("spectrum", help="adjacency eigenvalues of a graph")
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("cheeger", help="exact Cheeger constant (exponential sweep)")
    sp.add_argument(
        "--cap",
        type=int,
        default=CHEEGER_ENUM_CAP,
        help=f"largest vertex count to sweep (default {CHEEGER_ENUM_CAP})",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_cheeger)

    sp = sub.add_parser("girth", help="girth and diameter of a graph")
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_girth)

    sp = sub.add_parser("cover", help="iterated Z/2-homology cover of a graph")
    sp.add_argument("--iterations", type=int, default=1, help="cover steps (default 1)")
    sp.add_argument(
        "--vertex-cap",
        type=int,
        default=COVER_VERTEX_CAP,
        help="abort when the cover would exceed this many vertices",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_cover)

    sp = sub.add_parser(
        "walls", help="wall decomposition of the homology cover of a graph"
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_walls)

    sp = sub.add_parser(
        "wallmetric",
        help="wall pseudometric of the homology cover, as CSV over all pairs",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_wallmetric)

    sp = sub.add_parser(
        "label", help="search for a random reduced small-cancellation labeling"
    )
    sp.add_argument("--random", action="store_true", required=True)
    sp.add_argument("--alphabet", type=int, required=True, help="number of base symbols")
    sp.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="small-cancellation parameter as a fraction, e.g. 1/6",
    )
    sp.add_argument("--seed", type=int, required=True, help="rng seed (mandatory)")
    sp.add_argument(
        "--max-attempts",
        type=int,
        default=200000,
        help="give up after this many rejection samples",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_label)

    sp = sub.add_parser("pieces", help="enumerate the pieces of a labeled family")
    sp.add_argument(
        "--cap",
        type=int,
        default=PIECE_DART_CAP,
        help=f"dart budget for the pair search (default {PIECE_DART_CAP})",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_pieces)

    sp = sub.add_parser(
        "present", help="graphical presentation read off a labeled family"
    )
    sp.add_argument(
        "--rank-cap",
        type=int,
        default=PRESENTATION_RANK_CAP,
        help=f"largest total relator rank to accept (default {PRESENTATION_RANK_CAP})",
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_present)

    sp = sub.add_parser(
        "wreath", help="Cayley graph of a lamp wreath product from group tables"
    )
    _add_tables(sp)
    sp.add_argument(
        "--radius", type=int, default=None, help="enumerate only this metric ball"
    )
    sp.add_argument(
        "--cap",
        type=int,
        default=WREATH_VERTEX_CAP,
        help=f"largest vertex count to enumerate (default {WREATH_VERTEX_CAP})",
    )
    _add_common(sp)
    sp.set_defaults(handler=_cmd_wreath)

    sp = sub.add_parser(
        "poincare", help="relative Poincare constant of a lamp wreath product"
    )
    sp.add_argument("--relative", action="store_true", help="use the relative forms")
    _add_tables(sp)
    sp.add_argument(
        "--trials",
        type=int,
        default=0,
        help="also replay the inequality on this many random functions",
    )
    sp.add_argument(
        "--seed", type=int, default=None, help="rng seed (mandatory with --trials)"
    )
    _add_common(sp)
    sp.set_defaults(handler=_cmd_poincare)

    sp = sub.add_parser(
        "weakembed", help="finite-family weak-embedding check of a map family"
    )
    sp.add_argument(
        "--lipschitz", type=float, required=True, help="uniform Lipschitz bound D"
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_weakembed)

    sp = sub.add_parser(
        "moduli", help="compression moduli of a map family, as CSV per distance class"
    )
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_moduli)

    sp = sub.add_parser(
        "concentrate", help="largest point count in one ball of a given radius"
    )
    sp.add_argument("--radius", type=float, required=True)
    _add_common(sp, reads_input=True)
    sp.set_defaults(handler=_cmd_concentrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "poincare" and args.trials and args.seed is None:
        parser.error("--trials is randomized and requires an explicit --seed")
    try:
        # an unset shell variable must not drop the artifact silently
        if args.out == "":
            raise InvalidInputError("--out needs a path, or - for standard output")
        lines, artifact = args.handler(args)
        if artifact is not None and args.out and args.out != "-":
            _write_artifact(args.out, artifact)
    except InvalidInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 4
    try:
        if args.out == "-":
            if artifact is not None:
                sys.stdout.write(artifact)
        else:
            for line in lines:
                print(line)
    except BrokenPipeError:
        return 0
    return 0


def run() -> int:
    """The process entry: ``main()`` on ``sys.argv`` with the import-time
    heap frozen.

    Importing numpy and the lab leaves about 22,000 objects tracked by the
    garbage collector, and every full collection, the several at
    interpreter exit included, rescans them all, 3 to 5 ms a time on one CPU.
    ``gc.freeze()`` moves them to the permanent generation, which no
    collection scans; flushes and atexit handlers still run as usual.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
