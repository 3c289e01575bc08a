"""Spans around the calls into coarselab's public functions, recorded
from outside the program, and the per-layer metrics read off them.

``install`` replaces each function in LAYERS, in every coarselab module
namespace that holds it, by a wrapper that records a span (name, start,
end, parent) into a Recorder.  Spans stay in memory until the run ends.
Per-element hot paths (``wreath_mul``, ``follow_word``, the
``LabeledGraph`` accessors) are deliberately not wrapped: their overhead
would swamp the layers they sit in.

Span names are ``<module>.<function>`` so spans emitted later from inside
the program can reuse them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 at the top


class Recorder:
    """Spans and counters of one traced run; all share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [[s.id, s.name, s.start, s.end, s.parent] for s in self.spans],
            "span_fields": ["id", "name", "start", "end", "parent"],
        }


# -- what gets wrapped, and the counts read off arguments and results ----------


def _spectrum(rec, args, result):
    rec.note_max("graph_core.spectrum_n", args[0].vertex_count)
    rec.note_max("graph_core.spectrum_residual", result.residual)


def _labeling(rec, args, result):
    rec.count("labelings.attempts", result.attempts)
    rec.count("labelings.successes", int(result.success))


def _pairs(rec, args, result):
    rec.count("metric_diag.pairs", sum(e.size * (e.size - 1) // 2 for e in args[0].entries))


def _bytes_in(rec, args, result):
    rec.count("jsonio.bytes_in", len(args[0]))


LAYERS: dict[str, dict[str, Optional[Callable]]] = {
    "expander_zoo": {"lps_graph": None, "cayley_graph": None, "verify_lps": None, "is_bipartite": None},
    "graph_core": {
        "adjacency_spectrum": _spectrum,
        "girth": None,
        "diameter": None,
        "distance_matrix": None,
        "build_graph": None,
        "split_components": None,
    },
    "labelings": {
        "random_labeling": _labeling,
        "check_small_cancellation": None,
        "enumerate_pieces": None,
        "graphical_presentation": None,
    },
    "wreath": {
        "wreath_cayley": lambda rec, args, ball: rec.count("wreath.vertices", ball.graph.vertex_count),
    },
    "poincare_lab": {
        "wreath_indexed_group": None,
        "relative_poincare_constant": lambda rec, args, res: rec.note_max(
            "poincare_lab.group_order", res.lhs_form.shape[0]
        ),
        "verify_relative_inequality": None,
        "cnd_from_function": None,
        "is_cnd": None,
    },
    "covers_walls": {
        "iterate_homology_cover": None,
        "homology_cover": lambda rec, args, cm: rec.count(
            "covers_walls.cover_vertices", cm.cover.vertex_count
        ),
        "walls_from_cover": None,
        "validate_walls": None,
        "wall_pseudometric": None,
    },
    "metric_diag": {"compression_moduli": _pairs, "is_weak_embedding": _pairs, "ball_concentration": None},
    "jsonio": {
        "parse_graph": _bytes_in,
        "serialize_graph": None,
        "canonical_json": lambda rec, args, text: rec.count("jsonio.bytes_out", len(text)),
        "parse_group_table": _bytes_in,
        "parse_map_family": _bytes_in,
        "parse_points": _bytes_in,
    },
}


def _wrapper(rec: Recorder, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if observe is not None:
            observe(rec, args, result)
        return result

    return traced


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every function in LAYERS wherever a coarselab module holds it
    (its own module, ``from`` imports, aliases such as ``jsonio._dumps``).
    Returns the function that puts the originals back."""
    importlib.import_module("coarselab.cli")  # loads every layer
    modules = [m for n, m in list(sys.modules.items()) if n == "coarselab" or n.startswith("coarselab.")]
    replaced = []
    for module_name, functions in LAYERS.items():
        home = sys.modules[f"coarselab.{module_name}"]
        for fn_name, observe in functions.items():
            original = getattr(home, fn_name)
            traced = _wrapper(rec, f"{module_name}.{fn_name}", original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        replaced.append((module, attr, original))

    def restore():
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return restore


# -- per-layer metrics ------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    workload: str  # the workload on which it fires and should move
    moves: str  # the end-to-end metric it should move there


GROUPS = "expander_lamplighter"  # the workload of the expander and lamplighter parts
COMPLEXES = "cancellation_walls"  # the workload of the cancellation and walls parts
CLI_COMMANDS = (
    (GROUPS, ("lps", "spectrum")),
    (COMPLEXES, ("label", "pieces", "present")),
    (GROUPS, ("poincare", "wreath")),
    (COMPLEXES, ("cover", "walls", "wallmetric", "girth", "moduli", "weakembed", "concentrate")),
)


def _declare() -> list[LayerMetric]:
    out = []

    def add(name, workload, moves, unit=None, better="lower"):
        if unit is None:
            unit = "count" if name.endswith(".calls") else "s"
        out.append(LayerMetric(name, unit, better, workload, moves))

    for workload, commands in CLI_COMMANDS:
        for cmd in commands:
            add(f"cli.{cmd}.s", workload, "wall_ref")
            add(f"cli.{cmd}.self_s", workload, "wall_ref")
    for name in (
        "expander_zoo.lps_graph.s",
        "expander_zoo.lps_graph.self_s",
        "expander_zoo.cayley_graph.s",
        "expander_zoo.verify_lps.self_s",
        "expander_zoo.is_bipartite.s",
        "graph_core.adjacency_spectrum.s",
        "graph_core.adjacency_spectrum.calls",
        "graph_core.diameter.s",
        "graph_core.distance_matrix.s",
        "graph_core.distance_matrix.calls",
        "jsonio.parse_graph.s",
        "jsonio.serialize_graph.s",
        "jsonio.canonical_json.s",
        "jsonio.bytes_in",
    ):
        add(name, GROUPS, "wall_ref", unit="bytes" if name.endswith("bytes_in") else None)
    add("graph_core.spectrum_n", GROUPS, "peak_rss_mb", unit="count")
    add("graph_core.spectrum_residual", GROUPS, "wall_ref", unit="norm")
    add("graph_core.girth.s", GROUPS, "wall_ref")
    add("graph_core.girth.calls", COMPLEXES, "attempts_per_s")
    add("graph_core.build_graph.s", COMPLEXES, "wall_ref")
    add("graph_core.build_graph.calls", COMPLEXES, "attempts_per_s")
    add("graph_core.split_components.s", COMPLEXES, "wall_ref")
    for name in (
        "labelings.random_labeling.s",
        "labelings.random_labeling.self_s",
        "labelings.check_small_cancellation.s",
        "labelings.check_small_cancellation.calls",
    ):
        add(name, COMPLEXES, "attempts_per_s")
    add("labelings.attempts", COMPLEXES, "attempts_per_s", unit="count")
    add("labelings.reduced_pass_ratio", COMPLEXES, "attempts_per_s", unit="ratio")
    add("labelings.success_ratio", COMPLEXES, "attempts_per_s", unit="ratio", better="higher")
    add("labelings.enumerate_pieces.s", COMPLEXES, "wall_ref")
    add("labelings.graphical_presentation.s", COMPLEXES, "wall_ref")
    add("attempts_per_s", COMPLEXES, "attempts_per_s", unit="1/s", better="higher")
    add("wreath.wreath_cayley.s", GROUPS, "wall_ref")
    add("wreath.vertices", GROUPS, "wall_ref", unit="count")
    for name in (
        "poincare_lab.wreath_indexed_group.s",
        "poincare_lab.wreath_indexed_group.calls",
        "poincare_lab.relative_poincare_constant.s",
        "poincare_lab.relative_poincare_constant.self_s",
        "poincare_lab.relative_poincare_constant.calls",
        "poincare_lab.verify_relative_inequality.self_s",
        "poincare_lab.cnd_from_function.s",
        "poincare_lab.cnd_from_function.calls",
        "poincare_lab.is_cnd.s",
    ):
        add(name, GROUPS, "wall_ref")
    add("poincare_lab.group_order", GROUPS, "peak_rss_mb", unit="count")
    add("jsonio.parse_group_table.s", GROUPS, "wall_ref")
    for name in (
        "covers_walls.iterate_homology_cover.s",
        "covers_walls.homology_cover.s",
        "covers_walls.walls_from_cover.s",
        "covers_walls.validate_walls.s",
        "covers_walls.validate_walls.calls",
        "covers_walls.wall_pseudometric.s",
        "metric_diag.compression_moduli.self_s",
        "metric_diag.is_weak_embedding.self_s",
        "metric_diag.ball_concentration.s",
        "jsonio.parse_map_family.s",
        "jsonio.parse_points.s",
    ):
        add(name, COMPLEXES, "wall_ref")
    add("covers_walls.cover_vertices", COMPLEXES, "wall_ref", unit="count")
    add("metric_diag.pairs", COMPLEXES, "peak_rss_mb", unit="count")
    add("jsonio.bytes_out", COMPLEXES, "wall_ref", unit="bytes")
    add("trace.overhead_s", COMPLEXES, "none")
    add("trace.spans", COMPLEXES, "none", unit="count")
    return out


METRICS: tuple[LayerMetric, ...] = tuple(_declare())


def span_totals(rec: Recorder) -> dict[str, float]:
    """``<name>.s``, ``<name>.self_s`` and ``<name>.calls`` for every span
    name.  Self time is a span's time minus the time its children cover;
    spans nest on one thread, so the children never overlap."""
    child_time = [0.0] * len(rec.spans)
    for s in rec.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, inner in zip(rec.spans, child_time):
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += s.end - s.start - inner
        out[f"{s.name}.calls"] += 1
    return out


def layer_values(rec: Recorder) -> dict[str, float]:
    """Every value the trace yields, keyed by metric name."""
    values = span_totals(rec)
    values.update(rec.counts)
    values.update(rec.maxima)
    attempts = rec.counts.get("labelings.attempts", 0)
    if attempts:
        values["labelings.reduced_pass_ratio"] = (
            values.get("labelings.check_small_cancellation.calls", 0) / attempts
        )
        values["labelings.success_ratio"] = rec.counts.get("labelings.successes", 0) / attempts
    values["trace.spans"] = len(rec.spans)
    return values
