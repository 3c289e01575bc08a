"""The benchmark's span wrappers (perfbench/spans.py) name coarselab
functions by module and function name; these checks fail as soon as a
rename or removal in src/ would break them, without running a workload."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_layer_resolves(spans):
    for module_name, functions in spans.LAYERS.items():
        module = importlib.import_module(f"coarselab.{module_name}")
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"coarselab.{module_name}.{fn_name}"


def test_importing_the_cli_loads_every_wrapped_layer(spans):
    # spans.install imports coarselab.cli and then reads
    # sys.modules["coarselab.<name>"] for each layer, so every layer must
    # be registered there, though importing the package executes none of
    # them: a registered layer runs on its first attribute read
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = "import json, sys\nimport coarselab.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert [m for m in spans.LAYERS if f"coarselab.{m}" not in loaded] == []


def test_install_traces_layers_that_no_command_has_run_yet(tmp_path):
    # every layer test above runs in the pytest process, where each module
    # has long been executed; here the CLI is imported cold, so install
    # and the traced commands are the first to read the lazy layers
    from coarselab.graph_core import build_graph
    from coarselab.jsonio import serialize_graph

    (tmp_path / "triangle.json").write_text(serialize_graph(build_graph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])))
    (tmp_path / "k4.json").write_text(serialize_graph(build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])))
    script = textwrap.dedent(
        """
        import importlib.util, json, sys, types
        import coarselab.cli as cli

        def layer(name):
            return sys.modules[f"coarselab.{name}"]

        ran = [m for m in ("labelings", "covers_walls") if type(layer(m)) is types.ModuleType]
        spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
        spans = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = spans
        spec.loader.exec_module(spans)
        del sys.modules[spec.name]
        rec = spans.Recorder("cold")
        restore = spans.install(rec)
        traced = {(m, f): getattr(layer(m), f) for m, fs in spans.LAYERS.items() for f in fs}
        try:
            assert cli.main(["pieces", "triangle.json", "--out", "pieces.json"]) == 0
            assert cli.main(["walls", "k4.json", "--out", "walls.json"]) == 0
        finally:
            restore()
        unrestored = [f"{m}.{f}" for (m, f), fn in traced.items() if getattr(layer(m), f) is not fn.__wrapped__]
        left = [f"{n}.{a}" for n, mod in list(sys.modules.items()) if n.startswith("coarselab.")
                for a, v in vars(mod).items() if any(v is fn for fn in traced.values())]
        names = sorted({s.name for s in rec.spans})
        print(json.dumps([ran, names, unrestored, left]), file=sys.stderr)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SPANS_PATH)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ran, names, unrestored, left = json.loads(proc.stderr.strip().splitlines()[-1])
    assert ran == []
    assert {"labelings.enumerate_pieces", "covers_walls.walls_from_cover", "jsonio.parse_graph"} <= set(names)
    assert unrestored == [] and left == []


def test_labelings_calls_the_wrapped_girth():
    # girth spans on labeling workloads come from this from-import
    import coarselab.graph_core
    import coarselab.labelings

    assert coarselab.labelings.girth is coarselab.graph_core.girth


def test_install_wraps_each_layer_and_restore_undoes_it(spans):
    homes = {
        (m, f): getattr(importlib.import_module(f"coarselab.{m}"), f)
        for m, functions in spans.LAYERS.items()
        for f in functions
    }
    restore = spans.install(spans.Recorder("guard"))
    try:
        for (m, f), original in homes.items():
            assert getattr(importlib.import_module(f"coarselab.{m}"), f) is not original
    finally:
        restore()
    for (m, f), original in homes.items():
        assert getattr(importlib.import_module(f"coarselab.{m}"), f) is original


def test_expander_layers_fire_on_lps_then_spectrum(spans, tmp_path, capsys):
    # the benchmark's self-test asks these metrics to fire on its
    # expander_lamplighter workload; lps | spectrum on the 120-vertex
    # instance reaches every one of them in well under a second
    from coarselab import cli

    rec = spans.Recorder("expander")
    restore = spans.install(rec)
    try:
        lps = tmp_path / "lps.json"
        assert cli.main(["lps", "--p", "13", "--q", "5", "--out", str(lps)]) == 0
        assert cli.main(["spectrum", str(lps), "--out", str(tmp_path / "spectrum.json")]) == 0
    finally:
        restore()
    fired = set(spans.layer_values(rec))
    wanted = [
        m.name
        for m in spans.METRICS
        if m.workload == "expander_lamplighter" and m.name.startswith(("graph_core.", "expander_zoo."))
    ]
    assert "graph_core.distance_matrix.calls" in wanted
    assert [name for name in wanted if name not in fired] == []


def test_cancellation_and_walls_layers_fire_on_small_steps(spans, tmp_path, capsys):
    # the benchmark's self-test asks these metrics to fire on its
    # cancellation_walls workload; label on two 6-cycles (seed 1 succeeds
    # after 146 attempts), pieces and present of its labeling, then the
    # cover and wall steps on K4 reach every one of them in about a second
    from coarselab import cli
    from coarselab.graph_core import build_graph
    from coarselab.jsonio import serialize_graph

    cycles = tmp_path / "cycles.json"
    two_hexagons = [(i, i - i % 6 + (i + 1) % 6) for i in range(12)]
    cycles.write_text(serialize_graph(build_graph(12, two_hexagons)))
    k4 = tmp_path / "k4.json"
    k4.write_text(serialize_graph(build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])))
    labeled = tmp_path / "labeled.json"
    cover = tmp_path / "cover.json"
    rec = spans.Recorder("cancellation")
    restore = spans.install(rec)
    try:
        label = ["label", str(cycles), "--random", "--alphabet", "3", "--lambda", "1/4", "--seed", "1"]
        assert cli.main(label + ["--out", str(labeled)]) == 0
        for cmd in ("pieces", "present"):
            assert cli.main([cmd, str(labeled), "--out", str(tmp_path / f"{cmd}.json")]) == 0
        assert cli.main(["cover", str(k4), "--out", str(cover)]) == 0
        assert cli.main(["walls", str(k4), "--out", str(tmp_path / "walls.json")]) == 0
        assert cli.main(["wallmetric", str(k4), "--out", str(tmp_path / "wallmetric.csv")]) == 0
        assert cli.main(["girth", str(cover), "--out", str(tmp_path / "girth.json")]) == 0
    finally:
        restore()
    assert "attempts: 146" in capsys.readouterr().out
    fired = set(spans.layer_values(rec))
    wanted = [
        m.name
        for m in spans.METRICS
        if m.workload == "cancellation_walls"
        and m.name.startswith(("graph_core.", "labelings.", "covers_walls."))
    ]
    assert {
        "labelings.check_small_cancellation.calls",
        "covers_walls.validate_walls.calls",
        "covers_walls.walls_from_cover.s",
    } <= set(wanted)
    assert [name for name in wanted if name not in fired] == []


def test_girth_command_counts_only_the_distance_rows_of_diameter(spans, tmp_path, capsys):
    # graph_core.distance_matrix.calls is a benchmark metric; girth walks
    # the levels itself, so on C6 the one distance call is diameter's
    from coarselab import cli
    from coarselab.graph_core import build_graph
    from coarselab.jsonio import serialize_graph

    c6 = tmp_path / "c6.json"
    c6.write_text(serialize_graph(build_graph(6, [(i, (i + 1) % 6) for i in range(6)])))
    rec = spans.Recorder("girth")
    restore = spans.install(rec)
    try:
        assert cli.main(["girth", str(c6), "--out", str(tmp_path / "girth.json")]) == 0
    finally:
        restore()
    assert [s.name for s in rec.spans].count("graph_core.girth") == 1
    (walk,) = [s for s in rec.spans if s.name == "graph_core.distance_matrix"]
    assert rec.spans[walk.parent].name == "graph_core.diameter"


def test_the_benchmark_selftest_passes_on_a_copy(tmp_path):
    # perfbench/selftest.py fails when a declared span stops firing on its
    # workload; it runs in a copy, so its scratch directory stays out of
    # the tree
    root = SRC.parent
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=tmp_path, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
