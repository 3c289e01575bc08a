"""Benchmark of the coarselab command line, run from the root of a checkout:

    python3 perfbench/run.py --workload walls --seed 1 --seconds 12 --trace 0

Each workload is a closed loop with one client: its steps run in order,
each step a fresh ``python -m coarselab.cli`` process (a pipe runs two at
once), with COARSE_LAB_THREADS=1.  Inputs are made from ``--seed`` once,
before anything is timed.  Every step is a fresh process, so the only
state a warm-up can build is compiled bytecode and the page cache: one
untimed import of coarselab.cli builds both before the first timed
process.  Passes then repeat while the next one is expected to end within
``--seconds``, and at least one runs; every artifact of every pass is
checked.

``--trace 0`` reports the end-to-end metrics (medians over passes).  On a
shared host the speed of a CPU can drift by a third within minutes, so
the times are given in units of a fixed probe loop that a thread of this
process runs every 0.1 s on the same CPU as the steps (see SpeedProbe).
``--trace 1`` runs the same steps in this one process through
``coarselab.cli.main``, alternating plain passes with passes whose
calls into each module are wrapped in spans (see spans.py), and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

THREAD_PIN = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STEP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 110.0  # no new pass starts after this, so a run ends well within 180 s
SETUP_SAMPLES = 5
PROBE_ITERATIONS = 40_000  # about 3 ms of pure-Python arithmetic
PROBE_HOPS = 5_000  # about 2 ms of hops through a 1M-entry list, mostly cache misses
PROBE_INTERVAL_S = 0.1
END_TO_END = (("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class StepResult:
    command: str
    code: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    probe_s: float = float("nan")  # of the chain the step ran in
    out: str = ""
    error: Optional[str] = None


@dataclass
class Chain:
    """A step, or the steps of a pipe, with the probe's time while it ran."""

    wall_s: float
    cpu_s: float
    probe_s: float


@dataclass
class Pass:
    wall_s: float
    steps: list[StepResult] = field(default_factory=list)
    chains: list[Chain] = field(default_factory=list)  # empty for in-process passes

    @property
    def wall_ref(self) -> float:
        return sum(c.wall_s / c.probe_s for c in self.chains)

    @property
    def cpu_ref(self) -> float:
        return sum(c.cpu_s / c.probe_s for c in self.chains)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.steps)


# -- running steps as processes ---------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    """The environment of every coarselab process: sources on the path and
    the thread bound set only through COARSE_LAB_THREADS."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["COARSE_LAB_THREADS"] = THREAD_PIN
    env["PYTHONPATH"] = str(root / "src")
    return env


def _relay(src, dst, sink: list) -> None:
    """Copy a producer's output to its consumer, keeping a copy (tee)."""
    try:
        for chunk in iter(lambda: src.read(1 << 16), b""):
            sink.append(chunk)
            try:
                dst.write(chunk)
            except BrokenPipeError:
                pass
    finally:
        src.close()
        try:
            dst.close()
        except BrokenPipeError:
            pass


def _run_chain(chain, first_index: int, workdir: Path, env) -> list[StepResult]:
    """Start the steps of a pipe together and wait for each to exit."""
    procs, files, relays, sinks, timers, starts = [], [], [], [], [], []
    timed_out = [False] * len(chain)
    for j, step in enumerate(chain):
        stem = f"{first_index + j}.{step.command}"
        err = open(workdir / f"{stem}.err", "wb")
        files.append(err)
        if step.pipe:
            out = subprocess.PIPE
        else:
            out = open(workdir / f"{stem}.out", "wb")
            files.append(out)
        starts.append(time.perf_counter())
        proc = subprocess.Popen(
            [sys.executable, "-m", "coarselab.cli", *step.args],
            cwd=workdir,
            env=env,
            stdin=subprocess.PIPE if j > 0 else subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        procs.append(proc)

        def expire(j=j, proc=proc):
            timed_out[j] = True
            proc.kill()

        timer = threading.Timer(STEP_TIMEOUT_S, expire)
        timer.start()
        timers.append(timer)
        if j > 0:
            sink: list = []
            sinks.append(sink)
            t = threading.Thread(target=_relay, args=(procs[j - 1].stdout, proc.stdin, sink))
            t.start()
            relays.append(t)
    results = []
    try:
        for j, (step, proc) in enumerate(zip(chain, procs)):
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            timers[j].cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            results.append(
                StepResult(
                    command=step.command,
                    code=proc.returncode,
                    wall_s=end - starts[j],
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mb=usage.ru_maxrss / 1024.0,
                    error=f"timed out after {STEP_TIMEOUT_S:.0f} s" if timed_out[j] else None,
                )
            )
        for t in relays:
            t.join()
    finally:
        for timer in timers:
            timer.cancel()
        for proc in procs:
            if proc.returncode is None:  # only after an error in this process
                proc.kill()
                proc.wait()
        for f in files:
            f.close()
    for j, (step, r) in enumerate(zip(chain, results)):
        stem = f"{first_index + j}.{step.command}"
        if step.pipe:
            data = b"".join(sinks[j])
            (workdir / step.pipe).write_bytes(data)
        else:
            data = (workdir / f"{stem}.out").read_bytes()
        r.out = data.decode("utf-8", "replace")
        if r.code != 0 and r.error is None:
            detail = (workdir / f"{stem}.err").read_text("utf-8", "replace").strip()
            r.error = f"exit {r.code}: {detail[-300:]}"
    return results


def _chains(steps):
    """Split steps into pipes: a step with ``pipe`` joins the next one."""
    i = 0
    while i < len(steps):
        j = i
        while steps[j].pipe and j + 1 < len(steps):
            j += 1
        yield i, steps[i : j + 1]
        i = j + 1


def pin_to_one_cpu() -> int:
    """Run this process and every child on one CPU.  Neighbours on a
    shared host slow each CPU at its own times, so the probe tells the
    speed of the steps only when it runs where they do."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times a fixed piece of Python every PROBE_INTERVAL_S on a thread of
    this process: integer arithmetic, then hops through a shuffled list
    far larger than the caches.  The thread shares the one CPU with the
    steps, so each sample says how fast that CPU runs the interpreter and
    reaches memory at that moment; a step slowed by a busy host meets a
    slow probe.  It takes about 5% of the CPU, the same share in every run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self._hops = list(range(1 << 20))
        random.Random(0).shuffle(self._hops)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        # CPU time of this thread: the time slices the steps take from the
        # probe while it runs do not count, only how fast it ran
        start = time.thread_time()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        j = 0
        for _ in range(PROBE_HOPS):
            j = self._hops[j]
        self.samples.append((time.perf_counter(), time.thread_time() - start))

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, start: float, end: float) -> float:
        """Median probe time from ``start`` to ``end``; the latest sample
        before ``end`` when none fell inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            inside = [d for t, d in self.samples if t <= end][-1:]
        return statistics.median(inside)


def run_processes(steps, workdir: Path, env, probe: Optional[SpeedProbe] = None) -> Pass:
    """One pass; with a probe running, each chain records its speed."""
    results, chains = [], []
    for first, chain in _chains(steps):
        start = time.perf_counter()
        done = _run_chain(chain, first, workdir, env)
        end = time.perf_counter()
        probe_s = probe.during(start, end) if probe else float("nan")
        chains.append(Chain(end - start, sum(r.cpu_s for r in done), probe_s))
        for r in done:
            r.probe_s = probe_s
        results += done
    return Pass(sum(c.wall_s for c in chains), results, chains)


def setup_time(workdir: Path, env) -> float:
    """Wall time of the import every coarselab process pays."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import coarselab.cli"],
        cwd=workdir,
        env=env,
        check=True,
        timeout=STEP_TIMEOUT_S,
    )
    return time.perf_counter() - start


# -- running steps in this process ------------------------------------------------


def _call_main(argv, stdin: bytes, rec) -> tuple[int, str, Optional[str]]:
    import coarselab.cli as cli

    saved = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.StringIO()
    error = None
    try:
        if rec is None:
            code = cli.main(argv)
        else:
            code = rec.call(f"cli.{argv[0]}", cli.main, argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed step, not a failed benchmark
        code, error = 1, f"raised {e!r}"
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout = saved
    return code, out, error


def run_in_process(steps, workdir: Path, rec=None) -> Pass:
    """One pass through ``coarselab.cli.main``; spans go to ``rec`` if given.
    Group tables are parsed afresh by every step, and the wreath table
    cache is cleared, so no step reuses another's work."""
    from coarselab import poincare_lab

    table_cache = poincare_lab.wreath_indexed_group
    while not hasattr(table_cache, "cache_clear"):  # under a span wrapper
        table_cache = table_cache.__wrapped__
    results = []
    here = os.getcwd()
    os.chdir(workdir)
    start = time.perf_counter()
    try:
        stdin = b""
        for step in steps:
            table_cache.cache_clear()
            t0 = time.perf_counter()
            code, out, error = _call_main(list(step.args), stdin, rec)
            r = StepResult(step.command, code, time.perf_counter() - t0, out=out, error=error)
            if code != 0 and error is None:
                r.error = f"exit {code}"
            results.append(r)
            stdin = out.encode() if step.pipe else b""
            if step.pipe:
                (workdir / step.pipe).write_text(out)
    finally:
        os.chdir(here)
    return Pass(time.perf_counter() - start, results)


# -- checks and figures -----------------------------------------------------------


def check_pass(steps, run: Pass) -> int:
    """Check every artifact of a pass; returns the number of failed steps."""
    from workloads import CheckFailed

    for step, r in zip(steps, run.steps):
        if r.error is not None:
            continue
        try:
            step.check(r.out)
        except CheckFailed as e:
            r.error = str(e)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            r.error = f"{step.command}: malformed artifact ({e!r})"
    return run.failed


def label_rate(run: Pass) -> Optional[float]:
    """Attempts the label step reports per second of its wall time."""
    for r in run.steps:
        if r.command == "label" and r.error is None:
            match = re.search(r"^attempts: (\d+)$", r.out, re.M)
            if match:
                return int(match.group(1)) / r.wall_s
    return None


def another_pass_fits(durations: list[float], loop_start: float, seconds: float, started: float) -> bool:
    """At least one pass; then another only if a pass as long as the
    median one so far ends within ``seconds`` and before the deadline."""
    if not durations:
        return True
    now = time.perf_counter()
    expected = statistics.median(durations)
    return now + expected - loop_start <= seconds and now + expected - started <= RUN_DEADLINE_S


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "COARSE_LAB_THREADS": THREAD_PIN,
        "git_commit": commit,
    }


def report_failures(runs) -> tuple[int, int]:
    attempted = sum(len(r.steps) for r in runs)
    failed = sum(r.failed for r in runs)
    for run in runs:
        for r in run.steps:
            if r.error is not None:
                print(f"failed step {r.command}: {r.error}", file=sys.stderr)
    print(f"error_rate: {failed / attempted:.6g} fraction ({failed} of {attempted} steps)")
    return attempted, failed


# -- the two kinds of run ---------------------------------------------------------


def measure(steps, workdir: Path, root: Path, seconds: float, started: float) -> dict:
    env = child_env(root)
    print(f"pinned to cpu {pin_to_one_cpu()}")
    setup_time(workdir, env)  # warm-up
    setups = [setup_time(workdir, env) for _ in range(SETUP_SAMPLES)]
    runs = []
    loop_start = time.perf_counter()
    with SpeedProbe() as probe:
        while another_pass_fits([r.wall_s for r in runs], loop_start, seconds, started):
            run = run_processes(steps, workdir, env, probe)
            check_pass(steps, run)
            runs.append(run)
    samples = {
        "wall_ref": [r.wall_ref for r in runs],
        "cpu_ref": [r.cpu_ref for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [max(s.rss_mb for s in r.steps) for r in runs],
    }
    metrics = {}
    for name, unit in END_TO_END:
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit} (median, {spread(samples[name])})")
    raw = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [sum(c.cpu_s for c in r.chains) for r in runs],
        "probe_s": [d for _, d in probe.samples],
    }
    for name, values in raw.items():
        print(f"{name}: {statistics.median(values):.6g} s (median, {spread(values)})")
    rates = [x for x in map(label_rate, runs) if x is not None]
    if rates:
        print(f"attempts_per_s: {statistics.median(rates):.6g} 1/s (median, {spread(rates)})")
    for i, step in enumerate(steps):
        walls = [r.steps[i].wall_s for r in runs]
        refs = [r.steps[i].wall_s / r.steps[i].probe_s for r in runs]
        print(f"step {i} {' '.join(step.args)}: {statistics.median(walls):.4f} s, "
              f"{statistics.median(refs):.1f} ref")
    sizes = {p.name: p.stat().st_size for p in sorted(workdir.iterdir()) if p.suffix != ".err"}
    print("file bytes (inputs, artifacts, step output): " + json.dumps(sizes))
    attempted, failed = report_failures(runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace(steps, workdir: Path, root: Path, seconds: float, started: float, run_id: str):
    """Alternate plain and traced in-process passes; returns the result
    object and the set of per-layer metrics that fired."""
    import spans

    gc.collect()
    check_pass(steps, run_in_process(steps, workdir))  # warm-up: lazy imports, first calls
    plain, traced, recorders = [], [], []
    loop_start = time.perf_counter()
    pairs: list[float] = []
    while another_pass_fits(pairs, loop_start, seconds, started):
        gc.collect()
        run = run_in_process(steps, workdir)
        check_pass(steps, run)
        plain.append(run)
        gc.collect()
        rec = spans.Recorder(run_id)
        restore = spans.install(rec)
        try:
            run = run_in_process(steps, workdir, rec)
        finally:
            restore()
        check_pass(steps, run)
        traced.append(run)
        recorders.append(rec)
        pairs.append(plain[-1].wall_s + run.wall_s)
    values = [spans.layer_values(rec) for rec in recorders]
    fired = set().union(*values)
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    extra = {"trace.overhead_s": overhead}
    rates = [x for x in map(label_rate, plain) if x is not None]
    if rates:
        extra["attempts_per_s"] = statistics.median(rates)
    fired |= set(extra)
    metrics = {}
    for m in spans.METRICS:
        value = extra.get(m.name, statistics.median(v.get(m.name, 0.0) for v in values))
        metrics[m.name] = {"value": value, "unit": m.unit}
    print(f"traced passes: {len(traced)}, plain passes: {len(plain)}, spans: {len(recorders[-1].spans)}")
    out = root / ".perfbench" / f"spans-{workdir.name}.json"
    out.write_text(json.dumps([rec.to_json() for rec in recorders]))
    print(f"spans written to {out.relative_to(root)}")
    attempted, failed = report_failures(plain + traced)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, fired


def main(argv=None) -> int:
    from_here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "coarselab" / "cli.py").is_file():
        print("perfbench: no coarselab sources in ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ["COARSE_LAB_THREADS"] = THREAD_PIN
    sys.path[:0] = [str(root / "src"), str(from_here)]
    import coarselab.cli  # noqa: F401  # pins BLAS threads here before numpy loads

    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        steps = WORKLOADS[args.workload](workdir, args.seed, FULL)
        print("env: " + json.dumps(environment(root), sort_keys=True))
        print(f"workload: {args.workload}, seed: {args.seed}, steps: {len(steps)}")
        if args.trace:
            run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}"
            result, _ = trace(steps, workdir, root, args.seconds, started, run_id)
        else:
            result = measure(steps, workdir, root, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
