"""choreshare benchmark: one client in a closed loop, in-process calls.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --write-golden

Each instance is one ``choreshare.cli.main(argv)`` call, issued only
after the previous one finished.  The program is imported from ``src/`` of
the checkout holding this file.  Every output, owner vectors included, is
checked: against ``perfbench/golden`` for the default seed 0 and for inputs
that do not depend on the seed, structurally (untimed) for any other seed,
and against the first call of the same instance when the cycle repeats it.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Times are scaled to the reference speed of ``calibration.py``: the
calibration kernel runs before and after every timed call and setup, and
each time is multiplied by ``REF_KERNEL_MS`` over the mean of the kernel's
times on either side of it.  The unscaled end-to-end figures go to the
metadata line and the result file.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: import, instance generation, document writing and golden
  loading, repeated SETUP_REPEATS times, each from a collected heap and an
  empty document directory; the median.
* ``instances_per_s``: instances that passed their checks divided by the
  summed (scaled) wall time of the timed calls.
* ``instance_ms.p50`` / ``cpu_ms.p50``: median wall / process-CPU time per
  instance.
* ``instance_ms.tail``: the highest percentile with at least ten samples
  beyond it (the 11th-largest time); the percentile and the sample count
  go to the metadata line and the result file.
* ``peak_rss_mb``: peak resident memory of the process (getrusage).
* ``ok_ratio``: instances that passed their checks / instances attempted.

``--trace 1`` runs every instance twice, once with the tracer of
``tracing.py`` installed and once without, alternating which comes first,
and prints the per-layer metrics: self times in ms per traced instance,
counts per instance over the first round (they must repeat exactly; a run
compares them with every earlier run of the same source and seed), and
``trace.overhead_pct``, the traced calls' extra wall time.

The last line of stdout is the JSON result; spans and a full result file
(with, per call, wall and CPU seconds and the kernel's times around it)
are written under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
GOLDEN = ROOT / "perfbench" / "golden"
MODULES = ("cli", "serialization", "model", "generators", "algorithms", "lp", "simplex", "oracle")
SETUP_REPEATS = 7
SETUP_CALIBRATIONS = 3  # kernel runs on each side of a setup, which is short
TAIL_BEYOND = 10

sys.path.insert(0, str(ROOT))
from perfbench import calibration, tracing  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_ms.p50": "ms",
    "instance_ms.tail": "ms",
    "cpu_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    **{name: "ms" for name in tracing.TIME_METRICS},
    **tracing.COUNT_METRICS,
    "lp.feasible_ratio": "ratio",
    "lp.vars_per_probe": "count",
    "oracle.ns_per_vector": "ns",
    "generators.setup_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, no golden file)."""


def load_program() -> SimpleNamespace:
    """Import choreshare afresh from this checkout's ``src/``."""
    package_dir = SRC / "choreshare"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no choreshare package under {SRC}")
    for name in [n for n in sys.modules if n == "choreshare" or n.startswith("choreshare.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("choreshare")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported choreshare from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"choreshare.{m}") for m in MODULES})


def golden_path(workload) -> Path:
    return GOLDEN / f"{workload.name}.json"


def setup(workload, seed: int, tracer=None, load_golden: bool = True):
    """Everything before the first timed call; returns (program, items, golden, seconds).

    The documents are written afresh into an emptied directory (emptied
    untimed): overwriting files costs more than creating them, and by a
    varying amount.
    """
    docdir = WORK / "docs" / f"{workload.name}-s{seed}"
    shutil.rmtree(docdir, ignore_errors=True)
    started = time.perf_counter()
    prog = load_program()
    if tracer is not None:
        tracer.instance = "setup"
        tracer.install(prog)
    try:
        docdir.mkdir(parents=True)
        items = workload.items(prog, seed, docdir)
    finally:
        if tracer is not None:
            tracer.restore()
    golden = None
    if load_golden:
        try:
            golden = json.loads(golden_path(workload).read_text())["records"]
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"cannot read golden outputs: {exc}") from None
    return prog, items, golden, time.perf_counter() - started


class Checker:
    """Checks every call's output and keeps the failures.

    The golden records hold the default seed's outputs; they apply to every
    item of that seed and to the seed-free items of any seed.
    """

    def __init__(self, workload, prog, golden, seed: int):
        self.workload, self.prog, self.golden = workload, prog, golden
        self.all_golden = seed == DEFAULT_SEED
        self.seen: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.failures: list[tuple[str, str]] = []

    def check(self, item, out) -> bool:
        self.attempted += 1
        record = self.workload.record(item, out)
        if self.all_golden or item.seed_free:
            expected = self.golden.get(item.id)
            problems = ["no golden record"] if expected is None else [] if record == expected else ["output differs from golden"]
        elif item.id in self.seen:
            problems = [] if record == self.seen[item.id] else ["output differs from the first call"]
        else:
            problems = self.workload.problems(self.prog, item, out)
            if not problems:
                self.seen[item.id] = record
        if problems:
            self.failed += 1
            self.failures += [(item.id, p) for p in problems]
        return not problems

    def fail(self, item_id: str, problem: str) -> None:
        """A failure found after the calls (counts that did not repeat)."""
        self.failed += 1
        self.failures.append((item_id, problem))


class Call(NamedTuple):
    index: int  # position in the run; index % len(items) is the item
    wall_s: float
    cpu_s: float
    passed: bool
    traced: bool
    stdout_bytes: int
    calib_before: tuple[float, float]  # calibration kernel (wall, CPU) s before the call
    calib_after: tuple[float, float]  # and after it


def scales(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU scale factors from calibration runs around a measurement."""
    ref_s = calibration.REF_KERNEL_MS / 1000
    return 2 * ref_s / (before[0] + after[0]), 2 * ref_s / (before[1] + after[1])


def timed_call(workload, prog, item):
    wall, cpu = time.perf_counter(), time.process_time()
    out = workload.call(prog, item)
    return time.perf_counter() - wall, time.process_time() - cpu, out


def measure(workload, prog, items, checker, seconds: float, tracer=None):
    """The closed loop; stops on a round boundary once ``seconds`` have passed."""
    calls = []
    started = time.perf_counter()
    min_items = workload.round if tracer is not None else TAIL_BEYOND + 1
    i = 0
    while True:
        item = items[i % len(items)]
        for traced in ((i % 2 == 0, i % 2 == 1) if tracer is not None else (False,)):
            if traced:
                tracer.instance = i
                tracer.install(prog)
            before = calibration.measure()
            try:
                wall, cpu, out = timed_call(workload, prog, item)
            finally:
                if traced:
                    tracer.restore()
            after = calibration.measure()
            passed = checker.check(item, out)
            calls.append(Call(i, wall, cpu, passed, traced, len(out.stdout), before, after))
        i += 1
        if i % workload.round == 0 and i >= min_items and time.perf_counter() - started >= seconds:
            return calls


def timing_metrics(setup_s: list[float], walls_ms: list[float], cpus_ms: list[float], passed: int) -> dict:
    walls = sorted(walls_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "instances_per_s": passed / (sum(walls) / 1000),
        "instance_ms.p50": statistics.median(walls),
        "instance_ms.tail": walls[max(len(walls) - TAIL_BEYOND - 1, 0)],
        "cpu_ms.p50": statistics.median(cpus_ms),
    }


def end_to_end(setups: list[tuple[float, float]], calls, checker) -> tuple[dict, dict]:
    """``setups`` holds (seconds, wall scale) per setup."""
    passed = sum(1 for c in calls if c.passed)
    call_scales = [scales(c.calib_before, c.calib_after) for c in calls]
    values = timing_metrics(
        [s * scale for s, scale in setups],
        [c.wall_s * w * 1000 for c, (w, _) in zip(calls, call_scales)],
        [c.cpu_s * u * 1000 for c, (_, u) in zip(calls, call_scales)],
        passed,
    )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_ratio"] = passed / checker.attempted
    raw = timing_metrics([s for s, _ in setups], [c.wall_s * 1000 for c in calls], [c.cpu_s * 1000 for c in calls], passed)
    k = max(len(calls) - TAIL_BEYOND - 1, 0)
    context = {
        "samples": len(calls),
        "tail_percentile": 100 * (k + 1) / len(calls),
        "setup_samples_s": [s for s, _ in setups],
        "unscaled": raw,
        "speed_vs_reference": statistics.median(1 / w for w, _ in call_scales),
    }
    return values, context


def window_counts(spans, calls, instances) -> dict[str, float]:
    """Counts per instance over the given instance indexes."""
    chosen = [s for s in spans if s.instance in instances]
    total = tracing.counts(chosen)
    total["cli.bytes_out"] = sum(c.stdout_bytes for c in calls if c.traced and c.index in instances)
    return total


def per_layer(workload, tracer, calls, setup_scale: float, cycle: int, code_digest: str, seed: int, checker) -> tuple[dict, dict]:
    """Self times are scaled like the end-to-end times, by the wall scale of
    the call (or setup) they belong to."""
    loop_spans = [s for s in tracer.spans if s.instance != "setup"]
    traced = sorted(c.index for c in calls if c.traced)
    wall_scale = {c.index: scales(c.calib_before, c.calib_after)[0] for c in calls if c.traced}
    self_ns = tracing.self_times_ns(tracer.spans)
    busy_ns: dict[str, float] = {}
    for s in loop_spans:
        busy_ns[s.info["metric"]] = busy_ns.get(s.info["metric"], 0) + self_ns[s.id] * wall_scale[s.instance]
    values = {name: busy_ns.get(name, 0) / 1e6 / len(traced) for name in tracing.TIME_METRICS}

    # Counts come from the first round only, so they do not depend on how
    # many instances fit in the run; each instance must also repeat its own.
    window = set(traced[: workload.round])
    counts = window_counts(loop_spans, calls, window)
    for name in tracing.COUNT_METRICS:
        values[name] = counts[name] / len(window)
    values["lp.feasible_ratio"] = counts["lp.feasible_probes"] / counts["lp.probes"] if counts["lp.probes"] else 0.0
    values["lp.vars_per_probe"] = counts["lp.probe_vars"] / counts["lp.probes"] if counts["lp.probes"] else 0.0

    by_item: dict[int, dict] = {}
    for i in traced:
        item_counts = window_counts(loop_spans, calls, {i})
        if by_item.setdefault(i % cycle, item_counts) != item_counts:
            checker.fail(f"instance {i}", "counts differ from an earlier call of the same instance")
    stored = WORK / "counters" / f"{workload.name}-s{seed}-{code_digest[:16]}.json"
    if stored.exists():
        if json.loads(stored.read_text()) != counts:
            checker.fail("counters", f"counts differ from an earlier run of the same source ({stored.name})")
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(counts, sort_keys=True) + "\n")

    all_counts = window_counts(loop_spans, calls, set(traced))
    oracle_ns = busy_ns.get("oracle.wmms_ms", 0) + busy_ns.get("oracle.owmms_ms", 0)
    values["oracle.ns_per_vector"] = oracle_ns / all_counts["oracle.vectors"] if all_counts["oracle.vectors"] else 0.0
    values["generators.setup_ms"] = setup_scale * sum(
        self_ns[s.id] for s in tracer.spans if s.instance == "setup" and s.info["metric"] == "generators.ms"
    ) / 1e6
    traced_s = sum(c.wall_s * scales(c.calib_before, c.calib_after)[0] for c in calls if c.traced)
    untraced_s = sum(c.wall_s * scales(c.calib_before, c.calib_after)[0] for c in calls if not c.traced)
    values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    return values, {"traced_instances": len(traced), "window": sorted(window), "window_counts": counts}


def src_stats() -> tuple[int, str, str]:
    """Line count and digest of the program's sources, and a digest of those
    sources together with the benchmark's own code (which keys stored counts)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "choreshare").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    src_digest = digest.hexdigest()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return lines, src_digest, digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_seconds() -> float:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no --seconds and no run_seconds in BENCHMARK.json: {exc}") from None


def write_golden(workload) -> int:
    prog, items, _, _ = setup(workload, DEFAULT_SEED, load_golden=False)
    records, problems = {}, []
    for item in items:
        out = workload.call(prog, item)
        problems += [f"{item.id}: {p}" for p in workload.problems(prog, item, out)]
        records[item.id] = workload.record(item, out)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    GOLDEN.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload.name, "seed": DEFAULT_SEED, "records": records}
    golden_path(workload).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {golden_path(workload).relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="record the default seed's outputs")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.seconds is None and not args.write_golden:
            args.seconds = run_seconds()
        if args.write_golden:
            return write_golden(workload)
        tracer = tracing.Tracer() if args.trace else None
        setups = []
        for _ in range(1 if tracer is not None else SETUP_REPEATS):
            # Each setup starts from a collected heap, as the first one does.
            gc.collect()
            before = calibration.measure(SETUP_CALIBRATIONS)
            prog, items, golden, elapsed = setup(workload, args.seed, tracer)
            setups.append((elapsed, scales(before, calibration.measure(SETUP_CALIBRATIONS))[0]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    checker = Checker(workload, prog, golden, args.seed)
    calls = measure(workload, prog, items, checker, args.seconds, tracer)
    src_lines, src_digest, code_digest = src_stats()
    if tracer is None:
        metrics, context = end_to_end(setups, calls, checker)
        units = END_TO_END
    else:
        metrics, context = per_layer(workload, tracer, calls, setups[0][1], len(items), code_digest, args.seed, checker)
        units = PER_LAYER
        spans_file = WORK / "spans" / f"{workload.name}-s{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps([[s.id, s.name, s.start_ns, s.end_ns, s.parent, s.instance] for s in tracer.spans]))

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines,
        "src_sha256": src_digest,
        "golden": checker.all_golden,
        "computed": list(tracing.COMPUTED) if tracer is not None else [],
        **context,
    }
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_file = WORK / "results" / f"{workload.name}-s{args.seed}-trace{args.trace}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps({"meta": meta, "failures": checker.failures, **result, "calls": [[c.wall_s, c.cpu_s, c.calib_before, c.calib_after] for c in calls]}, indent=1) + "\n")

    for item_id, problem in checker.failures[:20]:
        print(f"perfbench: FAILED {item_id}: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}" + (" (computed)" if name in tracing.COMPUTED else ""))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
