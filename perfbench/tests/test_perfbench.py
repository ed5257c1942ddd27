"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _docs(workload, seed):
    _, items, _, _ = run.setup(workload, seed, load_golden=False)
    docdir = run.WORK / "docs" / f"{workload.name}-s{seed}"
    return [(item.id, item.argv, (docdir / f"{item.id}.json").read_bytes()) for item in items if item.inst is not None]


def test_seed_always_generates_the_same_documents():
    for workload in WORKLOADS.values():
        first = _docs(workload, 4242)
        assert first and _docs(workload, 4242) == first
        assert [doc for *_, doc in _docs(workload, 4243)] != [doc for *_, doc in first]


def test_tracer_restores_every_original_function():
    prog = run.load_program()
    originals = [(module, name, getattr(module, name)) for module, name, *_ in tracing.wrapped_functions(prog)]
    assert {name for _, name, _ in originals} >= {"main", "linpro", "feasible_basic_point", "exact_wmms", "random_instance"}
    tracer = tracing.Tracer()
    tracer.install(prog)
    assert all(getattr(module, name) is not fn for module, name, fn in originals)
    prog.lp.linpro(prog.generators.random_instance(3, 6, 1), Fraction(1, 10))
    tracer.restore()
    assert all(getattr(module, name) is fn for module, name, fn in originals)
    names = {s.name for s in tracer.spans}
    assert {"lp.linpro", "lp.check_feasible", "simplex.feasible_basic_point", "generators.random_instance"} <= names
    counts = tracing.counts(tracer.spans)
    assert counts["lp.probes"] > 0 and counts["lp.redundant_solves"] == 1


def _first_item(workload, seed, predicate=lambda item: True):
    prog, items, golden, _ = run.setup(workload, seed)
    return prog, next(item for item in items if predicate(item)), golden


def test_corrupted_outputs_count_as_failures():
    for name, predicate in (
        ("linpro-solve", lambda item: True),
        ("greedy-scale", lambda item: item.inst is None),
    ):
        workload = WORKLOADS[name]
        prog, item, golden = _first_item(workload, DEFAULT_SEED, predicate)
        out = workload.call(prog, item)
        assert run.Checker(workload, prog, golden, DEFAULT_SEED).check(item, out)
        assert not workload.problems(prog, item, out)
        if name == "linpro-solve":
            doc = json.loads(out.stdout)
            doc["owner"][0] = (doc["owner"][0] + 1) % item.inst.n
            bad = dataclasses.replace(out, stdout=json.dumps(doc, indent=2).encode() + b"\n")
        else:
            bad = dataclasses.replace(out, stdout=out.stdout.replace(b"round-robin", b"round-robin2"))
        checker = run.Checker(workload, prog, golden, DEFAULT_SEED)
        assert not checker.check(item, bad)
        assert checker.failed == 1 and checker.failures
        assert workload.problems(prog, item, bad)


def _swap_owners(out, alg):
    """The same output with two chores of different owners exchanged in ``alg``'s allocation."""
    allocations = []
    for inst, name, alloc in out.allocations:
        if name == alg:
            owner = list(alloc.owner)
            a = 0
            b = next(j for j in range(len(owner)) if owner[j] != owner[a])
            owner[a], owner[b] = owner[b], owner[a]
            alloc = dataclasses.replace(alloc, owner=tuple(owner))
        allocations.append((inst, name, alloc))
    return dataclasses.replace(out, allocations=allocations)


def test_corrupted_picker_allocation_counts_as_failure():
    """A wrong allocation behind an unchanged table is caught on the golden
    seed (owner digests) and on any other seed (the picking rules)."""
    workload = WORKLOADS["greedy-scale"]
    for seed in (DEFAULT_SEED, 4242):
        prog, item, golden = _first_item(workload, seed, lambda item: item.inst is not None)
        out = workload.call(prog, item)
        assert run.Checker(workload, prog, golden, seed).check(item, out), seed
        for alg in ("round-robin", "mult-greedy", "add-greedy"):
            bad = _swap_owners(out, alg)
            assert bad.stdout == out.stdout
            checker = run.Checker(workload, prog, golden, seed)
            assert not checker.check(item, bad), (seed, alg)
            assert checker.failed == 1
            assert any("differs from the picking rule" in p for p in workload.problems(prog, item, bad))
        inst, alg, alloc = out.allocations[0]
        broken = dataclasses.replace(alloc, owner=(inst.n,) + tuple(alloc.owner[1:]))
        bad = dataclasses.replace(out, allocations=[(inst, alg, broken)] + out.allocations[1:])
        assert any("not a partition" in p for p in workload.problems(prog, item, bad))
        missing = dataclasses.replace(out, allocations=out.allocations[1:])
        assert workload.problems(prog, item, missing)


def test_times_are_scaled_by_the_calibration_around_them():
    """A call timed while the kernel ran twice as slow as the reference
    counts half its wall time; setups are scaled the same way."""
    ref = run.calibration.REF_KERNEL_MS / 1000
    fast, slow = (ref, ref), (2 * ref, 2 * ref)
    calls = [run.Call(0, 0.4, 0.4, True, False, 0, slow, slow), run.Call(1, 0.2, 0.2, True, False, 0, fast, fast)]
    checker = run.Checker(WORKLOADS["oracle-certify"], None, {}, DEFAULT_SEED)
    checker.attempted = 2
    values, context = run.end_to_end([(0.3, run.scales(slow, fast)[0])], calls, checker)
    assert values["instance_ms.p50"] == pytest.approx(200) and values["cpu_ms.p50"] == pytest.approx(200)
    assert values["instances_per_s"] == pytest.approx(5) and values["setup_s"] == pytest.approx(0.2)
    assert context["unscaled"]["instance_ms.p50"] == pytest.approx(300)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "oracle-certify", "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _run("--workload", "greedy-scale", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
