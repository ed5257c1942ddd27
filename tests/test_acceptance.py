"""Acceptance suite.

Each test function covers one numbered criterion (criterion 2 is split per
guarantee) and prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see the lines, or rely on the test outcomes.
Every comparison is exact rational arithmetic; there are no tolerances to
calibrate.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest

import choreshare as cs
import component_search
from choreshare import lp
from choreshare.cli import main as cli_main
from conftest import agent_values, oracle_alpha, oracle_wmms, suite_instances

F = Fraction
EPS = F(1, 100)
LINPRO_FACTOR = 4 + EPS


def _report(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _ceil_log2(x: Fraction) -> int:
    k = 0
    while (1 << k) * x.denominator < x.numerator:
        k += 1
    return k


@pytest.fixture(scope="module")
def suite() -> list[tuple[str, cs.Instance]]:
    corpus = suite_instances()
    assert len(corpus) >= 200
    return corpus


@pytest.fixture(scope="module")
def linpro_runs(suite) -> dict[str, lp.LinProResult]:
    return {name: lp.linpro(inst, EPS) for name, inst in suite}


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_table1_values(table1):
    started = time.perf_counter()
    res = cs.exact_wmms(table1)
    alpha = cs.exact_owmms(table1, res.wmms)
    elapsed = time.perf_counter() - started
    ok = (
        res.wmms == (F(-1, 4), F(-3, 4))
        and cs.fairness_report(table1, cs.Allocation(2, (0, 1, 1, 1)), res.wmms).worst_ratio() <= F(1)
        and alpha.alpha_star == F(1)
        and elapsed < 1.0
    )
    _report("criterion 1: table-1 WMMS (-1/4, -3/4), witness at alpha=1, alpha*=1", ok)


def test_criterion_1_table2_values(table2):
    started = time.perf_counter()
    res = cs.exact_wmms(table2)
    alpha = cs.exact_owmms(table2, res.wmms)
    probe = F(4, 3) - F(1, 1000)
    nothing_below = all(
        cs.fairness_report(table2, cs.Allocation(2, owners), res.wmms).worst_ratio() > probe
        for owners in product(range(2), repeat=2)
    )
    elapsed = time.perf_counter() - started
    ok = (
        res.wmms == (F(-3, 4), F(-1, 3))
        and alpha.alpha_star == F(4, 3)
        and alpha.witness.owner == (0, 0)
        and nothing_below
        and elapsed < 1.0
    )
    _report(
        "criterion 1: table-2 WMMS (-3/4, -1/3), alpha*=4/3 exactly, "
        "nothing verifies at 4/3 - 1/1000",
        ok,
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_egal_greedy_identical(suite):
    ok = True
    for _, inst in suite:
        identical = cs.Instance(inst.shares, (inst.values[0],) * inst.n)
        alloc = cs.egal_greedy(identical.shares, identical.values[0])
        wmms = oracle_wmms(identical).wmms
        ok = ok and all(
            value >= 2 * wmms[i]
            for i, value in enumerate(agent_values(identical, alloc))
        )
    _report(
        f"criterion 2: egal-greedy within factor 2 on {len(suite)} "
        "identical-valuation instances",
        ok,
    )


def test_criterion_2_egal_greedy_uniform_exact(suite):
    ok = True
    seen = set()
    for _, inst in suite:
        uniform = cs.Instance(inst.shares, ((F(-1, inst.m),) * inst.m,) * inst.n)
        if uniform in seen:
            continue
        seen.add(uniform)
        alloc = cs.egal_greedy(uniform.shares, uniform.values[0])
        wmms = oracle_wmms(uniform).wmms
        ok = ok and all(
            value >= wmms[i] for i, value in enumerate(agent_values(uniform, alloc))
        )
    _report(
        f"criterion 2: egal-greedy exact on {len(seen)} uniform-value instances", ok
    )


def test_criterion_2_wmms_prime_bracket(suite):
    ok = True
    for _, inst in suite:
        wmms = oracle_wmms(inst).wmms
        for prime, exact in zip(cs.wmms_prime(inst), wmms):
            ok = ok and 2 * exact <= prime <= exact
    _report(
        f"criterion 2: wmms-prime within [2*WMMS, WMMS] on {len(suite)} instances", ok
    )


def test_criterion_2_linpro_bound_and_search(suite, linpro_runs):
    bound_ok = True
    search_ok = True
    for name, inst in suite:
        result = linpro_runs[name]
        wmms = oracle_wmms(inst).wmms
        alpha = oracle_alpha(inst).alpha_star
        floor = [LINPRO_FACTOR * alpha * w for w in wmms]
        bound_ok = bound_ok and all(
            value >= floor[i]
            for i, value in enumerate(agent_values(inst, result.allocation))
        )
        search_ok = (
            search_ok
            and result.c_final - result.lower <= EPS / 4
            and result.iterations <= _ceil_log2(4 * (inst.n - 1) / EPS)
        )
    _report(
        f"criterion 2: linpro meets (4+eps)*alpha**WMMS on {len(suite)} instances",
        bound_ok,
    )
    _report(
        "criterion 2: linpro search gap <= eps/4 and iterations within "
        "ceil(log2(4(n-1)/eps))",
        search_ok,
    )


def test_criterion_2_divcho_bound(suite):
    ok = True
    ran = 0
    skipped = 0
    for _, inst in suite:
        if inst.n != 2:
            continue
        try:
            alloc = cs.divide_and_choose(inst)
        except cs.NormalizationImpossible:
            # all-zero rows are outside the protocol's contract
            skipped += 1
            assert any(inst.row_total(i) == 0 for i in range(2))
            continue
        ran += 1
        wmms = oracle_wmms(inst).wmms
        ok = ok and all(
            value >= F(3, 2) * wmms[i]
            for i, value in enumerate(agent_values(inst, alloc))
        )
    _report(
        f"criterion 2: div-cho within 3/2 on {ran} two-agent instances "
        f"({skipped} zero-row instances outside its domain)",
        ok and ran >= 80,
    )


def test_criterion_2_binary_exact(suite):
    ok = True
    ran = 0
    for name, inst in suite:
        if not name.startswith("binary"):
            continue
        ran += 1
        alloc = cs.binary_wmms(inst)
        wmms = oracle_wmms(inst).wmms
        ok = ok and all(
            value >= wmms[i] for i, value in enumerate(agent_values(inst, alloc))
        )
    _report(f"criterion 2: binary allocator exact on {ran} binary instances", ok)


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_lp_structure(suite, linpro_runs):
    ok = True
    for name, inst in suite:
        result = linpro_runs[name]
        ok = ok and len(result.point) <= inst.n + inst.m
        ok = ok and component_search.is_pseudoforest(result.point)
        ok = ok and sorted(
            j for b in result.allocation.bundles() for j in b
        ) == list(range(inst.m))
        for i, bundle in enumerate(result.allocation.bundles()):
            got = cs.bundle_value(inst, i, bundle)
            ok = ok and got >= 2 * result.program.thresholds[i]
        refs = result.references
        at_c = lp.check_feasible(lp.build_program(inst, result.c_final, refs))
        above = lp.check_feasible(lp.build_program(inst, result.c_final + 1, refs))
        at_n = lp.check_feasible(lp.build_program(inst, F(inst.n), refs))
        ok = ok and at_c is not None and above is not None and at_n is not None
    _report(
        "criterion 3: extreme points <= n+m nonzeros, pseudoforest supports, "
        "doubled floors met, each chore assigned once, feasibility monotone, "
        "c=n feasible",
        ok,
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_min_feasible_c_lower_bounds_alpha(suite):
    ok = True
    for _, inst in suite:
        wmms = oracle_wmms(inst).wmms
        ok = ok and lp.min_feasible_c(inst, wmms) <= oracle_alpha(inst).alpha_star
    _report(
        f"criterion 4: minimal feasible c <= alpha* on {len(suite)} instances", ok
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_round_robin_family():
    # closed-form references (negated normalized shares) confirmed against the
    # enumeration oracle at n=3, the largest size inside the default budget
    n3 = cs.round_robin_family(3)
    confirmed = oracle_wmms(n3).wmms == cs.round_robin_family_references(3)
    ratios = []
    for n in (3, 4, 5):
        inst = cs.round_robin_family(n)
        refs = cs.round_robin_family_references(n)
        alloc = cs.round_robin(inst)
        ratios.append(cs.bundle_value(inst, 0, alloc.bundles()[0]) / refs[0])
    ok = (
        confirmed
        and ratios == [F(7), F(39), F(311)]
        and ratios[0] < ratios[1] < ratios[2]
        and ratios[1] > 5
    )
    _report(
        "criterion 5: round-robin family worst ratios strictly increase "
        f"({ratios[0]}, {ratios[1]}, {ratios[2]}) and exceed 5 at n=4",
        ok,
    )


def test_criterion_5_multiplicative_greedy_table3():
    inst = cs.paper_table(3, F(1, 10))
    alloc = cs.multiplicative_greedy(inst)
    wmms = oracle_wmms(inst).wmms
    ratio = cs.fairness_report(inst, alloc, wmms).agents[0].ratio
    _report(
        f"criterion 5: multiplicative greedy on table 3 gives agent-0 ratio {ratio} >= 5",
        ratio == F(9) and ratio >= 5,
    )


def test_criterion_5_additive_greedy_table5():
    inst = cs.paper_table(5, F(1, 10))
    alloc = cs.additive_greedy(inst)
    _report(
        "criterion 5: additive greedy on table 5 hands chore 0 to agent 0",
        alloc.owner[0] == 0,
    )


# ---------------------------------------------------------------- criterion 6


def _capture_cli(capsys, *argv) -> str:
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def test_criterion_6_determinism(suite, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    cs.save_instance(cs.paper_table(2), inst_path)
    solve_args = ("solve", str(inst_path), "div-cho", "--oracle", "--trace")
    bench_args = (
        "bench",
        "random:n=2,m=5,count=3",
        "--algs",
        "naive,div-cho,linpro,mult-greedy",
        "--oracle",
    )
    solve_same = _capture_cli(capsys, *solve_args) == _capture_cli(capsys, *solve_args)
    bench_same = _capture_cli(capsys, *bench_args) == _capture_cli(capsys, *bench_args)

    algs_same = True
    name, inst = suite[7]
    for run in (
        cs.naive,
        cs.round_robin,
        cs.multiplicative_greedy,
        cs.additive_greedy,
    ):
        t_a: list[cs.TraceEvent] = []
        t_b: list[cs.TraceEvent] = []
        algs_same = algs_same and run(inst, trace=t_a) == run(inst, trace=t_b)
        algs_same = algs_same and t_a == t_b
    algs_same = algs_same and lp.linpro(inst, EPS) == lp.linpro(inst, EPS)
    _report(
        "criterion 6: solve, bench and every algorithm byte-identical across reruns",
        solve_same and bench_same and algs_same,
    )
