import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import choreshare
from choreshare.cli import console_main

SRC = Path(__file__).resolve().parents[1] / "src"

# The 61 public names of the package, one per definition imported in
# ``choreshare/__init__.py``.
PUBLIC_NAMES = {
    "AgentReport", "Allocation", "AssignmentGraph", "BudgetExceeded",
    "ChoreShareError", "DEFAULT_BUDGET", "FairnessReport", "Instance", "LPPoint",
    "LPProgram", "LinProResult", "NoFeasibleAllocation", "NoIntegralM",
    "NormalizationImpossible", "NotBinary", "OracleResult", "OwmmsResult",
    "ParameterInconsistent", "ParseError", "RoundingInvariantViolation",
    "SubsetBudgetExceeded", "TraceEvent", "Unbounded", "UpperBoundInfeasible",
    "additive_greedy", "binary_wmms", "build_assignment_graph", "build_program",
    "bundle_value", "check_budget", "check_feasible", "divide_and_choose",
    "egal_greedy", "egal_greedy_failure_family", "exact_makespan_f", "exact_owmms",
    "exact_wmms", "fairness_report", "format_ratio", "linpro", "load_instance",
    "min_feasible_c", "multiplicative_greedy", "naive", "normalize_instance",
    "paper_table", "parse_instance", "parse_ratio", "random_instance",
    "replay_trace", "round_extreme_point", "round_robin", "round_robin_family",
    "round_robin_family_references", "save_instance", "serialize_instance",
    "unfairness_degree", "validate_allocation", "validate_instance",
    "verify_alpha", "wmms_prime",
}


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from choreshare import *", namespace)
    namespace.pop("__builtins__")
    assert len(PUBLIC_NAMES) == 61
    assert set(namespace) == PUBLIC_NAMES
    assert not any(isinstance(obj, types.ModuleType) for obj in namespace.values())
    assert all(getattr(choreshare, name) is obj for name, obj in namespace.items())


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "choreshare", "gen", "table2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == choreshare.serialize_instance(choreshare.paper_table(2))


def test_console_main_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["choreshare", "gen", "table2"])
    with pytest.raises(SystemExit) as excinfo:
        console_main()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == choreshare.serialize_instance(choreshare.paper_table(2))
