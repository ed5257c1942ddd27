import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import choreshare
from choreshare.cli import console_main, main

SRC = Path(__file__).resolve().parents[1] / "src"

# The 52 public names of the package, one per definition imported in
# ``choreshare/__init__.py``.
PUBLIC_NAMES = {
    "AgentReport", "Allocation", "BudgetExceeded",
    "ChoreShareError", "DEFAULT_BUDGET", "FairnessReport", "Instance",
    "LPProgram", "LinProResult", "NoFeasibleAllocation", "NoIntegralM",
    "NormalizationImpossible", "NotBinary", "OracleResult", "OwmmsResult",
    "ParameterInconsistent", "ParseError", "RoundingInvariantViolation",
    "TraceEvent", "Unbounded", "UpperBoundInfeasible",
    "additive_greedy", "binary_wmms", "build_program",
    "bundle_value", "check_budget", "check_feasible", "divide_and_choose",
    "egal_greedy", "egal_greedy_failure_family", "exact_owmms", "exact_wmms",
    "fairness_report", "format_ratio", "linpro", "load_instance",
    "min_feasible_c", "multiplicative_greedy", "naive",
    "paper_table", "parse_instance", "parse_ratio", "random_instance",
    "round_extreme_point", "round_robin", "round_robin_family",
    "round_robin_family_references", "save_instance", "serialize_instance",
    "validate_allocation", "validate_instance", "wmms_prime",
}


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from choreshare import *", namespace)
    namespace.pop("__builtins__")
    assert len(PUBLIC_NAMES) == 52
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


README = (SRC.parent / "README.md").read_text(encoding="utf-8")


def _readme_block(heading: str, language: str) -> str:
    """The body of the first ``language`` code block after ``heading`` in README.md."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


# README's Examples block as (command, the comment under it), and a check on
# the command's stdout that the comment holds.
README_EXAMPLES = [
    ("choreshare gen table2 -o table2.json", "", lambda out: out == ""),
    (
        "choreshare oracle table2.json",
        "wmms: -3/4 -1/3 ... alpha-star: 4/3",
        lambda out: {"wmms: -3/4 -1/3", "alpha-star: 4/3"} <= set(out.splitlines()),
    ),
    (
        "choreshare solve table2.json div-cho --oracle",
        "worst-ratio: 4/3",
        lambda out: "worst-ratio: 4/3" in out.splitlines(),
    ),
    (
        "choreshare solve table2.json linpro --eps 1/100 --oracle --dump-lp",
        "",
        lambda out: "lp-point: " in out,
    ),
    (
        "choreshare bench rr-family:n=3..5 --algs round-robin --family-refs",
        "worst ratios 7, 39, 311: sequential picking degrades without bound",
        lambda out: [row.split("\t")[3] for row in out.splitlines()[1:]] == ["7", "39", "311"],
    ),
]


def test_readme_examples_print_what_their_comments_say(tmp_path, monkeypatch, capsys):
    examples = []
    for line in _readme_block("### Examples", "sh").splitlines():
        if line.startswith("# "):
            examples[-1][1] = line[2:]
        else:
            examples.append([line, ""])
    assert examples == [[command, comment] for command, comment, _ in README_EXAMPLES]
    monkeypatch.chdir(tmp_path)
    for command, _, holds in README_EXAMPLES:
        assert main(shlex.split(command)[1:]) == 0, command
        assert holds(capsys.readouterr().out), command


def test_readme_library_snippet_runs():
    exec(_readme_block("## Library", "python"), {})
