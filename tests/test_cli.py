import json
from fractions import Fraction
from pathlib import Path

import pytest

import choreshare as cs
from choreshare.cli import main, run_algorithm

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def table2_file(tmp_path, table2):
    path = tmp_path / "table2.json"
    cs.save_instance(table2, path)
    return str(path)


@pytest.fixture
def table1_file(tmp_path, table1):
    path = tmp_path / "table1.json"
    cs.save_instance(table1, path)
    return str(path)


def test_gen_then_validate(tmp_path, capsys):
    out_file = tmp_path / "t2.json"
    code, _, _ = run_cli(capsys, "gen", "table2", "-o", str(out_file))
    assert code == 0
    assert cs.load_instance(out_file) == cs.paper_table(2)
    code, out, _ = run_cli(capsys, "validate", str(out_file))
    assert code == 0 and out.strip() == "ok"


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "table1")
    assert code == 0
    assert cs.parse_instance(out) == cs.paper_table(1)


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"agents": [{"share": "1/2", "values": ["-1"]},'
        ' {"share": "1/3", "values": ["-1"]}]}'
    )
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "5/6" in out


def test_solve_divcho_oracle(table2_file, capsys):
    code, out, _ = run_cli(capsys, "solve", table2_file, "div-cho", "--oracle")
    assert code == 0
    assert "owner: 0 0" in out
    assert "worst-ratio: 4/3" in out


def test_solve_linpro_bound(table1_file, capsys):
    code, out, _ = run_cli(
        capsys, "solve", table1_file, "linpro", "--eps", "1/100", "--oracle"
    )
    assert code == 0
    worst = next(line for line in out.splitlines() if line.startswith("worst-ratio:"))
    assert F(worst.split()[1]) <= F(401, 100)


def test_solve_binary_on_general_instance_fails(table1_file, capsys):
    code, _, err = run_cli(capsys, "solve", table1_file, "binary")
    assert code == 2
    assert "NotBinary" in err


def test_solve_rejects_invalid_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"agents": [{"share": "2", "values": ["-1"]}]}')
    code, _, err = run_cli(capsys, "solve", str(path), "naive")
    assert code == 2
    assert "outside (0, 1]" in err


def test_solve_reports_unbounded_satisfied_agent(tmp_path, capsys):
    # agent 0 values every chore at 0, so her maxmin share is 0 and only the
    # value 0 satisfies her, at no finite ratio
    path = tmp_path / "zero-row.json"
    inst = cs.Instance((F(1, 2), F(1, 2)), ((F(0), F(0)), (F(-1), F(-1))))
    cs.save_instance(inst, path)
    code, out, _ = run_cli(capsys, "solve", str(path), "binary", "--oracle")
    assert code == 0
    assert "wmms[0]: 0\nwmms[1]: -1\nratio[0]: unbounded-satisfied\nratio[1]: 0\n" in out


def test_solve_divcho_needs_two_agents(tmp_path, capsys):
    path = tmp_path / "three.json"
    cs.save_instance(cs.random_instance(3, 4, seed=0), path)
    code, _, err = run_cli(capsys, "solve", str(path), "div-cho")
    assert code == 2
    assert "2 agents" in err


def test_solve_egal_greedy_requires_identical_rows(table1_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", table1_file, "egal-greedy")
    assert code == 2 and "identical" in err
    path = tmp_path / "rr2.json"
    cs.save_instance(cs.round_robin_family(2), path)
    code, out, _ = run_cli(capsys, "solve", str(path), "egal-greedy")
    assert code == 0


def test_solve_json_document(table2_file, capsys):
    code, out, _ = run_cli(
        capsys, "solve", table2_file, "div-cho", "--oracle", "--json", "--trace"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["owner"] == [0, 0]
    assert doc["report"]["worst_ratio"] == "4/3"
    assert len(doc["trace"]) == 2


def test_solve_trace_and_decimal(table2_file, capsys):
    code, out, _ = run_cli(
        capsys, "solve", table2_file, "naive", "--trace", "--oracle", "--decimal"
    )
    assert code == 0
    assert "trace: step 0: chore 0 -> agent 0" in out
    assert "wmms[0]: -3/4 (-0.75)" in out


# float() overflows on a value of -1e400 and reads -0 on one of -1e-400.
@pytest.mark.parametrize(
    "row0, row1, shown",
    [('"-1e400", "-1/2"', '"-1", "-1"', "(-1.00000e+400)"), ('"-1e-400"', '"-1"', "(-1e-400)")],
)
@pytest.mark.parametrize("algorithm", ["naive", "linpro"])
def test_solve_decimal_beyond_float_range(tmp_path, capsys, algorithm, row0, row1, shown):
    path = tmp_path / "far.json"
    path.write_text(
        f'{{"agents": [{{"share": "1/2", "values": [{row0}]}},'
        f' {{"share": "1/2", "values": [{row1}]}}]}}'
    )
    code, out, err = run_cli(capsys, "solve", str(path), algorithm, "--decimal")
    assert (code, err) == (0, "")
    value0 = next(line for line in out.splitlines() if line.startswith("value[0]: "))
    assert value0.endswith(f" {shown}")


def test_solve_linpro_trace_reports_rounding(table1_file, capsys):
    # chores 1 and 2 are peeled with their whole unit; chores 0 and 3 are
    # split between the agents and go by the matching
    code, out, _ = run_cli(capsys, "solve", table1_file, "linpro", "--trace")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("trace:")] == [
        "trace: step 0: chore 1 -> agent 1 (quantity 1)",
        "trace: step 1: chore 2 -> agent 1 (quantity 1)",
        "trace: step 2: chore 0 -> agent 1 (quantity 519/1024)",
        "trace: step 3: chore 3 -> agent 0 (quantity 521/1024)",
    ]


def test_solve_linpro_dump_lp(table2_file, capsys):
    code, out, _ = run_cli(capsys, "solve", table2_file, "linpro", "--dump-lp")
    assert code == 0
    assert "lp-variables:" in out
    assert "lp-chore 0:" in out
    assert "lp-point:" in out


def test_oracle_command(table2_file, capsys):
    code, out, _ = run_cli(capsys, "oracle", table2_file)
    assert code == 0
    assert "wmms: -3/4 -1/3" in out
    assert "alpha-star: 4/3" in out
    assert "alpha-witness: 0 0" in out


def test_oracle_rejects_invalid_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"agents": [{"share": "1/2", "values": ["1"]}, {"share": "1/2", "values": ["-1"]}]}'
    )
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert code == 2
    assert out == ""
    assert err == "violation: positive value 1 at agent 0, chore 0\n"


def test_oracle_budget_exceeded(tmp_path, capsys):
    path = tmp_path / "big.json"
    cs.save_instance(cs.random_instance(5, 30, seed=0), path)
    code, _, err = run_cli(capsys, "oracle", str(path))
    assert code == 3
    assert "BudgetExceeded" in err and "5^30" in err


def test_oracle_budget_option(table1_file, capsys):
    code, _, err = run_cli(capsys, "oracle", table1_file, "--budget", "10")
    assert code == 3
    assert "2^4 = 16 owner vectors exceeds enumeration budget 10" in err
    code, _, _ = run_cli(capsys, "oracle", table1_file, "--budget", "1000")
    assert code == 0


@pytest.mark.parametrize("command, rest", [("validate", ()), ("solve", ("naive",))])
def test_boolean_token_exits_2(tmp_path, capsys, command, rest):
    path = tmp_path / "bool.json"
    path.write_text('{"agents":[{"share": true, "values":[false, -1]}]}')
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert code == 2
    assert out == ""
    assert err == "error: ParseError: agent 0 share: expected a rational, got True\n"


@pytest.mark.parametrize(
    "command, rest",
    [
        ("validate", ()),
        ("solve", ("naive",)),
        ("solve", ("linpro",)),
        ("oracle", ()),
        ("bench", ("--algs", "naive")),
    ],
)
def test_value_too_long_to_print_exits_2(tmp_path, capsys, command, rest):
    path = tmp_path / "long.json"
    path.write_text(
        '{"agents": [{"share": "1/2", "values": ["-1e5000", "-1/2"]},'
        ' {"share": "1/2", "values": ["-1", "-1"]}]}'
    )
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert (code, out) == (2, "")
    assert err == "error: ParseError: agent 0 value 0: more than 4300 digits in numerator or denominator\n"


@pytest.mark.parametrize(
    "command, rest",
    [
        ("validate", ()),
        ("solve", ("naive",)),
        ("solve", ("linpro",)),
        ("bench", ("--algs", "naive")),
    ],
)
def test_values_whose_sums_are_too_long_to_print_exit_2(tmp_path, capsys, command, rest):
    # each value prints (2195 and 2198 digits), but their sum's denominator
    # has about 4390, past the default limit of 4300
    path = tmp_path / "long.json"
    agents = [
        {"share": "1/2", "values": [f"-1/{3**4600}", f"-1/{7**2600}"]},
        {"share": "1/2", "values": ["-1", "-1"]},
    ]
    path.write_text(json.dumps({"agents": agents}))
    code, out, err = run_cli(capsys, command, str(path), *rest)
    violation = "sums of agent 0's values can exceed 4300 digits\n"
    if command == "validate":
        assert (code, out, err) == (2, f"violation: {violation}", "")
    else:
        prefix = "long: " if command == "bench" else ""
        assert (code, out, err) == (2, "", f"violation: {prefix}{violation}")


@pytest.mark.parametrize(
    "command, rest",
    [("validate", ()), ("solve", ("naive",)), ("oracle", ()), ("bench", ("--algs", "naive"))],
)
def test_deeply_nested_document_exits_2(tmp_path, capsys, command, rest):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert (code, out) == (2, "")
    assert err.startswith("error: ParseError: malformed document: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["share", "value"])
@pytest.mark.parametrize("token", ["null", "[]", "{}"])
def test_non_scalar_token_exits_2(tmp_path, capsys, field, token):
    share, value = (token, '"-1"') if field == "share" else ('"1"', token)
    path = tmp_path / "odd.json"
    path.write_text(f'{{"agents": [{{"share": {share}, "values": [{value}]}}]}}')
    code, out, err = run_cli(capsys, "validate", str(path))
    context = "agent 0 share" if field == "share" else "agent 0 value 0"
    assert (code, out) == (2, "")
    assert err == f"error: ParseError: {context}: expected a rational, got {json.loads(token)!r}\n"


@pytest.mark.parametrize(
    "error",
    [
        cs.RoundingInvariantViolation,
        cs.UpperBoundInfeasible,
        cs.Unbounded,
        cs.NoFeasibleAllocation,
    ],
)
def test_internal_solver_error_exits_5(table2_file, capsys, monkeypatch, error):
    def broken(inst, eps, trace=None):
        raise error("invariant broken")

    monkeypatch.setattr(cs.lp, "linpro", broken)
    code, out, err = run_cli(capsys, "solve", table2_file, "linpro")
    assert code == 5
    assert out == ""
    assert err == f"error: {error.__name__}: invariant broken\n"


def test_certified_final_threshold_that_the_simplex_refuses_exits_5(table1_file, capsys, monkeypatch):
    monkeypatch.setattr(cs.lp, "check_feasible", lambda prog: None)
    code, out, err = run_cli(capsys, "solve", table1_file, "linpro")
    assert (code, out) == (5, "")
    assert err == "error: UpperBoundInfeasible: threshold 513/512 infeasible, yet it is provably feasible\n"


def test_bench_empty_directory(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bench", str(tmp_path), "--algs", "naive")
    assert code == 0
    assert out.splitlines() == ["instance\talgorithm\tratios\tworst_ratio\talpha_star"]


def test_bench_table_spec(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "table:2", "--algs", "div-cho,naive", "--oracle"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("table2\tdiv-cho")
    assert "4/3\t4/3" in lines[1]  # worst ratio and alpha-star columns


def test_bench_round_robin_family(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "rr-family:n=3..5",
        "--algs",
        "round-robin",
        "--family-refs",
    )
    assert code == 0
    worst = [F(line.split("\t")[3]) for line in out.splitlines()[1:]]
    assert worst == [F(7), F(39), F(311)]
    assert worst[0] < worst[1] < worst[2]


def test_bench_deterministic_and_json(tmp_path, capsys):
    args = (
        "bench",
        "random:n=2,m=5,count=3",
        "--algs",
        "naive,linpro",
        "--oracle",
        "--out",
        str(tmp_path / "rows.json"),
    )
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads((tmp_path / "rows.json").read_text())
    assert len(payload["rows"]) == 6
    assert payload["rows"][0]["instance"] == "random-normalized-n2-m5-s0"


def test_bench_times_column(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "table:1", "--algs", "naive", "--oracle", "--times"
    )
    assert code == 0
    assert out.splitlines()[0].endswith("wall_ms")


def test_bench_egal_failure_spec_matches_gen(tmp_path, capsys):
    path = tmp_path / "egal.json"
    gen_args = ("egal-failure", "--T", "4", "--c", "2", "--n", "3")
    code, _, _ = run_cli(capsys, "gen", *gen_args, "-o", str(path))
    assert code == 0
    args = ("--algs", "naive,add-greedy", "--oracle")
    code, from_spec, _ = run_cli(capsys, "bench", "egal-failure:T=4,c=2,n=3", *args)
    assert code == 0
    code, from_file, _ = run_cli(capsys, "bench", str(path), *args)
    assert code == 0
    assert from_spec.replace("egal-failure", "egal") == from_file


def test_bench_rejects_unknown_algorithm(capsys):
    code, _, err = run_cli(capsys, "bench", "table:1", "--algs", "magic")
    assert code == 2
    assert "magic" in err


def test_bench_rejects_unknown_spec(capsys):
    code, _, err = run_cli(capsys, "bench", "no-such-family:x=1", "--algs", "naive")
    assert code == 2


def test_gen_all_families_validate(tmp_path, capsys):
    cases = [
        ("table3",),
        ("table4",),
        ("table5", "--eps", "1/10"),
        ("table6",),
        ("rr-family", "--n", "3"),
        ("egal-failure", "--T", "4", "--c", "2", "--n", "3"),
        ("random", "--n", "2", "--m", "5", "--seed", "3", "--style", "binary"),
    ]
    for k, case in enumerate(cases):
        path = tmp_path / f"gen{k}.json"
        code, _, _ = run_cli(capsys, "gen", *case, "-o", str(path))
        assert code == 0
        assert cs.validate_instance(cs.load_instance(path)) == []


def test_gen_rejects_inconsistent_family(capsys):
    code, _, err = run_cli(capsys, "gen", "egal-failure", "--T", "3", "--c", "2", "--n", "2")
    assert code == 2
    assert "ParameterInconsistent" in err


@pytest.mark.parametrize(
    "agents",
    [
        # a positive value
        '[{"share": "1/2", "values": ["1/2", "-1", "-1"]},'
        ' {"share": "1/2", "values": ["-1", "-1", "-1"]}]',
        # shares summing to 3/2
        '[{"share": "1", "values": ["-1"]}, {"share": "1/2", "values": ["-1"]}]',
    ],
)
def test_bench_rejects_invalid_documents(tmp_path, capsys, agents):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"agents": {agents}}}')
    code, out, err = run_cli(capsys, "bench", str(path), "--algs", "naive", "--oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("violation: bad: ")


# `choreshare oracle` stdout captured before the oracles moved from full
# enumeration to branch and bound; values and witnesses must not change.
GOLDEN_DIR = Path(__file__).parent / "golden"
ORACLE_GOLDEN = json.loads((GOLDEN_DIR / "oracle_cli.json").read_text(encoding="utf-8"))


def _golden_instance(name: str) -> cs.Instance:
    if name.startswith("table"):
        return cs.paper_table(int(name[len("table"):]))
    if name.startswith("rr-family-n"):
        return cs.round_robin_family(int(name[len("rr-family-n"):]))
    _, style, n, m, seed = name.split("-")
    return cs.random_instance(int(n[1:]), int(m[1:]), int(seed[1:]), style)


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_bytes(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    cs.save_instance(_golden_instance(name), path)
    code, out, _ = run_cli(capsys, "oracle", str(path))
    assert code == 0
    assert out == ORACLE_GOLDEN[name]


# `solve`, `gen` and `bench` command lines with their exit code, stdout and
# stderr, captured before the algorithm and family tables replaced the
# per-name branches of the CLI.  An argument "{name}" stands for the path
# of the instance document `_golden_instance(name)`.
CLI_GOLDEN = json.loads((GOLDEN_DIR / "cli.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_docs(tmp_path_factory) -> dict[str, str]:
    directory = tmp_path_factory.mktemp("golden-docs")
    paths = {}
    for case in CLI_GOLDEN:
        for token in case["argv"]:
            if token.startswith("{") and token not in paths:
                path = directory / f"{token[1:-1]}.json"
                cs.save_instance(_golden_instance(token[1:-1]), path)
                paths[token] = str(path)
    return paths


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_bytes(golden_docs, capsys, monkeypatch, case):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    argv = [golden_docs.get(token, token) for token in case["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a choice this way
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("family", ["random", "rr-family"])
def test_gen_passes_explicit_zero_agents(capsys, family):
    code, out, err = run_cli(capsys, "gen", family, "--n", "0", "--m", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("rr-family:n=5..3", "--algs", "round-robin"),
        ("table:2", "--algs", ","),
        ("table:2", "--algs", ""),
    ],
)
def test_bench_rejects_specs_that_run_nothing(capsys, argv):
    code, out, err = run_cli(capsys, "bench", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "spec, named",
    [
        ("random:n=2,m=3,cout=1", "random has no parameter 'cout'"),
        ("rr-family:m=9", "rr-family has no parameter 'm'"),
        ("table:2,T=3", "table has no parameter 'T'"),
        ("table:2,3", "extra bare value '3'"),
        ("random:n=2,n=3,m=2,count=1", "repeated parameter 'n'"),
        ("table:2,k=3", "repeated parameter 'k'"),
        ("table:k=3,2", "extra bare value '2'"),
    ],
)
def test_bench_rejects_parameters_no_family_reads(capsys, spec, named):
    code, out, err = run_cli(capsys, "bench", spec, "--algs", "naive")
    assert (code, out) == (2, "")
    assert err.startswith("error: ParseError: ") and named in err


def test_run_algorithm_rejects_unknown_name(table1):
    with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
        run_algorithm(table1, "magic")


def test_gen_table5_eps_out_of_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "gen", "table5", "--eps", "1/2")
    assert (code, out) == (2, "")
    assert err == "error: ParameterInconsistent: eps 1/2 outside (0, 1/2)\n"


def test_bench_checks_naive_factor_n_bound(capsys, monkeypatch):
    def smallest_share_takes_all(inst, trace=None):
        i = min(range(inst.n), key=lambda i: (inst.shares[i], i))
        return cs.Allocation(inst.n, (i,) * inst.m)

    monkeypatch.setattr(cs.cli, "naive", smallest_share_takes_all)
    code, out, err = run_cli(capsys, "bench", "table:1", "--algs", "naive", "--oracle")
    assert code == 4
    assert out.splitlines()[1].split("\t")[3] == "4"
    assert err == "guarantee-violation: table1/naive: worst ratio 4 exceeds bound 2\n"


# `solve <doc> div-cho` with the chooser's share above 1/3, so that the
# divider searches for her split (two of the documents are tie-heavy),
# captured before that search moved to the oracle's lexicographic kernel.
# The documents are stored inline; "{name}" stands for the path of one.
DIVCHO_GOLDEN = json.loads((GOLDEN_DIR / "divcho_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", DIVCHO_GOLDEN["cases"], ids=lambda case: " ".join(case["argv"])
)
def test_divcho_split_output_bytes(tmp_path, capsys, case):
    argv = []
    for token in case["argv"]:
        if token.startswith("{"):
            path = tmp_path / f"{token[1:-1]}.json"
            path.write_text(json.dumps(DIVCHO_GOLDEN["documents"][token[1:-1]]), encoding="utf-8")
            token = str(path)
        argv.append(token)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv, named",
    [
        (("table2", "--n", "5"), "'n'"),
        (("rr-family", "--m", "9"), "'m'"),
        (("table6", "--eps", "1/3"), "'eps'"),
        (("random", "--T", "3"), "'T'"),
        (("egal-failure", "--seed", "4"), "'seed0'"),
        (("random", "--n", "2", "--m", "2", "--c", "9"), "'c'"),
    ],
)
def test_gen_rejects_flags_its_family_does_not_read(capsys, argv, named):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ParseError: ") and f"has no parameter {named}" in err


def test_gen_table1_reads_eps_as_bench_does(capsys):
    code, out, _ = run_cli(capsys, "gen", "table1", "--eps", "1/3")
    assert code == 0
    assert cs.parse_instance(out) == cs.paper_table(1, F(1, 3))
    code, _, _ = run_cli(capsys, "bench", "table:1,eps=1/3", "--algs", "naive")
    assert code == 0


def test_solve_divcho_past_the_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "wide.json"
    cs.save_instance(cs.Instance((F(1, 2), F(1, 2)), ((F(-1, 27),) * 27,) * 2), path)
    code, out, err = run_cli(capsys, "solve", str(path), "div-cho")
    assert (code, out) == (3, "")
    assert err == (
        "error: BudgetExceeded: 2^27 = 134217728 owner vectors exceeds enumeration budget 100000000\n"
    )


def test_main_gives_every_package_error_exit_2(table1_file, capsys, monkeypatch):
    class FreshError(cs.ChoreShareError):
        pass

    def fail(inst, trace=None):
        raise FreshError("no such luck")

    monkeypatch.setattr(cs.cli, "naive", fail)
    code, out, err = run_cli(capsys, "solve", table1_file, "naive")
    assert (code, out, err) == (2, "", "error: FreshError: no such luck\n")
