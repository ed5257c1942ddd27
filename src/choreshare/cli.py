"""Command-line interface: validate, solve, oracle, bench, gen.

``ALGORITHM_TABLE`` names every algorithm once, with its proven bound, and
``FAMILY_TABLE`` every generator family that ``gen`` and ``bench`` share.
All rationals print as "p/q" (``--decimal`` appends rounded display values
without affecting any check).  Exit codes: 0 success, 2 validation or
precondition error, 3 enumeration budget exceeded, 4 guarantee violation
(bench only), 5 internal solver error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import generators, lp, oracle, serialization
from .algorithms import (
    TIE_RULES,
    TraceEvent,
    additive_greedy,
    binary_wmms,
    divide_and_choose,
    egal_greedy,
    multiplicative_greedy,
    naive,
    round_robin,
)
from .errors import (
    BudgetExceeded,
    ChoreShareError,
    NoFeasibleAllocation,
    ParseError,
    RoundingInvariantViolation,
    Unbounded,
    UpperBoundInfeasible,
)
from .model import (
    Allocation,
    FairnessReport,
    Instance,
    bundle_value,
    fairness_report,
    validate_instance,
)
from .serialization import (
    format_ratio,
    load_instance,
    parse_ratio,
    save_instance,
    serialize_instance,
)

def _fmt(x: Fraction, decimal: bool = False) -> str:
    text = format_ratio(x)
    if decimal and x.denominator != 1:
        try:
            approx = float(x)
        except OverflowError:
            approx = 0.0
        # x is nonzero: a zero approx means x lies beyond float range
        text += f" ({approx or Decimal(x.numerator) / x.denominator:.6g})"
    return text


def _spaced(items) -> str:
    """Items as space-separated text, or "-" when there are none."""
    return " ".join(map(str, items)) or "-"


def _ratio_text(report: FairnessReport, i: int) -> str:
    agent = report.agents[i]
    if agent.ratio is not None:
        return format_ratio(agent.ratio)
    return "unbounded-satisfied" if agent.unbounded_satisfied else "violated"


def _egal_greedy(inst, trace, **_):
    if any(row != inst.integer_values[0] for row in inst.integer_values):
        raise ValueError("egal-greedy requires identical valuation rows")
    ints, denom = inst.integer_values[0]
    return egal_greedy(inst.shares, [Fraction(a, denom) for a in ints], trace=trace)


# Algorithm name -> (run, bound).  run returns the allocation (linpro: its
# LinProResult) and looks its algorithm up by name when called, so a replaced
# module attribute reaches every command.  bound(inst, eps, alpha_star) is the
# proven worst ratio bench enforces; None marks a negative control.
ALGORITHM_TABLE = {
    "naive": (lambda inst, trace, **_: naive(inst, trace=trace), lambda inst, *_: Fraction(inst.n)),
    "egal-greedy": (_egal_greedy, lambda *_: Fraction(2)),
    "round-robin": (lambda inst, order, trace, **_: round_robin(inst, order=order, trace=trace), None),
    "mult-greedy": (
        lambda inst, tie_rule, trace, **_: multiplicative_greedy(inst, tie_rule=tie_rule, trace=trace),
        None,
    ),
    "add-greedy": (lambda inst, trace, **_: additive_greedy(inst, trace=trace), None),
    "div-cho": (
        lambda inst, trace, **_: divide_and_choose(inst, trace=trace), lambda *_: Fraction(3, 2)
    ),
    "binary": (lambda inst, trace, **_: binary_wmms(inst, trace=trace), lambda *_: Fraction(1)),
    "linpro": (
        lambda inst, eps, trace, **_: lp.linpro(inst, eps, trace=trace),
        lambda inst, eps, alpha_star: None if alpha_star is None else (4 + eps) * alpha_star,
    ),
}


def run_algorithm(
    inst: Instance,
    name: str,
    *,
    eps: Fraction = Fraction(1, 100),
    tie_rule: str = "largest-share",
    order: tuple[int, ...] | None = None,
    trace: list[TraceEvent] | None = None,
) -> tuple[Allocation, lp.LinProResult | None]:
    """Run one algorithm by name: its allocation, and linpro's LinProResult (else None)."""
    if name not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHM_TABLE)}")
    out = ALGORITHM_TABLE[name][0](inst, eps=eps, tie_rule=tie_rule, order=order, trace=trace)
    if isinstance(out, lp.LinProResult):
        return out.allocation, out
    return out, None


def _report_violations(violations: list[str], out=None) -> bool:
    """Print each violation to ``out`` (stderr by default); True when there was any."""
    for v in violations:
        print(f"violation: {v}", file=out or sys.stderr)
    return bool(violations)


def _cmd_validate(args) -> int:
    if _report_violations(validate_instance(load_instance(args.file)), sys.stdout):
        return 2
    print("ok")
    return 0


def _lp_lines(result: lp.LinProResult) -> list[str]:
    prog = result.program
    lines = [f"lp-variables: {_spaced(f'x[{i},{j}]' for i, j in prog.variables)}"]
    for i in range(prog.inst.n):
        coefficient = serialization._ratio_texts(*prog.inst.integer_values[i])
        terms = [f"{coefficient[j]}*x[{i},{j}]" for a, j in prog.variables if a == i]
        lhs = " + ".join(terms) if terms else "0"
        lines.append(f"lp-agent {i}: {lhs} >= {format_ratio(prog.thresholds[i])}")
    for j in range(prog.inst.m):
        # variables are sorted by (i, j), so each chore's agents come out ascending
        terms = [f"x[{i},{j}]" for i, c in prog.variables if c == j]
        lhs = " + ".join(terms) if terms else "0"
        lines.append(f"lp-chore {j}: {lhs} = 1")
    entries = (f"x[{i},{j}]={format_ratio(v)}" for (i, j), v in sorted(result.point.items()))
    lines.append(f"lp-point: {_spaced(entries)}")
    return lines


def _cmd_solve(args) -> int:
    inst = load_instance(args.file)
    if _report_violations(validate_instance(inst)):
        return 2
    trace: list[TraceEvent] | None = [] if args.trace else None
    eps = parse_ratio(args.eps, context="--eps")
    order = None
    if args.order:
        order = tuple(int(tok) for tok in args.order.split(","))
    alloc, result = run_algorithm(
        inst, args.algorithm, eps=eps, tie_rule=args.tie_rule, order=order, trace=trace
    )

    # One document of exact values; json.dumps prints each Fraction through
    # format_ratio, and the text form reads the same fields.
    bundles = alloc.bundles()
    doc: dict = {
        "algorithm": args.algorithm,
        "owner": list(alloc.owner),
        "bundles": [list(b) for b in bundles],
        "values": [bundle_value(inst, i, b) for i, b in enumerate(bundles)],
    }
    if result is not None:
        doc["c_final"] = result.c_final
    if args.oracle:
        wmms = oracle.exact_wmms(inst, budget=args.budget).wmms
        report = fairness_report(inst, alloc, wmms)
        worst = report.worst_ratio()
        doc["report"] = {
            "wmms": [a.reference for a in report.agents],
            "ratios": [_ratio_text(report, i) for i in range(inst.n)],
            "worst_ratio": "violated" if worst is None else worst,
        }
    if trace is not None:
        doc["trace"] = [vars(e) for e in trace]  # TraceEvent's fields, in order

    # Either form is rendered in full before printing, as in _cmd_oracle:
    # wmms[i] and the LP's thresholds may not print.
    if args.json:
        print(json.dumps(doc, indent=2, default=format_ratio))
        return 0
    fmt = functools.partial(_fmt, decimal=args.decimal)
    lines = [
        f"algorithm: {doc['algorithm']}",
        f"owner: {_spaced(doc['owner'])}",
        *(f"bundle[{i}]: {_spaced(b)}" for i, b in enumerate(doc["bundles"])),
        *(f"value[{i}]: {fmt(v)}" for i, v in enumerate(doc["values"])),
    ]
    if "c_final" in doc:
        lines.append(f"c-final: {fmt(doc['c_final'])}")
    if args.oracle:
        lines += [f"wmms[{i}]: {fmt(x)}" for i, x in enumerate(doc["report"]["wmms"])]
        lines += [f"ratio[{i}]: {text}" for i, text in enumerate(doc["report"]["ratios"])]
        lines.append(f"worst-ratio: {'violated' if worst is None else fmt(worst)}")
    lines += [
        f"trace: step {e['step']}: chore {e['chore']} -> agent {e['agent']} "
        f"(quantity {format_ratio(e['quantity'])})"
        for e in doc.get("trace", ())
    ]
    if args.dump_lp and result is not None:
        lines += _lp_lines(result)
    print("\n".join(lines))
    return 0


def _cmd_oracle(args) -> int:
    inst = load_instance(args.file)
    if _report_violations(validate_instance(inst)):
        return 2
    result = oracle.exact_wmms(inst, budget=args.budget)
    owmms = oracle.exact_owmms(inst, result.wmms, budget=args.budget)
    # Every line is formatted before the first prints: validate bounds the
    # digits of bundle values, not of wmms or w = wmms / share, which may not.
    lines = [
        f"wmms: {' '.join(_fmt(x, args.decimal) for x in result.wmms)}",
        f"w: {' '.join(_fmt(x, args.decimal) for x in result.w)}",
        *(f"witness[{i}]: {_spaced(witness.owner)}" for i, witness in enumerate(result.witness_partitions)),
        f"alpha-star: {_fmt(owmms.alpha_star, args.decimal)}",
        f"alpha-witness: {_spaced(owmms.witness.owner)}",
    ]
    print("\n".join(lines))
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _given(params: dict[str, str], parsers: dict) -> dict:
    """Pop and parse the parameters given; the generator supplies the defaults."""
    return {key: parse(params.pop(key)) for key, parse in parsers.items() if key in params}


def _egal_failure(params: dict[str, str]) -> Instance:
    parsers = {"T": lambda t: parse_ratio(t, "--T"), "c": lambda t: parse_ratio(t, "--c"), "n": int}
    return generators.egal_greedy_failure_family(**_given(params, parsers))


def _table(params: dict[str, str]):
    if "k" not in params:
        raise ParseError("table spec needs an index, e.g. table:2")
    k = int(params.pop("k"))
    if k == 6:
        return [("table6", _egal_failure(params), None)]
    given = _given(params, {"eps": lambda t: parse_ratio(t, context="table eps")})
    return [(f"table{k}", generators.paper_table(k, **given), None)]


def _random(params: dict[str, str]):
    n = int(params.pop("n", "3"))
    m = int(params.pop("m", "6"))
    count = int(params.pop("count", "10"))
    seed0 = int(params.pop("seed0", "0"))
    style = params.pop("style", "normalized")
    return [
        (f"random-{style}-n{n}-m{m}-s{seed}", generators.random_instance(n, m, seed, style), None)
        for seed in range(seed0, seed0 + count)
    ]


# Generator family -> build(params), which maps str parameters (bench:
# "family:key=value,...", where a bare value is the key k; gen: the flags given)
# to a list of (instance id, instance, closed-form references or None).
# build pops each parameter it reads; _family_instances refuses what is left.
FAMILY_TABLE = {
    "table": _table,
    "rr-family": lambda params: [
        (f"rr-family-n{n}", generators.round_robin_family(n),
         generators.round_robin_family_references(n))
        for n in _parse_range(params.pop("n", "3..5"))
    ],
    "egal-failure": lambda params: [("egal-failure", _egal_failure(params), None)],
    "random": _random,
}


def _family_instances(family: str, params: dict[str, str], target: str):
    instances = FAMILY_TABLE[family](params)
    if params:
        raise ParseError(f"{target}: {family} has no parameter {next(iter(params))!r}")
    return instances


def _bench_instances(spec: str) -> list[tuple[str, Instance, tuple[Fraction, ...] | None]]:
    """Resolve a bench target: a directory of documents, one file, or a generator spec."""
    path = Path(spec)
    if path.is_dir():
        instances = []
        for child in sorted(path.glob("*.json")):
            try:
                instances.append((child.stem, load_instance(child), None))
            except ParseError as exc:  # named as violations are: "b: ..."
                raise ParseError(f"{child.stem}: {exc}") from None
        return instances
    if path.is_file():
        return [(path.stem, load_instance(path), None)]

    family, _, params_text = spec.partition(":")
    if family not in FAMILY_TABLE:
        raise ParseError(f"bench target {spec!r} is neither a path nor a known generator spec")
    params: dict[str, str] = {}
    for part in filter(None, params_text.split(",")):
        key, sep, value = part.partition("=")
        if not sep:
            key, value = "k", part
        if key in params:
            what = f"repeated parameter {key!r}" if sep else f"extra bare value {part!r}"
            raise ParseError(f"bench target {spec!r}: {what}")
        params[key] = value
    instances = _family_instances(family, params, f"bench target {spec!r}")
    if not instances:
        raise ParseError(f"bench target {spec!r} selects no instances")
    return instances


def _cmd_bench(args) -> int:
    instances = _bench_instances(args.spec)
    if _report_violations(
        [f"{inst_id}: {v}" for inst_id, inst, _ in instances for v in validate_instance(inst)]
    ):
        return 2
    algs = [tok for tok in args.algs.split(",") if tok]
    if not algs:
        raise ParseError("--algs names no algorithm")
    for alg in algs:
        if alg not in ALGORITHM_TABLE:
            raise ValueError(f"unknown algorithm {alg!r}")
    eps = parse_ratio(args.eps, context="--eps")

    rows = []
    violations = []
    for inst_id, inst, family_refs in instances:
        refs = None
        alpha_star = None
        if args.oracle:
            wres = oracle.exact_wmms(inst, budget=args.budget)
            refs = wres.wmms
            alpha_star = oracle.exact_owmms(inst, wres.wmms, budget=args.budget).alpha_star
        elif args.family_refs and family_refs is not None:
            refs = family_refs
        for alg in algs:
            started = time.perf_counter()
            alloc, _ = run_algorithm(inst, alg, eps=eps, tie_rule=args.tie_rule)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            ratios_text = "-"
            worst_text = "-"
            if refs is not None:
                report = fairness_report(inst, alloc, refs)
                ratios_text = ",".join(_ratio_text(report, i) for i in range(inst.n))
                worst = report.worst_ratio()
                worst_text = format_ratio(worst) if worst is not None else "violated"
                bound_of = ALGORITHM_TABLE[alg][1]
                bound = bound_of and bound_of(inst, eps, alpha_star)
                if bound is not None and (worst is None or worst > bound):
                    violations.append(
                        f"{inst_id}/{alg}: worst ratio {worst_text} exceeds bound {format_ratio(bound)}"
                    )
            rows.append(
                {
                    "instance": inst_id,
                    "algorithm": alg,
                    "ratios": ratios_text,
                    "worst_ratio": worst_text,
                    "alpha_star": format_ratio(alpha_star) if alpha_star is not None else "-",
                    "wall_ms": f"{elapsed_ms:.3f}",
                }
            )

    rows.sort(key=lambda r: (r["instance"], r["algorithm"]))
    columns = ["instance", "algorithm", "ratios", "worst_ratio", "alpha_star"]
    if args.times:
        columns.append("wall_ms")
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row[c] for c in columns))
    if args.out:
        payload = [{c: row[c] for c in columns} for row in rows]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": payload}, fh, indent=2)
            fh.write("\n")
    for message in violations:
        print(f"guarantee-violation: {message}", file=sys.stderr)
    return 4 if violations else 0


def _cmd_gen(args) -> int:
    family, k = ("table", args.family[-1]) if args.family[:-1] == "table" else (args.family, None)
    # the flags given, and count=1: gen writes the first instance, so random builds one
    params = {"k": k, "count": 1 if family == "random" else None, "eps": args.eps, "T": args.T,
              "c": args.c, "seed0": args.seed, "style": args.style, "n": args.n, "m": args.m}
    params = {key: str(value) for key, value in params.items() if value is not None}
    _, inst, _ = _family_instances(family, params, f"gen {args.family}")[0]
    if args.output:
        save_instance(inst, args.output)
    else:
        sys.stdout.write(serialize_instance(inst))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choreshare",
        description="Fair allocation of indivisible chores to agents with asymmetric shares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an instance document")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=_cmd_validate)

    p_solve = sub.add_parser("solve", help="run one allocation algorithm")
    p_solve.add_argument("file")
    p_solve.add_argument("algorithm", choices=tuple(ALGORITHM_TABLE))
    p_solve.add_argument("--oracle", action="store_true", help="report ratios against exact WMMS")
    p_solve.add_argument("--trace", action="store_true", help="print per-step decisions")
    p_solve.add_argument("--eps", default="1/100", help="linpro precision (rational)")
    p_solve.add_argument("--dump-lp", action="store_true", help="print the final linpro program")
    p_solve.add_argument("--json", action="store_true", help="emit a JSON document")
    p_solve.add_argument("--decimal", action="store_true", help="append rounded decimals")
    p_solve.add_argument("--tie-rule", default="largest-share", choices=TIE_RULES)
    p_solve.add_argument("--order", default=None, help="round-robin picking order, e.g. 2,0,1")
    p_solve.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact WMMS values and optimal ratio")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p_oracle.add_argument("--decimal", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_bench = sub.add_parser("bench", help="run algorithms over generated or stored instances")
    p_bench.add_argument("spec", help="directory, file, or generator spec like random:n=3,m=6,count=10")
    p_bench.add_argument("--algs", required=True, help="comma-separated algorithm list")
    p_bench.add_argument("--oracle", action="store_true")
    p_bench.add_argument("--family-refs", action="store_true",
                         help="use closed-form references where the family defines them")
    p_bench.add_argument("--eps", default="1/100")
    p_bench.add_argument("--tie-rule", default="largest-share", choices=TIE_RULES)
    p_bench.add_argument("--out", default=None, help="also write rows as JSON")
    p_bench.add_argument("--times", action="store_true", help="add a wall-clock column")
    p_bench.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="write a generated instance")
    p_gen.add_argument(
        "family",
        choices=[f"table{k}" for k in range(1, 7)] + [f for f in FAMILY_TABLE if f != "table"],
    )
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--style", choices=("normalized", "binary"))
    p_gen.add_argument("--eps")
    p_gen.add_argument("--T")
    p_gen.add_argument("--c")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


# Error type -> exit code other than 2, the code of every other error main catches.
EXIT_CODES = {
    BudgetExceeded: 3,
    **dict.fromkeys((RoundingInvariantViolation, UpperBoundInfeasible, Unbounded,
                     NoFeasibleAllocation), 5),
}


# Built on the first call: parse_args leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ChoreShareError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for error, code in EXIT_CODES.items() if isinstance(exc, error)), 2)


def console_main() -> None:
    sys.exit(main())
