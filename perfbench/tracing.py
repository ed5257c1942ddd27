"""Per-layer tracing from outside the program.

The tracer replaces public functions in the module namespaces through which
choreshare's own code reaches them (``cli`` calls ``lp.linpro`` through the
``lp`` module, ``lp.linpro`` calls ``build_program`` through ``lp``'s
globals, and so on), records one span per call in memory, and puts every
original back on ``restore``.  Counts marked computed are derived from the
arguments a wrapped call receives (and, for probes, whether it returned a
point), never from inside the program.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


def _picks(args, result):
    return {"algorithms.picks": args[0].m}


def _subset_masks(args, result):
    inst = args[0]
    # divide_and_choose enumerates 2^m bipartitions only when the chooser
    # (smaller share) holds more than 1/3; otherwise the divider takes all.
    return {"algorithms.subset_masks": 2**inst.m if 3 * min(inst.shares) > 1 else 0}


def _cells(args, result):
    sf = args[0]
    ge = sum(1 for _, _, sense in sf.rows if sense == "ge")
    # A ">=" row with a negative right-hand side is sign-flipped and starts
    # with its surplus basic; every other row gets an artificial column.
    artificial = sum(1 for _, rhs, sense in sf.rows if not (sense == "ge" and rhs < 0))
    width = sf.num_vars + ge + artificial
    return {"simplex.calls": 1, "simplex.cells": len(sf.rows) * width}


def _wmms_vectors(args, result):
    inst = args[0]
    return {"oracle.vectors": inst.n**inst.m * len(set(inst.values))}


def _owmms_vectors(args, result):
    inst = args[0]
    return {"oracle.vectors": inst.n**inst.m}


def _bytes_in(args, result):
    return {"serialization.bytes_in": os.path.getsize(args[0])}


def _fairness_calls(args, result):
    return {"model.fairness_report.calls": 1}


def _probe(args, result):
    prog = args[0]
    return {"key": prog.thresholds, "feasible": result is not None, "vars": len(prog.variables)}


# (module, function, metric that receives the span's self time, counter).
WRAPPED = (
    ("cli", "main", "cli.self_ms", None),
    ("cli", "run_algorithm", "cli.self_ms", None),
    ("cli", "load_instance", "serialization.load_ms", _bytes_in),
    ("cli", "validate_instance", "model.validate_ms", None),
    ("cli", "fairness_report", "model.fairness_report_ms", _fairness_calls),
    ("cli", "naive", "algorithms.naive_ms", None),
    ("cli", "egal_greedy", "algorithms.egal_greedy_ms", None),
    ("cli", "round_robin", "algorithms.pick_ms", _picks),
    ("cli", "multiplicative_greedy", "algorithms.pick_ms", _picks),
    ("cli", "additive_greedy", "algorithms.pick_ms", _picks),
    ("cli", "divide_and_choose", "algorithms.div_cho_ms", _subset_masks),
    ("cli", "binary_wmms", "algorithms.binary_ms", None),
    ("lp", "linpro", "lp.linpro_self_ms", None),
    ("lp", "wmms_prime", "algorithms.wmms_prime_ms", None),
    ("lp", "build_program", "lp.build_ms", None),
    ("lp", "check_feasible", "lp.check_self_ms", _probe),
    ("lp", "round_extreme_point", "lp.round_ms", None),
    # No workload reaches min_feasible_c or simplex.minimize (phase 2): its
    # instances cost 0.03-1.2 s each on a 2-core x86 box and no 25 s run of
    # them was steady.  Both read 0 unless a change routes a measured path
    # through them.
    ("lp", "min_feasible_c", "lp.min_feasible_c_self_ms", None),
    ("simplex", "feasible_basic_point", "simplex.phase1_ms", _cells),
    ("simplex", "minimize", "simplex.minimize_ms", _cells),
    ("oracle", "exact_wmms", "oracle.wmms_ms", _wmms_vectors),
    ("oracle", "exact_owmms", "oracle.owmms_ms", _owmms_vectors),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in WRAPPED)) + ("generators.ms",)
COUNT_METRICS = {
    "simplex.calls": "count",
    "simplex.cells": "count",
    "lp.probes": "count",
    "lp.redundant_solves": "count",
    "oracle.vectors": "count",
    "algorithms.picks": "count",
    "algorithms.subset_masks": "count",
    "serialization.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "model.fairness_report.calls": "count",
}

# Derived from the arguments of wrapped calls rather than observed.
COMPUTED = ("simplex.cells", "oracle.vectors", "algorithms.picks", "algorithms.subset_masks")


def wrapped_functions(prog) -> list[tuple[object, str, str, object]]:
    """Every (module, name, metric, counter) the tracer replaces."""
    out = [(getattr(prog, mod), name, metric, count) for mod, name, metric, count in WRAPPED]
    gen = prog.generators
    for name in sorted(vars(gen)):
        fn = getattr(gen, name)
        if not name.startswith("_") and callable(fn) and getattr(fn, "__module__", None) == gen.__name__:
            out.append((gen, name, "generators.ms", None))
    return out


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    instance: object
    info: dict


@dataclass
class Tracer:
    """Records spans while installed; ``instance`` tags each span's request."""

    spans: list[Span] = field(default_factory=list)
    instance: object = None
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, prog) -> None:
        for module, name, metric, count in wrapped_functions(prog):
            original = getattr(module, name)
            setattr(module, name, self._wrap(original, f"{module.__name__.rsplit('.', 1)[-1]}.{name}", metric, count))
            self._installed.append((module, name, original))

    def restore(self) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    def _wrap(self, fn, name, metric, count):
        tracer = self

        def traced(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                info = {"metric": metric}
                if count is not None:
                    info.update(count(args, result))
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.instance, info))

        traced.__wrapped__ = fn
        return traced


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
    return {s.id: s.end_ns - s.start_ns - child_ns.get(s.id, 0) for s in spans}


def counts(spans: list[Span]) -> dict[str, int]:
    """Machine-independent counts over a set of spans.

    A ``check_feasible`` call is a probe unless an earlier call under the same
    parent span already found its thresholds feasible; then it is a redundant
    solve (today ``linpro`` re-solves its final upper bound).
    """
    total = dict.fromkeys(COUNT_METRICS, 0)
    total.update({"lp.feasible_probes": 0, "lp.probe_vars": 0})
    feasible_keys: dict[object, set] = {}
    for s in sorted(spans, key=lambda s: s.start_ns):
        for key, value in s.info.items():
            if key in total:
                total[key] += value
        if "feasible" in s.info:
            seen = feasible_keys.setdefault(s.parent, set())
            if s.info["key"] in seen:
                total["lp.redundant_solves"] += 1
                continue
            total["lp.probes"] += 1
            total["lp.probe_vars"] += s.info["vars"]
            if s.info["feasible"]:
                total["lp.feasible_probes"] += 1
                seen.add(s.info["key"])
    return total
