"""Test-only reference: the picking rules with ``Fraction`` keys.

``round_robin``, ``multiplicative_greedy`` and ``additive_greedy`` are
``choreshare.algorithms``'s functions as they were before the picking loop
moved to integer keys.  Every agent's total is a ``Fraction``, and every pick
rebuilds every agent's key, so they are slow but obviously exact; the
differential tests require the integer-key rules to return the same owners
and the same trace events.
"""

from __future__ import annotations

from typing import Sequence

from choreshare.algorithms import TIE_RULES, TraceEvent
from choreshare.model import ZERO, Allocation, Instance, integer_row


def _pick(inst: Instance, picker, quantity, trace: list[TraceEvent] | None) -> Allocation:
    prefs = []
    for row in inst.values:
        ints, _ = integer_row(row)
        prefs.append(iter(sorted(range(inst.m), key=ints.__getitem__, reverse=True)))
    owner = [-1] * inst.m
    totals = [ZERO] * inst.n
    for step in range(inst.m):
        i = picker(step, totals)
        j = next(c for c in prefs[i] if owner[c] < 0)
        if trace is not None:
            trace.append(TraceEvent(step, j, i, quantity(i, j, totals)))
        totals[i] += inst.values[i][j]
        owner[j] = i
    return Allocation(inst.n, tuple(owner))


def round_robin(
    inst: Instance,
    order: Sequence[int] | None = None,
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    picking = tuple(order) if order is not None else tuple(range(inst.n))
    if sorted(picking) != list(range(inst.n)):
        raise ValueError(f"order {picking} is not a permutation of the {inst.n} agents")
    return _pick(
        inst,
        lambda step, totals: picking[step % inst.n],
        lambda i, j, totals: inst.values[i][j],
        trace,
    )


def multiplicative_greedy(
    inst: Instance,
    tie_rule: str = "largest-share",
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    sign = 1 if tie_rule == "largest-share" else -1
    shares = inst.shares
    return _pick(
        inst,
        lambda step, totals: max(
            range(inst.n), key=lambda i: (totals[i] / shares[i], sign * shares[i], -i)
        ),
        lambda i, j, totals: totals[i] / shares[i],
        trace,
    )


def additive_greedy(inst: Instance, trace: list[TraceEvent] | None = None) -> Allocation:
    shares = inst.shares
    return _pick(
        inst,
        lambda step, totals: max(
            range(inst.n), key=lambda i: (shares[i] + totals[i], shares[i], -i)
        ),
        lambda i, j, totals: shares[i] + totals[i],
        trace,
    )
