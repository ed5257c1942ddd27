"""Test-only reference: ``linpro``'s probe certificate on an ``LPProgram``.

``_loads`` and ``_certificate`` are ``choreshare.lp``'s functions as they
were before probes were decided on integer loads: eligibility comes from
``build_program``'s ``variables`` and every floor is checked as the exact
Fraction ``bundle_value >= t_i``.  The differential tests require the
integer certificate to return the same allocation, or None where this one
does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from choreshare.lp import LPProgram
from choreshare.model import ZERO, Allocation, Instance, bundle_value, integer_row


def _loads(inst: Instance, refs: Sequence[Fraction]) -> list[list[int]]:
    flat, _ = integer_row([v / r if r else ZERO for r, row in zip(refs, inst.values) for v in row])
    return [flat[i * inst.m : (i + 1) * inst.m] for i in range(inst.n)]


def _certificate(prog: LPProgram, loads: Sequence[Sequence[int]]) -> Allocation | None:
    eligible = prog.eligible_agents
    if not all(eligible):
        return None
    used = [0] * prog.inst.n
    owner = [0] * prog.inst.m
    for j in sorted(range(prog.inst.m), key=lambda j: -max(loads[a][j] for a in eligible[j])):
        i = min(eligible[j], key=lambda a: used[a] + loads[a][j])
        owner[j] = i
        used[i] += loads[i][j]
    alloc = Allocation(prog.inst.n, tuple(owner))
    for i, bundle in enumerate(alloc.bundles()):
        if bundle_value(prog.inst, i, bundle) < prog.thresholds[i]:
            return None
    return alloc
