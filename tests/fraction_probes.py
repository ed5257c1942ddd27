"""Test-only reference: ``linpro``'s probe certificate on Fractions.

``_loads`` and ``_certificate`` are ``choreshare.lp``'s functions as they
were before probes were decided on integer loads, with eligibility decided
by the Fraction rule ``V_ij >= c * r_i`` (``eligible_pairs``) instead of
``lp._eligible``, and every floor checked as the exact Fraction
``bundle_value >= c * r_i``.  The differential tests require the program's
variables to be ``eligible_pairs``, and the integer certificate's largest
load to clear the top exactly where this one returns an allocation, and then
to be that allocation's largest integer load.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from choreshare.model import ZERO, Allocation, Instance, bundle_value, integer_row


def eligible_pairs(
    inst: Instance, c: Fraction, refs: Sequence[Fraction]
) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) with ``V_ij >= c * r_i``, lexicographic."""
    return tuple(
        (i, j) for i, row in enumerate(inst.values) for j, v in enumerate(row) if v >= c * refs[i]
    )


def _loads(inst: Instance, refs: Sequence[Fraction]) -> list[list[int]]:
    flat, _ = integer_row([v / r if r else ZERO for r, row in zip(refs, inst.values) for v in row])
    return [flat[i * inst.m : (i + 1) * inst.m] for i in range(inst.n)]


def _certificate(
    inst: Instance, c: Fraction, refs: Sequence[Fraction], loads: Sequence[Sequence[int]]
) -> Allocation | None:
    eligible = [[] for _ in range(inst.m)]
    for i, j in eligible_pairs(inst, c, refs):
        eligible[j].append(i)
    if not all(eligible):
        return None
    used = [0] * inst.n
    owner = [0] * inst.m
    for j in sorted(range(inst.m), key=lambda j: -max(loads[a][j] for a in eligible[j])):
        i = min(eligible[j], key=lambda a: used[a] + loads[a][j])
        owner[j] = i
        used[i] += loads[i][j]
    alloc = Allocation(inst.n, tuple(owner))
    for i, bundle in enumerate(alloc.bundles()):
        if bundle_value(inst, i, bundle) < c * refs[i]:
            return None
    return alloc
