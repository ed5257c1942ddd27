"""Test-only reference: the balance greedy and ``wmms_prime`` with ``Fraction`` keys.

``egal_greedy`` and ``wmms_prime`` are ``choreshare.algorithms``'s functions
as they were before the balance loop moved to integer keys.  Every key is
the Fraction ``(totals[i] + v) / shares[i]``, and the surrogate is scored
with ``unfairness_degree`` over an ``Allocation``, so they are slow but
obviously exact; the differential tests require the integer versions to
return the same owners, trace events and references.  The oracle tests
also score witnesses with ``unfairness_degree``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from choreshare.algorithms import TraceEvent
from choreshare.model import ZERO, Allocation, Instance, bundle_value


def unfairness_degree(inst: Instance, i: int, alloc: Allocation) -> Fraction:
    """Minimum over bundles of agent i's bundle value divided by the owner's share."""
    return min(
        bundle_value(inst, i, bundle) / inst.shares[k]
        for k, bundle in enumerate(alloc.bundles())
    )


def egal_greedy(
    shares: Sequence[Fraction],
    values: Sequence[Fraction],
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    shares = tuple(Fraction(s) for s in shares)
    values = tuple(Fraction(v) for v in values)
    n, m = len(shares), len(values)
    if m and not n:
        raise ValueError("need at least one agent")
    totals = [ZERO] * n
    owner = [0] * m
    order = sorted(range(m), key=lambda j: (values[j], j))
    for step, j in enumerate(order):
        v = values[j]
        best = max(range(n), key=lambda i: ((totals[i] + v) / shares[i], shares[i], -i))
        totals[best] += v
        owner[j] = best
        if trace is not None:
            trace.append(TraceEvent(step, j, best, totals[best] / shares[best]))
    return Allocation(n, tuple(owner))


def wmms_prime(inst: Instance) -> tuple[Fraction, ...]:
    out = []
    for i in range(inst.n):
        alloc = egal_greedy(inst.shares, inst.values[i])
        out.append(inst.shares[i] * unfairness_degree(inst, i, alloc))
    return tuple(out)
