"""Test-only reference: the owner-vector and subset enumerations.

``exact_wmms`` and ``exact_owmms`` are ``choreshare.oracle``'s functions as
they were before the oracle moved to a pruned lexicographic search.  They
score all n^m owner vectors in lexicographic order and keep the first strictly
better one.  ``divide_and_choose`` is ``choreshare.algorithms``'s function as
it was before the divider's split went through that search: it scores all 2^m
subsets in bitmask order and keeps the first strictly better one, on the
instance with each row scaled to total -1.
``lex_min_max`` scans every owner vector of the search's own input, integer
loads per chore and agent with None where the agent may not take the chore,
in lexicographic order.  ``first_completion`` is the search's witness pass
as it was before the chore-by-chore walk replaced it: a depth-first pass in
index order with every load sum capped, stopping at its first owner vector.
They are slow but obviously exact; the differential tests require the
search to return the same values, witnesses, splits and traces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from choreshare.algorithms import TraceEvent
from choreshare.errors import NoFeasibleAllocation, NormalizationImpossible
from choreshare.model import Allocation, Instance, bundle_value
from choreshare.oracle import OracleResult, OwmmsResult


def _scaled_row(row: tuple[Fraction, ...]) -> tuple[list[int], int]:
    denom = lcm(*(v.denominator for v in row)) if row else 1
    return [int(v * denom) for v in row], denom


def lex_min_max(loads: list[list[int | None]]) -> tuple[int, tuple[int, ...]] | None:
    """The first owner vector minimizing the largest per-agent load sum, with that sum.

    ``loads[j][k]`` is None where agent k may not take chore j; None when
    every owner vector gives some chore to such an agent.
    """
    n = len(loads[0]) if loads else 0
    best = None
    for owners in product(range(n), repeat=len(loads)):
        if any(row[k] is None for row, k in zip(loads, owners)):
            continue
        sums = [0] * n
        for row, k in zip(loads, owners):
            sums[k] += row[k]
        key = max(sums, default=0)
        if best is None or key < best[0]:
            best = (key, owners)
    return best


def first_completion(
    loads: list[list[int | None]], cap: int, start: list[int]
) -> tuple[int, ...] | None:
    """The first owner vector keeping every agent's load sum, from ``start``, below ``cap``.

    ``loads[j][k]`` is None where agent k may not take chore j; None when no
    owner vector stays below the cap.
    """
    sums, owners = list(start), []

    def extend(j: int) -> bool:
        if j == len(loads):
            return True
        for k, x in enumerate(loads[j]):
            if x is not None and sums[k] + x < cap:
                sums[k] += x
                owners.append(k)
                if extend(j + 1):
                    return True
                sums[k] -= x
                owners.pop()
        return False

    return tuple(owners) if extend(0) else None


def exact_wmms(inst: Instance) -> OracleResult:
    n, m = inst.n, inst.m
    sh, _ = _scaled_row(inst.shares)

    by_row: dict[tuple[Fraction, ...], Allocation] = {}
    for row in inst.values:
        if row in by_row:
            continue
        ints, _ = _scaled_row(row)
        best_num = best_den = 0  # numerator/denominator of the best min so far
        best_owners: tuple[int, ...] | None = None
        for owners in product(range(n), repeat=m):
            sums = [0] * n
            for j, o in enumerate(owners):
                sums[o] += ints[j]
            # k* = argmin_k sums[k] / sh[k]; shares positive so the quotient
            # order survives cross multiplication.
            k_star = 0
            for k in range(1, n):
                if sums[k] * sh[k_star] < sums[k_star] * sh[k]:
                    k_star = k
            num, den = sums[k_star], sh[k_star]
            if best_owners is None or num * best_den > best_num * den:
                best_num, best_den, best_owners = num, den, owners
        by_row[row] = Allocation(n, best_owners)

    w_vals = []
    wmms_vals = []
    witnesses = []
    for i, row in enumerate(inst.values):
        witness = by_row[row]
        w_i = min(
            bundle_value(inst, i, bundle) / inst.shares[k]
            for k, bundle in enumerate(witness.bundles())
        )
        w_vals.append(w_i)
        wmms_vals.append(inst.shares[i] * w_i)
        witnesses.append(witness)
    return OracleResult(tuple(wmms_vals), tuple(w_vals), tuple(witnesses))


def exact_owmms(inst: Instance, wmms: tuple[Fraction, ...]) -> OwmmsResult:
    n, m = inst.n, inst.m
    int_rows = []
    ratio_scale = []  # per negative-reference agent: ratio = -own * A / B with B > 0
    for i in range(n):
        ints, denom = _scaled_row(inst.values[i])
        int_rows.append(ints)
        ref = wmms[i]
        if ref < 0:
            ratio_scale.append((i, ref.denominator, -denom * ref.numerator))
        else:
            ratio_scale.append((i, 0, 0))
    negative = [i for i in range(n) if wmms[i] < 0]
    zero = [i for i in range(n) if wmms[i] == 0]

    best: tuple[int, int] | None = None  # ratio numerator/denominator, den > 0
    best_owners: tuple[int, ...] | None = None
    for owners in product(range(n), repeat=m):
        own = [0] * n
        for j, o in enumerate(owners):
            own[o] += int_rows[o][j]
        if any(own[z] != 0 for z in zero):
            continue
        num, den = 0, 1
        for i in negative:
            _, a_i, b_i = ratio_scale[i]
            cand_num, cand_den = -own[i] * a_i, b_i
            if cand_num * den > num * cand_den:
                num, den = cand_num, cand_den
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
            best_owners = owners
    if best is None or best_owners is None:
        raise NoFeasibleAllocation(
            "no allocation gives every zero-reference agent value 0"
        )
    alpha = max(Fraction(1), Fraction(best[0], best[1]))
    return OwmmsResult(alpha, Allocation(n, best_owners))


def divide_and_choose(inst: Instance) -> tuple[Allocation, list[TraceEvent]]:
    """The allocation and the trace, for two agents and at most 24 chores."""
    m = inst.m
    trace: list[TraceEvent] = []
    if m == 0:
        return Allocation(2, ()), trace
    chooser = 0 if inst.shares[0] <= inst.shares[1] else 1
    divider = 1 - chooser
    rows = []
    for i in range(2):
        total = inst.row_total(i)
        if total == 0:
            raise NormalizationImpossible(f"agent {i} values every chore at 0")
        rows.append([v / -total for v in inst.values[i]])
    norm = Instance(inst.shares, rows)

    if norm.shares[chooser] <= Fraction(1, 3):
        for j in range(m):
            trace.append(TraceEvent(j, j, divider, norm.shares[divider]))
        return Allocation(2, (divider,) * m), trace

    ints, _ = _scaled_row(norm.values[divider])
    total = sum(ints)
    prefix = [0] * m  # prefix[t] = ints[0] + ... + ints[t-1]
    for t in range(1, m):
        prefix[t] = prefix[t - 1] + ints[t - 1]
    s_c, s_d = norm.shares[chooser], norm.shares[divider]
    # Both per-share quotients share the positive denominator
    # denom * s_c.num * s_d.num once scaled by these integer factors:
    c_chooser = s_c.denominator * s_d.numerator
    c_divider = s_d.denominator * s_c.numerator

    best_mask, best_obj = 0, min(0, total * c_divider)
    current = 0
    for mask in range(1, 1 << m):
        t = (mask & -mask).bit_length() - 1
        current += ints[t] - prefix[t]
        obj = min(current * c_chooser, (total - current) * c_divider)
        if obj > best_obj:
            best_mask, best_obj = mask, obj

    earmarked = [j for j in range(m) if best_mask >> j & 1]
    rest = [j for j in range(m) if not best_mask >> j & 1]
    val_earmarked = bundle_value(norm, chooser, earmarked)
    val_rest = bundle_value(norm, chooser, rest)
    chooser_takes_earmarked = val_earmarked >= val_rest

    owner = [0] * m
    for j in range(m):
        in_earmarked = bool(best_mask >> j & 1)
        owner[j] = chooser if in_earmarked == chooser_takes_earmarked else divider
    chosen_val = val_earmarked if chooser_takes_earmarked else val_rest
    for j in range(m):
        trace.append(TraceEvent(j, j, owner[j], chosen_val))
    return Allocation(2, tuple(owner)), trace
