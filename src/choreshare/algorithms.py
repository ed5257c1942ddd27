"""Polynomial-time allocation algorithms.

The constructive algorithms are ``naive`` (everything to the largest share),
``egal_greedy`` (balance greedy for one shared valuation row, a factor-2
method), ``divide_and_choose`` (two agents, factor 3/2) and ``binary_wmms``
(exact when every value is 0 or -1).  ``round_robin``,
``multiplicative_greedy`` and ``additive_greedy`` are kept as negative
controls: natural-looking picking rules that can be arbitrarily unfair once
shares are asymmetric.  They share one picking loop (``_pick``) over one chore
order per agent, sorted once per instance, and differ only in which agent
picks next and what the trace records.

Every function is deterministic: each tie-breaking rule is stated in its
docstring, and identical inputs yield identical traces and allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import NormalizationImpossible, NotBinary
from .model import (
    ZERO,
    Allocation,
    Instance,
    bundle_value,
    check_shares,
    division_weights,
    integer_row,
)
from .oracle import _check_signs, _uniform_split, check_budget

TIE_RULES = ("largest-share", "smallest-share")  # multiplicative_greedy's load-tie rules


@dataclass(frozen=True)
class TraceEvent:
    """One allocation decision: at ``step``, ``chore`` went to ``agent``.

    ``quantity`` is the exact value of whatever expression decided the step
    (a per-share bundle value, a picking score, or a chore value, depending
    on the algorithm).
    """

    step: int
    chore: int
    agent: int
    quantity: Fraction


def _emit(
    trace: list[TraceEvent] | None, n: int, owner: Sequence[int], quantity: Fraction
) -> Allocation:
    """The allocation ``owner``; a ``trace`` gets one event per chore, in chore order."""
    if trace is not None:
        trace.extend(TraceEvent(j, j, i, quantity) for j, i in enumerate(owner))
    return Allocation(n, tuple(owner))


def naive(inst: Instance, trace: list[TraceEvent] | None = None) -> Allocation:
    """Give every chore to the agent with the largest share (ties: lowest index)."""
    i_star = max(range(inst.n), key=lambda i: (inst.shares[i], -i))
    return _emit(trace, inst.n, (i_star,) * inst.m, inst.shares[i_star])


def _balance(shares, rows, trace: list[TraceEvent] | None = None):
    """``egal_greedy`` on each row ``(ints, denom)``: yields ``(owner, min_k V(X_k) / s_k)``.

    A per-share value ``x / (denom * s_i)`` is ``x * w_i / (denom * big)``
    with ``(w, big) = model.division_weights([1] * n, shares)``, so agents
    compare on int keys, and the weights serve every row.  ``w_i`` is
    ``big / s_i``: a larger share has a smaller weight, and ties use
    ``-w_i``.  ValueError unless every share is positive.
    """
    check_shares(shares)
    weight, big = division_weights([1] * len(shares), shares)
    agents = range(len(shares))
    for ints, denom in rows:
        totals = [0] * len(shares)
        owner = [0] * len(ints)
        for step, j in enumerate(sorted(range(len(ints)), key=ints.__getitem__)):
            v = ints[j]
            best = max(agents, key=lambda i: ((totals[i] + v) * weight[i], -weight[i], -i))
            totals[best] += v
            owner[j] = best
            if trace is not None:
                quantity = Fraction(totals[best], denom) / shares[best]
                trace.append(TraceEvent(step, j, best, quantity))
        yield owner, Fraction(min(t * w for t, w in zip(totals, weight)), denom * big)


def egal_greedy(
    shares: Sequence[Fraction],
    values: Sequence[Fraction],
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    """Balance greedy for agents sharing a single valuation row.

    Chores are processed from most to least burdensome (ties by chore index).
    Each chore goes to the agent whose per-share bundle value would remain
    largest after taking it; ties prefer the larger share, then the lower
    index.  Decisions are invariant under scaling the row by any positive
    rational, since every compared quantity scales uniformly; the loop runs
    on the row as ``model.integer_row`` scales it, with integer keys
    (``_balance``).  A ``trace`` records the picker's per-share bundle value
    after each chore, built as a Fraction only when tracing.  When there are
    chores, ValueError unless there is an agent and every share is positive.
    """
    shares = tuple(Fraction(s) for s in shares)
    ints, denom = integer_row(values)
    if ints and not shares:
        raise ValueError("need at least one agent")
    # no chores: shares unread
    owner = next(_balance(shares, [(ints, denom)], trace))[0] if ints else ()
    return Allocation(len(shares), tuple(owner))


def wmms_prime(inst: Instance) -> tuple[Fraction, ...]:
    """Greedy per-agent surrogate for the exact weighted maxmin share.

    For each agent i, run ``egal_greedy`` as if everyone shared her row and
    score the realized egalitarian objective s_i * min_k V_i(X_k)/s_k.  The
    surrogate is sandwiched in [2*WMMS_i, WMMS_i]: at most a factor 2 more
    pessimistic than the true share, never more optimistic.  The alternative
    surrogate V_i(X_i) (the agent's own greedy bundle) lacks the upper half of
    that sandwich.  The greedy runs on ``inst.integer_values`` and builds no
    Allocation: only the objective becomes a Fraction.  ValueError unless
    every share is positive.
    """
    balanced = _balance(inst.shares, inst.integer_values)
    return tuple(s * objective for s, (_, objective) in zip(inst.shares, balanced))


def divide_and_choose(
    inst: Instance, trace: list[TraceEvent] | None = None
) -> Allocation:
    """Two-agent protocol guaranteeing each agent 3/2 of her maxmin benchmark.

    With the agents ordered so the divider has the larger share: when the
    chooser's share is at most 1/3 the divider simply takes everything.
    Otherwise the divider's split is ``oracle._uniform_split``'s witness for
    the two shares on her integer row, the first maximizer of her worst
    per-share bundle value in bitmask order; the chooser's earmarked bundle
    is sized for her, and she keeps her preferred side (ties: the earmarked
    one), valued on her row scaled to total -1 as the trace records it.

    Requires n == 2 and the search's sign rule (``oracle._check_signs``:
    positive shares, no positive value anywhere), else ValueError.  With
    chores, an agent who values every chore at 0 has no total to scale by:
    NormalizationImpossible names the lowest such agent.  A split over more
    owner vectors than the oracles' default budget (2^m: m > 26) raises
    BudgetExceeded rather than silently losing the guarantee.
    """
    if inst.n != 2:
        raise ValueError(f"div-cho requires exactly 2 agents, got {inst.n}")
    _check_signs(inst)
    m = inst.m
    if m == 0:
        return Allocation(2, ())
    shares, rows = inst.shares, inst.integer_values
    totals = [sum(ints) for ints, _ in rows]
    if 0 in totals:
        raise NormalizationImpossible(f"agent {totals.index(0)} values every chore at 0")
    chooser = 0 if shares[0] <= shares[1] else 1
    divider = 1 - chooser

    if shares[chooser] <= Fraction(1, 3):
        return _emit(trace, 2, (divider,) * m, shares[divider])

    check_budget(2, m)
    # Owner 0 is the divider's bundle, owner 1 the one earmarked for the chooser.
    # With the chores fed last to first, lexicographic owner order is bitmask
    # order (bit j set: chore j earmarked), so ties go to the same split.
    xs = [-a for a in rows[divider][0][::-1]]
    side_of = _uniform_split(xs, (shares[divider], shares[chooser]))[1][::-1]
    earmarked = sum(a for a, s in zip(rows[chooser][0], side_of) if s)
    value = [Fraction(v, -totals[chooser]) for v in (totals[chooser] - earmarked, earmarked)]
    side = int(value[1] >= value[0])  # the chooser takes the earmarked side on a tie
    owner = [chooser if s == side else divider for s in side_of]
    return _emit(trace, 2, owner, value[side])


def binary_wmms(inst: Instance, trace: list[TraceEvent] | None = None) -> Allocation:
    """Exact maxmin-share allocation when every value is 0 or -1.

    Each chore that some agent values at zero goes to such an agent (lowest
    index), costing its owner nothing.  The remaining chores are worth -1 to
    everyone, and on such uniform values the balance greedy is exact.
    """
    for i, (ints, denom) in enumerate(inst.integer_values):
        for j, a in enumerate(ints):
            if a != 0 and a != -denom:
                raise NotBinary(f"value {Fraction(a, denom)} at agent {i}, chore {j} is not in {{0, -1}}")
    owner = [-1] * inst.m
    for j in range(inst.m):
        for i in range(inst.n):
            if inst.integer_values[i][0][j] == 0:
                owner[j] = i
                break
    free = [j for j in range(inst.m) if owner[j] >= 0]
    rest = [j for j in range(inst.m) if owner[j] < 0]
    sub_trace: list[TraceEvent] = []
    sub = egal_greedy(inst.shares, [Fraction(-1)] * len(rest), trace=sub_trace)
    for pos, j in enumerate(rest):
        owner[j] = sub.owner[pos]
    if trace is not None:
        decisions = [(j, owner[j], ZERO) for j in free]
        decisions += [(rest[e.chore], e.agent, e.quantity) for e in sub_trace]
        trace.extend(TraceEvent(step, *d) for step, d in enumerate(decisions))
    return Allocation(inst.n, tuple(owner))


def _pick(inst: Instance, primary, tie, quantity, trace: list[TraceEvent] | None) -> Allocation:
    """The picking loop the negative controls share.

    Agent i's state is her bundle value so far, kept as an integer ``total``
    over her row's denominator ``D_i`` (``Instance.integer_values``), and her
    number of ``picks``.  At each step the agent with the largest key takes
    her highest-value remaining chore, ties by chore index, and only her key
    is recomputed.  The key is the int ``primary(i, total, picks) * n +
    rank[i]``, the agents ranked once by their distinct ``tie(i)``; as ``0 <=
    rank[i] < n`` it orders like ``(primary, tie(i))``.  A ``trace`` records
    ``quantity(i, j, value)``, with ``value`` her bundle value before the pick
    as a Fraction, built only when tracing.  Her chores come in the stable
    descending order of her integer row (one positive scale, so the same
    order), cached for every rule as ``Instance._preferences``; her cursor
    into it moves past the chores already taken.
    """
    rows, prefs, n = inst.integer_values, inst._preferences, inst.n
    rank = {i: r for r, i in enumerate(sorted(range(n), key=tie))}
    owner = [-1] * inst.m
    cursor = [0] * n
    totals = [0] * n
    picks = [0] * n
    keys = [primary(i, 0, 0) * n + rank[i] for i in range(n)]
    for step in range(inst.m):
        i = keys.index(max(keys))
        ints, denom = rows[i]
        pref, c = prefs[i], cursor[i]
        while owner[pref[c]] >= 0:
            c += 1
        j = pref[c]
        cursor[i] = c
        if trace is not None:
            trace.append(TraceEvent(step, j, i, quantity(i, j, Fraction(totals[i], denom))))
        totals[i] += ints[j]
        picks[i] += 1
        owner[j] = i
        keys[i] = primary(i, totals[i], picks[i]) * n + rank[i]
    return Allocation(inst.n, tuple(owner))


def round_robin(
    inst: Instance,
    order: Sequence[int] | None = None,
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    """Agents take turns (in ``order``) picking their best remaining chore.

    Each picker takes her highest-value (least burdensome) unallocated chore,
    ties by chore index; the trace records that chore's value.
    Share-oblivious; kept as a negative control.
    """
    picking = tuple(order) if order is not None else tuple(range(inst.n))
    if sorted(picking) != list(range(inst.n)):
        raise ValueError(f"order {picking} is not a permutation of the {inst.n} agents")
    position = {agent: k for k, agent in enumerate(picking)}
    # fewest picks first, then the earlier turn: picking[step % n] picks at step
    return _pick(inst, lambda i, total, picks: -picks, lambda i: -position[i],
                 lambda i, j, value: bundle_value(inst, i, (j,)), trace)


def multiplicative_greedy(
    inst: Instance,
    tie_rule: str = "largest-share",
    trace: list[TraceEvent] | None = None,
) -> Allocation:
    """The agent carrying the lightest per-share load picks next.

    Agent i's load is -V_i(X_i)/s_i; each round the agent with minimal load
    (equivalently, maximal V_i(X_i)/s_i) picks her highest-value remaining
    chore (ties by chore index).  Load ties go to the larger or smaller share
    per ``tie_rule``, then to the lower index.  The trace records the
    picker's V_i(X_i)/s_i.  ValueError unless every share is positive.
    Negative control.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    sign = 1 if tie_rule == "largest-share" else -1
    shares = inst.shares
    check_shares(shares)
    # V_i/s_i = T_i/(D_i*s_i) = T_i*w_i/big, one denominator for every agent
    weight, _ = division_weights([denom for _, denom in inst.integer_values], shares)
    return _pick(inst, lambda i, total, picks: total * weight[i], lambda i: (sign * shares[i], -i),
                 lambda i, j, value: value / shares[i], trace)


def additive_greedy(
    inst: Instance, trace: list[TraceEvent] | None = None
) -> Allocation:
    """The agent maximizing share + own-bundle value picks next.

    Ties prefer the larger share, then the lower index; the picker takes her
    highest-value remaining chore (ties by chore index).  The trace records
    the picker's share + own-bundle value.  Negative control.
    """
    shares = inst.shares
    # s_i + T_i/D_i = p_i/q_i + T_i/D_i, times L = lcm(all q_i, all D_i)
    big = lcm(*(s.denominator for s in shares), *(d for _, d in inst.integer_values))
    base = [s.numerator * (big // s.denominator) for s in shares]
    weight = [big // d for _, d in inst.integer_values]
    return _pick(inst, lambda i, total, picks: base[i] + total * weight[i], lambda i: (shares[i], -i),
                 lambda i, j, value: shares[i] + value, trace)
