"""Polynomial-time allocation algorithms.

The constructive algorithms are ``naive`` (everything to the largest share),
``egal_greedy`` (balance greedy for one shared valuation row, a factor-2
method), ``divide_and_choose`` (two agents, factor 3/2) and ``binary_wmms``
(exact when every value is 0 or -1).  ``round_robin``,
``multiplicative_greedy`` and ``additive_greedy`` are kept as negative
controls: natural-looking picking rules that can be arbitrarily unfair once
shares are asymmetric.  They share one picking loop (``_pick``) and differ
only in which agent picks next and what the trace records.

Every function is deterministic: each tie-breaking rule is stated in its
docstring, and identical inputs yield identical traces and allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotBinary
from .model import (
    ZERO,
    Allocation,
    Instance,
    bundle_value,
    integer_row,
    normalize_instance,
    unfairness_degree,
)
from .oracle import _check_signs, _lex_min_max, check_budget

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


def replay_trace(n: int, m: int, trace: Sequence[TraceEvent]) -> Allocation:
    """Rebuild the allocation an algorithm produced from its trace."""
    owner = [-1] * m
    for event in trace:
        owner[event.chore] = event.agent
    if any(o < 0 for o in owner):
        raise ValueError("trace does not cover every chore")
    return Allocation(n, tuple(owner))


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
    rational, since every compared quantity scales uniformly.
    """
    shares = tuple(Fraction(s) for s in shares)
    values = tuple(Fraction(v) for v in values)
    n, m = len(shares), len(values)
    totals = [ZERO] * n
    owner = [0] * m
    order = sorted(range(m), key=lambda j: (values[j], j))
    for step, j in enumerate(order):
        best = 0
        best_cand = (totals[0] + values[j]) / shares[0]
        for i in range(1, n):
            cand = (totals[i] + values[j]) / shares[i]
            if (cand, shares[i], -i) > (best_cand, shares[best], -best):
                best, best_cand = i, cand
        totals[best] += values[j]
        owner[j] = best
        if trace is not None:
            trace.append(TraceEvent(step, j, best, best_cand))
    return Allocation(n, tuple(owner))


def wmms_prime(inst: Instance) -> tuple[Fraction, ...]:
    """Greedy per-agent surrogate for the exact weighted maxmin share.

    For each agent i, run ``egal_greedy`` as if everyone shared her row and
    score the realized egalitarian objective s_i * min_k V_i(X_k)/s_k.  The
    surrogate is sandwiched in [2*WMMS_i, WMMS_i]: at most a factor 2 more
    pessimistic than the true share, never more optimistic.  The alternative
    surrogate V_i(X_i) (the agent's own greedy bundle) lacks the upper half of
    that sandwich.
    """
    out = []
    for i in range(inst.n):
        alloc = egal_greedy(inst.shares, inst.values[i])
        out.append(inst.shares[i] * unfairness_degree(inst, i, alloc))
    return tuple(out)


def divide_and_choose(
    inst: Instance, trace: list[TraceEvent] | None = None
) -> Allocation:
    """Two-agent protocol guaranteeing each agent 3/2 of her maxmin benchmark.

    With the agents ordered so the divider has the larger share: when the
    chooser's share is at most 1/3 the divider simply takes everything.
    Otherwise the divider splits the chores into the pair maximizing her own
    worst per-share bundle value, found by the oracle's lexicographic search
    (``oracle._lex_min_max``) with the same first maximizer in bitmask order,
    and the first bundle is positionally earmarked for the chooser; the
    chooser then keeps her preferred side (ties: the earmarked one).

    Requires n == 2 and the search's sign rule (``oracle._check_signs``:
    positive shares, no positive value anywhere), else ValueError, and a
    normalizable instance; a split the oracle's default budget refuses
    (``check_budget(2, m)``: m > 26) raises BudgetExceeded rather than
    silently losing the guarantee.
    """
    if inst.n != 2:
        raise ValueError(f"div-cho requires exactly 2 agents, got {inst.n}")
    _check_signs(inst)
    m = inst.m
    if m == 0:
        return Allocation(2, ())
    chooser = 0 if inst.shares[0] <= inst.shares[1] else 1
    divider = 1 - chooser
    norm = normalize_instance(inst)

    if norm.shares[chooser] <= Fraction(1, 3):
        return _emit(trace, 2, (divider,) * m, norm.shares[divider])

    check_budget(2, m)

    # The split minimizing the larger per-share load (load = -value): owner 0
    # is the divider's bundle, owner 1 the one earmarked for the chooser.
    # With the chores fed last to first, lexicographic owner order is bitmask
    # order (bit j set: chore j earmarked), so ties go to the same split.
    ints, _ = integer_row(norm.values[divider])
    scaled_shares, _ = integer_row((norm.shares[divider], norm.shares[chooser]))
    _, _, split = _lex_min_max(
        [[-v, -v] for v in reversed(ints)], [(1, s) for s in scaled_shares]
    )
    side_of = split[::-1]
    value = [bundle_value(norm, chooser, [j for j in range(m) if side_of[j] == s]) for s in (0, 1)]
    side = int(value[1] >= value[0])  # the chooser takes the earmarked side on a tie
    owner = [chooser if side_of[j] == side else divider for j in range(m)]
    return _emit(trace, 2, owner, value[side])


def binary_wmms(inst: Instance, trace: list[TraceEvent] | None = None) -> Allocation:
    """Exact maxmin-share allocation when every value is 0 or -1.

    Each chore that some agent values at zero goes to such an agent (lowest
    index), costing its owner nothing.  The remaining chores are worth -1 to
    everyone, and on such uniform values the balance greedy is exact.
    """
    for i, row in enumerate(inst.values):
        for j, v in enumerate(row):
            if v != 0 and v != -1:
                raise NotBinary(f"value {v} at agent {i}, chore {j} is not in {{0, -1}}")
    owner = [-1] * inst.m
    for j in range(inst.m):
        for i in range(inst.n):
            if inst.values[i][j] == 0:
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


def _pick(inst: Instance, picker, quantity, trace: list[TraceEvent] | None) -> Allocation:
    """The picking loop the negative controls share.

    At each step agent ``picker(step, totals)`` takes her highest-value
    remaining chore, ties by chore index, where ``totals[i]`` is agent i's
    bundle value so far; the trace records ``quantity(i, j, totals)`` taken
    before the pick.  Each agent's chores are sorted once, by her row scaled
    to integers (``model.integer_row``: one positive scale, so the same
    order), and her iterator over them skips the chores already taken.
    """
    prefs = []
    for row in inst.values:
        ints, _ = integer_row(row)
        # a stable sort: equal values keep ascending chore order, even reversed
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
    """Agents take turns (in ``order``) picking their best remaining chore.

    Each picker takes her highest-value (least burdensome) unallocated chore,
    ties by chore index; the trace records that chore's value.
    Share-oblivious; kept as a negative control.
    """
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
    """The agent carrying the lightest per-share load picks next.

    Agent i's load is -V_i(X_i)/s_i; each round the agent with minimal load
    (equivalently, maximal V_i(X_i)/s_i) picks her highest-value remaining
    chore (ties by chore index).  Load ties go to the larger or smaller share
    per ``tie_rule``, then to the lower index.  The trace records the
    picker's V_i(X_i)/s_i.  Negative control.
    """
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


def additive_greedy(
    inst: Instance, trace: list[TraceEvent] | None = None
) -> Allocation:
    """The agent maximizing share + own-bundle value picks next.

    Ties prefer the larger share, then the lower index; the picker takes her
    highest-value remaining chore (ties by chore index).  The trace records
    the picker's share + own-bundle value.  Negative control.
    """
    shares = inst.shares
    return _pick(
        inst,
        lambda step, totals: max(
            range(inst.n), key=lambda i: (shares[i] + totals[i], shares[i], -i)
        ),
        lambda i, j, totals: shares[i] + totals[i],
        trace,
    )
