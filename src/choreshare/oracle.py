"""Exact ground-truth computations by branch and bound and completion queries, or subset sums.

The oracles ``exact_wmms`` and ``exact_owmms`` solve min-max problems over
per-agent loads: WMMS_i minimizes max_k -V_i(X_k) / s_k, a uniform-machines
makespan, and alpha* minimizes max_i V_i(X_i) / WMMS_i, an unrelated-machines
one.  Each divides by the shares or the references with
``model.division_weights`` (the references through ``model._loads``), so
their one search, ``_lex_min_max``, compares integer load sums on one scale.
It finds the optimum by a branch and bound over the chores, heaviest first,
from one above a greedy's largest sum (the same optimal leaf, fewer nodes),
and then builds the lexicographically first optimal witness chore by chore,
asking the same depth-first loop, ``_search``, whether the chores left can
still be completed within the optimum from the load sums so far.  The
search is exponential in the worst case: the oracles certify the
polynomial-time algorithms, not compete with them, and a budget guard
(``check_budget``, exact integer n^m comparison) refuses instances beyond
desk scale.  One entry, ``_uniform_split``, splits a row over the shares
for ``exact_wmms`` and ``algorithms.divide_and_choose`` (behind the same
guard: div-cho refuses m > 26 by default), by subset sums on two agents
within a bit bound, else by the search.  The search's sign rule is checked
in ``_check_signs``, which both oracles and ``divide_and_choose`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, NoFeasibleAllocation
from .model import Allocation, Instance, _loads, check_shares, division_weights

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class OracleResult:
    """Exact weighted maxmin shares with attaining witness partitions.

    ``w[i]`` is the best achievable egalitarian objective for agent i (the
    max over partitions of the min bundle-value-per-share), ``wmms[i]`` is
    ``shares[i] * w[i]``, and ``witness_partitions[i]`` attains ``w[i]``.
    """

    wmms: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    witness_partitions: tuple[Allocation, ...]


@dataclass(frozen=True)
class OwmmsResult:
    """The smallest ratio at which every agent can be satisfied simultaneously."""

    alpha_star: Fraction
    witness: Allocation


def check_budget(n: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Return n^m, raising BudgetExceeded when it exceeds the budget."""
    total = n**m
    if total > budget:
        # n^m is spelled out only while short: past sys.get_int_max_str_digits()
        # digits, printing it raises ValueError
        value = f" = {total}" if total < 10**100 else ""
        raise BudgetExceeded(f"{n}^{m}{value} owner vectors exceeds enumeration budget {budget}")
    return total


def _check_signs(inst: Instance) -> None:
    """The search's sign rule: pruning is sound only on nonpositive values, positive shares."""
    check_shares(inst.shares)
    if any(a > 0 for ints, _ in inst.integer_values for a in ints):
        raise ValueError("needs nonpositive values")


def _search(
    loads: list[list[int]], cap: int, first_leaf: bool, start: list[int]
) -> tuple[int | None, tuple[int, ...] | None]:
    """One depth-first pass over owner vectors: chores in list order, owners 0..n-1.

    Agent k's load sum starts at ``start[k]`` (the list is not changed), and
    leaves come in lexicographic order.  A child is entered only when its
    agent's load sum stays below ``cap``.  With ``first_leaf`` the cap is
    fixed and the pass returns its first leaf, the first completion of the
    start sums; without it the pass is a branch and bound whose cap drops to
    each new incumbent's largest sum, so it returns the first leaf of least
    largest sum.  Either way the result is ``(largest sum, owners)``, or
    ``(None, None)`` when no leaf is within the cap.  The largest sum is
    over the agents given a chore in the pass: the branch and bound starts
    from zero sums, and a completion is read for its owners alone.  The
    stack is explicit (``owner``, ``top``): depth is not bounded by
    recursion.
    """
    n, m = len(start), len(loads)
    sums = list(start)
    owner = [-1] * m  # owner[j]: agent chore j is assigned to, -1 before the first
    top = [0] * (m + 1)  # top[j]: largest sum once chores < j are assigned
    best = None, None  # the last leaf's largest sum and owners
    j = 0
    while j >= 0:
        if j == m:
            best = top[m], tuple(owner)
            if first_leaf:
                break
            cap = top[m]
            j -= 1
            continue
        row = loads[j]
        k = owner[j]
        if k >= 0:
            sums[k] -= row[k]
        largest = top[j]
        if largest >= cap:
            k = n  # the partial assignment already reaches the incumbent
        for k in range(k + 1, n):
            load = sums[k] + row[k]
            if load < cap:
                owner[j] = k
                sums[k] = load
                j += 1
                top[j] = load if load > largest else largest
                break
        else:
            owner[j] = -1
            j -= 1
    return best


def _lex_min_max(loads: list[list[int | None]]) -> tuple[int | None, tuple[int, ...] | None]:
    """Lexicographically first owner vector minimizing the largest per-agent load sum.

    ``loads[j][k] >= 0`` is the load chore j puts on agent k, already divided
    by k's share or reference and on one scale for every agent; None means k
    may not take j.  Returns ``(opt, owners)``, or ``(None, None)`` when no
    owner vector avoids every None.  Every caller is in this module.

    A None becomes one more than the sum of all finite loads, which no cap
    admits.  Phase A finds the optimal value by a ``_search`` branch and
    bound over the chores in descending order of their load sums (ties by
    index): the optimum does not depend on the order, and big chores first
    reach a good incumbent early and cut more.  Its cap starts at
    ``min(G + 1, never)``, G the largest sum of a greedy giving each chore,
    in that order, to the agent with the least sum after taking it.  Each
    leaf lowers the cap and a node is entered only below it, so any start
    in ``(opt, never]`` gives the same first leaf of value opt.  With the
    cap at ``opt + 1`` every leaf within it is optimal, and the
    lexicographically first of them, the witness an index-order branch and
    bound or a full enumeration returns, is built one chore at a time: chore
    j goes to the lowest agent k for which the chores after j can still be
    completed within the cap.

    The walk keeps a known completion, at first phase A's leaf.  Its owner
    of chore j has a completion, so only the agents below it need a check:
    k is skipped when its sum so far plus j's load reaches the cap, and is
    otherwise asked for by a first-leaf ``_search`` over the chores after j,
    in phase A's order, from the current sums with j on k.  Whether a
    completion exists does not depend on that order, and the leaf found is
    the next known completion.  Each known completion is the first leaf
    within the cap in its pass's order, so moving one of its chores to a
    lower agent leaves some sum at the cap or above (else that vector came
    first): no check is answered without a search.
    """
    never = sum(x for row in loads for x in row if x is not None) + 1
    loads = [[never if x is None else x for x in row] for row in loads]
    n, m = len(loads[0]) if loads else 0, len(loads)
    order = sorted(range(m), key=lambda j: -sum(loads[j]))
    rows, sums = [loads[j] for j in order], [0] * n
    for row in rows:  # the greedy: each chore to the least sum after taking it
        k = min(range(n), key=lambda k: sums[k] + row[k])
        sums[k] += row[k]
    opt, leaf = _search(rows, min(max(sums, default=0) + 1, never), False, [0] * n)
    if opt is None:
        return None, None
    cap, sums = opt + 1, [0] * n
    owners = [k for _, k in sorted(zip(order, leaf))]  # phase A's leaf in index order
    for j, row in enumerate(loads):
        for k in range(owners[j]):
            if sums[k] + row[k] < cap:
                rest = [i for i in order if i > j]
                sums[k] += row[k]
                found = _search([loads[i] for i in rest], cap, True, sums)[1]
                sums[k] -= row[k]
                if found is not None:
                    for i, o in zip([j, *rest], [k, *found]):
                        owners[i] = o
                    break
        sums[owners[j]] += row[owners[j]]
    return opt, tuple(owners)


# The two-agent suffix sets hold m * (T + 1) bits, T the row's total size.
# Within 2^26 bits (8 MiB) a row takes at most about 30 ms (Intel Xeon, Python
# 3.11); past it the search, whose time does not grow with T, takes the row, as
# T has no bound for rationals over a large lcm.
_TWO_AGENT_BITS = 1 << 26


def _uniform_split(xs: list[int], shares: tuple[Fraction, ...]) -> tuple[Fraction, tuple[int, ...]]:
    """The least worst ``size / s_k`` over splits of chore sizes ``xs[j] >= 0``, and the first split.

    That is ``(opt / big, owners)`` for ``_lex_min_max`` on the rows
    ``[x * w_k]``, ``(w, big) = model.division_weights([1] * n, shares)``.
    Two agents within ``_TWO_AGENT_BITS`` take a subset sum: the cost
    ``max(A * w0, (T - A) * w1)`` of agent 0's size A is convex, so the
    optimum is at a reachable sum next to ``T * w1 / (w0 + w1)``.  Chore j
    goes to agent 0 exactly when the chores after it can still bring her
    size into the optimum's window ``[lo, hi]``: the first witness.
    """
    weight, big = division_weights([1] * len(shares), shares)
    m, total = len(xs), sum(xs)
    if len(shares) != 2 or m * (total + 1) > _TWO_AGENT_BITS:
        opt, owners = _lex_min_max([[x * w for w in weight] for x in xs])
        return Fraction(opt, big), owners
    w0, w1 = weight
    suffix = [1] * (m + 1)  # bit s of suffix[j]: some subset of chores j.. sums to s
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] | suffix[j + 1] << xs[j]
    mid = total * w1 // (w0 + w1)
    below = (suffix[0] & ((2 << mid) - 1)).bit_length() - 1
    above = suffix[0] >> (mid + 1)
    nearest = (below, mid + (above & -above).bit_length()) if above else (below,)
    opt = min(max(a * w0, (total - a) * w1) for a in nearest)
    lo, hi = max(0, total - opt // w1), opt // w0
    owners, a = [], 0
    for j, x in enumerate(xs):
        start, end = max(0, lo - a - x), hi - a - x
        if end >= start and suffix[j + 1] >> start & ((2 << (end - start)) - 1):
            owners.append(0)
            a += x
        else:
            owners.append(1)
    return Fraction(opt, big), tuple(owners)


def exact_wmms(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact per-agent weighted maxmin shares.

    Agents with identical valuation rows share one solve, since the result
    depends only on the row: ``_uniform_split`` gives the optimum and the
    lexicographically first optimal partition.  Raises ValueError when a
    value is positive or a share is not.
    """
    check_budget(inst.n, inst.m, budget)
    _check_signs(inst)
    by_row: dict[tuple[tuple[int, ...], int], tuple[Fraction, Allocation]] = {}
    for row in inst.integer_values:
        if row not in by_row:
            # max min_k V(X_k) / s_k = -(min max_k -V(X_k) / s_k), and
            # -V(X_k) is X_k's size sum over the row's denominator
            value, owners = _uniform_split([-v for v in row[0]], inst.shares)
            by_row[row] = -value / row[1], Allocation(inst.n, owners)

    w = tuple(by_row[row][0] for row in inst.integer_values)
    witnesses = tuple(by_row[row][1] for row in inst.integer_values)
    return OracleResult(tuple(s * w_i for s, w_i in zip(inst.shares, w)), w, witnesses)


def exact_owmms(
    inst: Instance, wmms: tuple[Fraction, ...], budget: int = DEFAULT_BUDGET
) -> OwmmsResult:
    """Smallest alpha >= 1 admitting an allocation with V_i(X_i) >= alpha * wmms[i].

    Agents with wmms[i] == 0 admit no finite ratio; an allocation qualifies
    only if it gives each of them value exactly 0, and they are skipped in the
    ratio maximum.  The witness is the lexicographically first allocation
    attaining the minimum.  Raises ValueError when a reference or a value is
    positive or a share is not, or when there is not one reference per agent.
    """
    loads, scale = _loads(inst, wmms)  # checks the references first
    check_budget(inst.n, inst.m, budget)
    _check_signs(inst)
    opt, owners = _lex_min_max(list(zip(*loads)))
    if owners is None:
        raise NoFeasibleAllocation("no allocation gives every zero-reference agent value 0")
    return OwmmsResult(max(Fraction(1), Fraction(opt, scale)), Allocation(inst.n, owners))
