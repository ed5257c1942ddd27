"""Exact ground-truth computations by lexicographic branch and bound.

One search, ``_lex_min_max``, has three callers: the oracles ``exact_wmms``
and ``exact_owmms``, and ``algorithms.divide_and_choose`` for the divider's
two-bundle split.  It visits the n^m owner vectors depth first, chores in
index order and owners 0..n-1, so leaves come in lexicographic order.  Values
are nonpositive, so a partial assignment bounds all its completions; a subtree
is pruned only when none of its leaves can be strictly better than the
incumbent, and the witness is the lexicographically first optimum, as with a
full enumeration.  The search is exponential in the worst case: the oracles
certify the polynomial-time algorithms, not compete with them, and a budget
guard (``check_budget``, exact integer n^m comparison) refuses instances
beyond desk scale: ``divide_and_choose``'s split at the default budget
refuses more than 26 chores.  The search works on rows scaled to integers by
``model.integer_row`` and compares quotients by cross multiplication.  Its
sign rule is checked in one place, ``_check_signs``, which both oracles and
``divide_and_choose`` call on their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, NoFeasibleAllocation
from .model import (
    Allocation, Instance, check_references, fairness_report, integer_row, unfairness_degree
)

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
        raise BudgetExceeded(
            f"{n}^{m} = {total} owner vectors exceeds enumeration budget {budget}"
        )
    return total


def _check_signs(inst: Instance) -> None:
    """The search's sign rule: pruning is sound only on nonpositive values, positive shares."""
    if any(s <= 0 for s in inst.shares):
        raise ValueError("needs positive shares")
    if any(v > 0 for row in inst.values for v in row):
        raise ValueError("needs nonpositive values")


def _lex_min_max(
    loads: list[list[int]], weights: list[tuple[int, int]]
) -> tuple[int, int, tuple[int, ...] | None]:
    """Lexicographically first owner vector minimizing max_k load_k * a_k / b_k.

    ``loads[j][k] >= 0`` is the load chore j puts on agent k; ``weights[k]`` is
    ``(a_k, b_k)`` with ``a_k > 0``, and ``b_k = 0`` means k's load must stay 0.
    Returns the optimum's numerator, denominator and owner vector (None when
    no owner vector keeps those agents at 0).  Loads only grow along a path,
    so the largest key of a partial assignment bounds its completions, and a
    child is entered only when that bound is below the incumbent.  The stack
    is explicit (``owner``, ``top_*``): depth is not bounded by recursion.
    """
    n, m = len(weights), len(loads)
    sums = [0] * n
    owner = [-1] * m  # owner[j]: agent chore j is assigned to, -1 before the first
    top_num = [0] * (m + 1)  # top_*[j]: largest key once chores < j are assigned
    top_den = [1] * (m + 1)
    best_num, best_den = 1, 0  # +infinity until the first leaf
    best_owner = None
    # key_k < best  <=>  load_k < cap[k], loads being integers; b_k = 0 caps at 1
    cap = [sum(row[k] for row in loads) + 1 if b else 1 for k, (_, b) in enumerate(weights)]
    j = 0
    while j >= 0:
        if j == m:
            best_num, best_den, best_owner = top_num[m], top_den[m], tuple(owner)
            cap = [-(-best_num * b // (a * best_den)) if b else 1 for a, b in weights]
            j -= 1
            continue
        row = loads[j]
        k = owner[j]
        if k >= 0:
            sums[k] -= row[k]
        num, den = top_num[j], top_den[j]
        if num * best_den >= best_num * den:
            k = n  # the partial assignment already reaches the incumbent
        for k in range(k + 1, n):
            load = sums[k] + row[k]
            if load < cap[k]:
                owner[j] = k
                sums[k] = load
                a, b = weights[k]
                if load * a * den > num * b:
                    num, den = load * a, b
                j += 1
                top_num[j] = num
                top_den[j] = den
                break
        else:
            owner[j] = -1
            j -= 1
    return best_num, best_den, best_owner


def exact_wmms(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact per-agent weighted maxmin shares by lexicographic branch and bound.

    Agents with identical valuation rows share one search, since the result
    depends only on the row.  The witness is the lexicographically first
    partition attaining the optimum.  Raises ValueError when a value is
    positive or a share is not.
    """
    n, m = inst.n, inst.m
    check_budget(n, m, budget)
    _check_signs(inst)
    sh, _ = integer_row(inst.shares)
    per_share = [(1, s) for s in sh]

    by_row: dict[tuple[Fraction, ...], Allocation] = {}
    for row in inst.values:
        if row not in by_row:
            ints, _ = integer_row(row)
            # max min_k V(X_k) / s_k = -(min max_k load(X_k) / s_k), load = -V
            _, _, owners = _lex_min_max([[-v] * n for v in ints], per_share)
            by_row[row] = Allocation(n, owners)

    # The search only ranks integer quotients; the exact rational values are
    # reconstructed here from the witnesses.
    witnesses = tuple(by_row[row] for row in inst.values)
    w = tuple(unfairness_degree(inst, i, witnesses[i]) for i in range(n))
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
    n, m = inst.n, inst.m
    wmms = check_references(inst, wmms)
    check_budget(n, m, budget)
    _check_signs(inst)

    loads = [[0] * n for _ in range(m)]
    weights: list[tuple[int, int]] = []
    for i in range(n):
        ints, denom = integer_row(inst.values[i])
        for j, v in enumerate(ints):
            loads[j][i] = -v
        ref = wmms[i]
        # ratio = own / ref = load * ref.denominator / (-ref.numerator * denom)
        weights.append((ref.denominator, -denom * ref.numerator) if ref < 0 else (1, 0))

    num, den, owners = _lex_min_max(loads, weights)
    if owners is None:
        raise NoFeasibleAllocation(
            "no allocation gives every zero-reference agent value 0"
        )
    return OwmmsResult(max(Fraction(1), Fraction(num, den)), Allocation(n, owners))


def exact_makespan_f(inst: Instance, i: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Minimum over partitions of the largest per-share disutility of a bundle.

    This is the scheduling (makespan) form of the maxmin computation with
    disutility D = -V (Q||Cmax with speeds = shares), so it is
    ``-exact_wmms(inst, budget).w[i]``.
    """
    return -exact_wmms(inst, budget).w[i]


def verify_alpha(
    inst: Instance,
    alloc: Allocation,
    wmms: tuple[Fraction, ...],
    alpha: Fraction,
) -> bool:
    """True iff every agent's own-bundle value is at least alpha times her reference."""
    return fairness_report(inst, alloc, wmms).satisfied_at(alpha)
