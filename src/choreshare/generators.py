"""Instance generators: printed fixture tables, adversarial families, random instances.

The family generators renormalize exactly (shares divided by their exact sum,
rows scaled to total -1), so every generated instance passes validation even
where the construction is naturally limiting rather than exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import NoIntegralM, ParameterInconsistent
from .model import Instance

_EPS_DEFAULT = Fraction(1, 10)


def _table1() -> Instance:
    quarter = Fraction(1, 4)
    return Instance(
        shares=(quarter, Fraction(3, 4)),
        values=(
            (-quarter,) * 4,
            (Fraction(-3, 8), Fraction(-3, 8), Fraction(-1, 8), Fraction(-1, 8)),
        ),
    )


def _table2() -> Instance:
    return Instance(
        shares=(Fraction(3, 4), Fraction(1, 4)),
        values=(
            (Fraction(-3, 4), Fraction(-1, 4)),
            (Fraction(-1, 2), Fraction(-1, 2)),
        ),
    )


def _table3(eps: Fraction) -> Instance:
    if not 0 < eps < 1:
        raise ParameterInconsistent(f"eps {eps} outside (0, 1)")
    row = (-1 + eps, -eps)
    return Instance(shares=(eps, 1 - eps), values=(row, row))


def _table4(eps: Fraction) -> Instance:
    if not 0 < eps < Fraction(1, 2):
        raise ParameterInconsistent(f"eps {eps} outside (0, 1/2)")
    row = (-eps + eps * eps, -eps * eps, -eps, -1 + 2 * eps)
    return Instance(shares=(eps, eps, 1 - 2 * eps), values=(row, row, row))


def table5_chore_count(eps: Fraction) -> int:
    """Chore count forced by requiring the second row to total exactly -1.

    The identity (m-2) * eps^2 = (1-eps)^2 pins m; eps values for which
    (1-eps)/eps is not an integer admit no integral m.
    """
    q = (1 - eps) / eps
    if q.denominator != 1:
        raise NoIntegralM(f"eps {eps} gives non-integer chore count 2 + ({q})^2")
    return 2 + int(q) ** 2


def _table5(eps: Fraction) -> Instance:
    if not 0 < eps < Fraction(1, 2):
        raise ParameterInconsistent(f"eps {eps} outside (0, 1/2)")
    m = table5_chore_count(eps)
    row0 = [Fraction(0)] * m
    row0[0] = -1 + eps
    row0[2] = -eps
    row1 = [-eps * eps] * m
    row1[0] = -eps + eps * eps
    row1[1] = -eps
    inst = Instance(shares=(eps, 1 - eps), values=(tuple(row0), tuple(row1)))
    assert inst.row_total(0) == -1 and inst.row_total(1) == -1
    return inst


def paper_table(k: int, eps: Fraction = _EPS_DEFAULT) -> Instance:
    """Fixture instance k in 1..6 (3..5 take an epsilon, default 1/10).

    Table 6 is ``egal_greedy_failure_family`` at its default parameters.
    """
    eps = Fraction(eps)
    if k == 1:
        return _table1()
    if k == 2:
        return _table2()
    if k == 3:
        return _table3(eps)
    if k == 4:
        return _table4(eps)
    if k == 5:
        return _table5(eps)
    if k == 6:
        return egal_greedy_failure_family()
    raise ValueError(f"no table {k}; expected 1..6")


def round_robin_family(n: int) -> Instance:
    """Identical-valuation family on which turn-taking is unboundedly unfair.

    n agents, n^2 chores.  Before renormalization agent i's share is
    n/(n+1)^(n-i) (0-indexed) and the chores come in n blocks of n, block k
    costing 1/(n+1)^(n-k) each, so handing block i to agent i gives everyone
    exactly her share.  Shares and the (identical) rows are then divided by
    their common exact sum 1 - (n+1)^(-n).
    """
    if n < 2:
        raise ValueError("family needs n >= 2")
    shares = [Fraction(n, (n + 1) ** (n - i)) for i in range(n)]
    row = [Fraction(-1, (n + 1) ** (n - (j // n))) for j in range(n * n)]
    total = sum(shares)
    assert total == -sum(row)
    shares = tuple(s / total for s in shares)
    row_norm = tuple(v / total for v in row)
    return Instance(shares=shares, values=(row_norm,) * n)


def round_robin_family_references(n: int) -> tuple[Fraction, ...]:
    """Exact per-agent maxmin benchmarks for ``round_robin_family(n)``.

    Giving block i to agent i puts every bundle at exactly -1 per unit share,
    and no partition can push the worst bundle above the weighted mean -1, so
    the benchmark is the negated (renormalized) share.  This closed form makes
    the family checkable far beyond enumeration range.
    """
    return tuple(-s for s in round_robin_family(n).shares)


def egal_greedy_failure_family(
    T: Fraction = Fraction(8), c: Fraction = Fraction(4), n: int = 7
) -> Instance:
    """Family where balance greed misreads heterogeneous valuations.

    Requires T > c > 1 with 1/c + (n-1)/T = 1 exactly.  Agent 0 holds share
    1/c and values the first n-1 chores at -1/T, the last at -1/c; the other
    n-1 agents hold share 1/T each and value chore j at -(j+1)c/T^2 up to the
    crossover index floor(T * sqrt(2/c)), then 0.  Rows are rescaled exactly
    to -1.
    """
    T, c = Fraction(T), Fraction(c)
    if not T > c > 1:
        raise ParameterInconsistent(f"need T > c > 1, got T={T}, c={c}")
    if Fraction(1) / c + Fraction(n - 1) / T != 1:
        raise ParameterInconsistent(
            f"1/c + (n-1)/T = {Fraction(1) / c + Fraction(n - 1) / T} != 1 "
            f"for T={T}, c={c}, n={n}"
        )
    crossover_sq = 2 * T * T / c
    k = isqrt(crossover_sq.numerator * crossover_sq.denominator) // crossover_sq.denominator

    row0 = [-1 / T] * (n - 1) + [-1 / c]
    assert sum(row0) == -1
    others = [
        -Fraction(j + 1) * c / (T * T) if j + 1 <= k else Fraction(0)
        for j in range(n - 1)
    ] + [Fraction(0)]
    total = sum(others)
    others = [v / -total for v in others]

    shares = (Fraction(1) / c,) + (Fraction(1) / T,) * (n - 1)
    values = (tuple(row0),) + (tuple(others),) * (n - 1)
    return Instance(shares=shares, values=values)


class _Lcg:
    """64-bit linear congruential generator (Knuth MMIX multiplier).

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    drawing the top 31 bits.  Fixed here so seeds reproduce across
    implementations of this format.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_below(self, bound: int) -> int:
        self.state = (6364136223846793005 * self.state + 1442695040888963407) & self._MASK
        return (self.state >> 33) % bound


def random_instance(n: int, m: int, seed: int, style: str = "normalized") -> Instance:
    """Deterministic random instance.

    "normalized" draws integer weights in [1, 1000] and scales each row to
    total exactly -1; "binary" draws each value from {0, -1}.  Shares are
    drawn the same way and scaled to sum exactly 1.
    """
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if style not in ("normalized", "binary"):
        raise ValueError(f"unknown style {style!r}")
    rng = _Lcg(seed)
    weights = [1 + rng.next_below(1000) for _ in range(n)]
    total = sum(weights)
    shares = tuple(Fraction(w, total) for w in weights)
    rows = []
    for _ in range(n):
        if style == "normalized":
            raw = [1 + rng.next_below(1000) for _ in range(m)]
            row_total = sum(raw)
            rows.append(([-a for a in raw], [row_total] * m))
        else:
            rows.append(([-rng.next_below(2) for _ in range(m)], [1] * m))
    return Instance.from_pairs(shares, rows)
