"""Core data model: instances, allocations and exact fairness evaluation.

Every share, value and ratio in the package is an exact rational; nothing in
the solver path touches floating point.  Shares and ratios are Fractions, and
each value row is held once, as integers in lowest terms (``Instance``).
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
# Python before 3.10.7 has no int-to-text digit limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _lowest_terms(nums: Sequence[int], dens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The row of rationals ``nums[j] / dens[j]`` as ``(ints, denom)`` in lowest terms.

    ``denom > 0`` is the least common denominator of the entries, and no
    factor is shared by all the ints and ``denom``, so equal rows give equal
    pairs.  Each int has its entry's sign, and the ints order like the
    entries.  A zero in ``dens`` raises ZeroDivisionError.
    """
    denom = lcm(*dens)
    ints = [num * (denom // d) for num, d in zip(nums, dens)]
    g = gcd(denom, *ints)
    return tuple([a // g for a in ints] if g > 1 else ints), denom // g


def integer_row(row: Iterable) -> tuple[tuple[int, ...], int]:
    """A row of anything ``Fraction()`` reads, as ``_lowest_terms`` gives it.

    Callers: ``Instance(shares, values)`` for each row, ``egal_greedy``'s
    row, and the share tie keys of ``multiplicative_greedy`` and ``additive_greedy``.
    """
    row = _exact(row)
    return _lowest_terms([x.numerator for x in row], [x.denominator for x in row])


def division_weights(denoms: Sequence[int], xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(w, big)`` with ``t / (D_i * x_i) == t * w_i / big`` and ``w_i = 0`` where ``x_i = 0``.

    For ``x_i = p_i / q_i``: ``big = lcm(D_i * p_i) > 0`` over the nonzero
    ``x_i`` and ``w_i = q_i * (big // (D_i * p_i))``, of the sign of ``x_i``.
    Every layer that divides by a per-agent share or reference weights here:
    ``multiplicative_greedy``, the balance greedy, ``_loads`` and the oracle's ``_uniform_split``.
    """
    units = [d * x.numerator for d, x in zip(denoms, xs)]
    big = lcm(*filter(None, units))
    return [x.denominator * (big // u) if u else 0 for x, u in zip(xs, units)], big


def check_shares(shares: Sequence[Fraction]) -> None:
    """ValueError unless every share is positive, as every rule that divides by one needs."""
    for i, s in enumerate(shares):
        if s <= 0:
            raise ValueError(f"share {s} of agent {i} is not positive")


def _exact(xs: Iterable) -> tuple[Fraction, ...]:
    """``xs`` as a tuple of Fractions; entries that already are Fractions are kept."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


@dataclass(frozen=True, init=False)
class Instance:
    """A chore allocation problem.

    ``shares[i]`` is agent i's liability weight; a valid instance has every
    share in (0, 1] and the shares summing to exactly 1.  Agent i values
    chore j at ``ints[j] / denom <= 0``, ``(ints, denom) = integer_values[i]``
    in lowest terms; the argument ``values`` holds anything ``Fraction()``
    reads.  Instances are immutable and safe to share between workers.
    """

    shares: tuple[Fraction, ...]
    integer_values: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(self, shares: Iterable, values: Iterable[Iterable]) -> None:
        self.__dict__.update(shares=_exact(shares), integer_values=tuple(map(integer_row, values)))

    @classmethod
    def from_pairs(cls, shares: Iterable, rows: Iterable[tuple[Sequence[int], Sequence[int]]]) -> Instance:
        """The instance whose agent i values chore j at ``nums[j] / dens[j]``, ``(nums, dens) = rows[i]``."""
        inst = cls.__new__(cls)
        inst.__dict__.update(shares=_exact(shares), integer_values=tuple(_lowest_terms(*row) for row in rows))
        return inst

    @property
    def n(self) -> int:
        return len(self.shares)

    @property
    def m(self) -> int:
        return len(self.integer_values[0][0]) if self.integer_values else 0

    @cached_property
    def _preferences(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's chores in ``algorithms._pick``'s order; cached like ``values``."""
        rows = self.integer_values
        return tuple(tuple(sorted(range(len(ints)), key=ints.__getitem__, reverse=True)) for ints, _ in rows)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, built on first read and outside ``==``, ``hash`` and ``repr``."""
        return tuple(tuple(Fraction(a, denom) for a in ints) for ints, denom in self.integer_values)

    def row_total(self, i: int) -> Fraction:
        ints, denom = self.integer_values[i]
        return Fraction(sum(ints), denom)


@dataclass(frozen=True)
class Allocation:
    """A partition of the chore set, stored as an owner vector.

    ``owner[j]`` is the int index (``operator.index``) of the agent receiving
    chore j; the induced bundles partition the chore set.
    """

    n: int
    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(map(operator.index, self.owner)))

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundles(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in enumerate(self.owner):
            out[i].append(j)
        return tuple(tuple(b) for b in out)


@dataclass(frozen=True)
class AgentReport:
    """Fairness outcome for one agent.

    ``ratio`` is bundle_value / reference when the reference is negative.  A
    zero reference admits no finite ratio: ``ratio`` is None and the agent
    counts as satisfied (at every threshold) exactly when her bundle value is
    zero -- the "unbounded-satisfied" marker.
    """

    bundle_value: Fraction
    reference: Fraction
    ratio: Fraction | None

    @property
    def unbounded_satisfied(self) -> bool:
        return self.reference == 0 and self.bundle_value == 0


@dataclass(frozen=True)
class FairnessReport:
    """Per-agent bundle values and achieved ratios against reference shares."""

    agents: tuple[AgentReport, ...]

    def worst_ratio(self) -> Fraction | None:
        """Largest achieved ratio over agents with a negative reference.

        Returns None when some zero-reference agent received a nonzero bundle
        (unsatisfiable at any threshold).  Agents at the unbounded-satisfied
        marker impose no constraint and are skipped.
        """
        worst = ZERO
        for a in self.agents:
            if a.ratio is None:
                if not a.unbounded_satisfied:
                    return None
                continue
            worst = max(worst, a.ratio)
        return worst


def validate_instance(inst: Instance) -> list[str]:
    """Return the list of invariant violations (empty iff the instance is valid)."""
    violations: list[str] = []
    n = len(inst.shares)
    if n < 1:
        violations.append("instance has no agents; need n >= 1")
    if len(inst.integer_values) != n:
        violations.append(
            f"value matrix has {len(inst.integer_values)} rows for {n} agents"
        )
    lengths = {len(ints) for ints, _ in inst.integer_values}
    if len(lengths) > 1:
        violations.append(f"value rows have unequal lengths {sorted(lengths)}")
    for i, s in enumerate(inst.shares):
        if not ZERO < s <= ONE:
            violations.append(f"share {s} of agent {i} outside (0, 1]")
    total = sum(inst.shares, ZERO)
    if n >= 1 and total != ONE:
        violations.append(f"shares sum to {total} != 1")
    limit = _int_max_str_digits()
    for i, (ints, denom) in enumerate(inst.integer_values):
        for j, x in enumerate(ints):
            if x > 0:
                violations.append(f"positive value {Fraction(x, denom)} at agent {i}, chore {j}")
        # Each bundle value of agent i is p/q with |p| <= sum |ints| and q | denom,
        # so it prints when both do.  An int of b bits has at most 0.302 * b + 1
        # digits: only past 3 * limit bits are the digits counted exactly.
        longest = max(denom, sum(map(abs, ints)))
        if limit and longest.bit_length() > 3 * limit and longest >= 10**limit:
            violations.append(f"sums of agent {i}'s values can exceed {limit} digits")
    return violations


def validate_allocation(inst: Instance, alloc: Allocation) -> list[str]:
    """Check that an allocation is a partition of the instance's chore set."""
    violations: list[str] = []
    if alloc.n != inst.n:
        violations.append(f"allocation is over {alloc.n} agents, instance has {inst.n}")
    if alloc.m != inst.m:
        violations.append(f"allocation covers {alloc.m} chores, instance has {inst.m}")
    for j, i in enumerate(alloc.owner):
        if not 0 <= i < inst.n:
            violations.append(f"owner[{j}] = {i} out of range")
    return violations


def bundle_value(inst: Instance, i: int, chores: Iterable[int]) -> Fraction:
    """Exact additive value of a chore set to agent i."""
    ints, denom = inst.integer_values[i]
    return Fraction(sum(map(ints.__getitem__, chores)), denom)


def check_references(inst: Instance, refs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The references as Fractions; ValueError unless one per agent, none positive."""
    if len(refs) != inst.n:
        raise ValueError(f"expected {inst.n} references, got {len(refs)}")
    refs = _exact(refs)
    for i, ref in enumerate(refs):
        if ref > 0:
            raise ValueError(f"reference {ref} of agent {i} is positive")
    return refs


def _loads(inst: Instance, refs: Sequence[Fraction]) -> tuple[list[list[int | None]], int]:
    """Each load ``V_ij / r_i`` as an integer over one ``scale > 0``: ``(loads, scale)``.

    Where ``r_i = 0`` the load is 0 if ``V_ij >= 0``, else None: agent i may
    never take chore j.  This is the one zero-reference rule; ``lp``'s
    eligibility and ``oracle.exact_owmms`` read it.  At ``c >= 0`` a bundle
    clears agent i's floor ``c * r_i`` iff its loads sum to at most ``c *
    scale``.  ValueError unless ``refs`` pass ``check_references``.
    """
    refs = check_references(inst, refs)
    # V_ij / r_i = a_ij / (D_i * r_i) = a_ij * w_i / scale for V_ij = a_ij / D_i
    weights, scale = division_weights([denom for _, denom in inst.integer_values], refs)
    return [
        [a * w if w else (None if a < 0 else 0) for a in ints]
        for w, (ints, _) in zip(weights, inst.integer_values)
    ], scale


def fairness_report(
    inst: Instance, alloc: Allocation, refs: Sequence[Fraction]
) -> FairnessReport:
    """Evaluate an allocation against references (each <= 0); ValueError unless both fit inst."""
    refs = check_references(inst, refs)
    violations = validate_allocation(inst, alloc)
    if violations:
        raise ValueError(violations[0])
    agents = []
    for i, bundle in enumerate(alloc.bundles()):
        val = bundle_value(inst, i, bundle)
        ref = refs[i]
        ratio = val / ref if ref != 0 else None
        agents.append(AgentReport(val, ref, ratio))
    return FairnessReport(tuple(agents))
