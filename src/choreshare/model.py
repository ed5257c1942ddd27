"""Core data model: instances, allocations and exact fairness evaluation.

All numeric data is held as `fractions.Fraction`, so every share, value and
ratio in the package is an exact rational; nothing in the solver path touches
floating point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import NormalizationImpossible

ZERO = Fraction(0)
ONE = Fraction(1)
# Python before 3.10.7 has no int-to-text digit limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational row as integers over the lcm of its denominators.

    Returns ``(ints, denom)`` with ``ints[j] / denom == row[j]``; ``int``
    entries are accepted.  Every layer that works on integers scales here.
    """
    denom = lcm(*(v.denominator for v in row))
    return [v.numerator * (denom // v.denominator) for v in row], denom


@dataclass(frozen=True)
class Instance:
    """A chore allocation problem.

    ``shares[i]`` is agent i's liability weight; a valid instance has every
    share in (0, 1] and the shares summing to exactly 1.  ``values[i][j]`` is
    agent i's (nonpositive) value for chore j.  Instances are immutable and
    safe to share between workers.
    """

    shares: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", tuple(Fraction(s) for s in self.shares))
        object.__setattr__(
            self, "values", tuple(tuple(Fraction(v) for v in row) for row in self.values)
        )

    @property
    def n(self) -> int:
        return len(self.shares)

    @property
    def m(self) -> int:
        return len(self.values[0]) if self.values else 0

    def row_total(self, i: int) -> Fraction:
        return sum(self.values[i], ZERO)


@dataclass(frozen=True)
class Allocation:
    """A partition of the chore set, stored as an owner vector.

    ``owner[j]`` is the index of the agent receiving chore j; the induced
    bundles partition the chore set.
    """

    n: int
    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", tuple(int(o) for o in self.owner))

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

    def satisfied_at(self, alpha: Fraction) -> bool:
        """True iff every agent's bundle value is at least alpha times her reference."""
        return all(a.bundle_value >= alpha * a.reference for a in self.agents)

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
    if len(inst.values) != n:
        violations.append(
            f"value matrix has {len(inst.values)} rows for {n} agents"
        )
    lengths = {len(row) for row in inst.values}
    if len(lengths) > 1:
        violations.append(f"value rows have unequal lengths {sorted(lengths)}")
    for i, s in enumerate(inst.shares):
        if not ZERO < s <= ONE:
            violations.append(f"share {s} of agent {i} outside (0, 1]")
    total = sum(inst.shares, ZERO)
    if n >= 1 and total != ONE:
        violations.append(f"shares sum to {total} != 1")
    limit = _int_max_str_digits()
    for i, row in enumerate(inst.values):
        ints, denom = integer_row(row)  # denom > 0: each int has its value's sign
        for j, x in enumerate(ints):
            if x > 0:
                violations.append(f"positive value {row[j]} at agent {i}, chore {j}")
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


def normalize_instance(inst: Instance) -> Instance:
    """Scale each agent's row so her total value for all chores is exactly -1.

    Shares are unchanged.  Raises NormalizationImpossible when some agent
    values every chore at 0 (callers fall back to the degenerate/binary path).
    """
    rows = []
    for i in range(inst.n):
        total = inst.row_total(i)
        if total == 0:
            raise NormalizationImpossible(f"agent {i} values every chore at 0")
        rows.append(tuple(v / -total for v in inst.values[i]))
    return Instance(inst.shares, tuple(rows))


def bundle_value(inst: Instance, i: int, chores: Iterable[int]) -> Fraction:
    """Exact additive value of a chore set to agent i."""
    return sum((inst.values[i][j] for j in chores), ZERO)


def unfairness_degree(inst: Instance, i: int, alloc: Allocation) -> Fraction:
    """Minimum over bundles of agent i's bundle value divided by the owner's share."""
    return min(
        bundle_value(inst, i, bundle) / inst.shares[k]
        for k, bundle in enumerate(alloc.bundles())
    )


def check_references(inst: Instance, refs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The references as Fractions; ValueError unless one per agent, none positive."""
    if len(refs) != inst.n:
        raise ValueError(f"expected {inst.n} references, got {len(refs)}")
    refs = tuple(Fraction(r) for r in refs)
    for i, ref in enumerate(refs):
        if ref > 0:
            raise ValueError(f"reference {ref} of agent {i} is positive")
    return refs


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
