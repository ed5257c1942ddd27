"""Feasibility-program pipeline: build, solve, round, and binary-search.

The program for a threshold c >= 0 and reference vector r has a variable x_ij
for every pair with V_ij >= c*r_i, one covering constraint per chore and one
floor constraint per agent (bundle value at least c*r_i).  A point of it is
a ``{(i, j): x_ij}`` dict over its nonzero entries, so a program without
chores has the point ``{}`` and a point is tested with ``is None``.  A basic
feasible point touches at most n+m variables, its positive-support bipartite
graph is a pseudoforest (``_is_pseudoforest`` checks it), and rounding along
that graph (Lenstra, Shmoys and Tardos, 1990) costs each agent at most one
extra eligible chore, i.e. the integral allocation clears the doubled floor.

``_eligible`` alone decides eligibility, by bisecting each chore's integer
loads of ``model._loads`` (sorted once per ``linpro`` call by ``_by_load``);
the program's variables and ``linpro``'s probes read it.  The binary search
needs only a verdict from each probe.  A probe is first offered to a greedy
integral assignment on those loads; one that passes proves the probe
feasible without a program or a simplex solve, and one that fails gets the
simplex verdict.  The vertex rounded is always Bland's vertex of the program
at the final threshold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import simplex
from .algorithms import TraceEvent, wmms_prime
from .errors import (
    NoFeasibleAllocation,
    RoundingInvariantViolation,
    UpperBoundInfeasible,
)
from .model import ZERO, Allocation, Instance, _loads, bundle_value, check_references
from .simplex import StandardForm


@dataclass(frozen=True)
class LPProgram:
    """The chore-covering feasibility program at one threshold; eligibility is its ``variables``."""

    inst: Instance
    thresholds: tuple[Fraction, ...]  # per-agent cutoff t_i, also the bundle floor
    variables: tuple[tuple[int, int], ...]  # (i, j) with V_ij >= t_i, lexicographic

    @property
    def trivially_infeasible(self) -> bool:
        """Some chore has no eligible agent."""
        return len({j for _, j in self.variables}) < self.inst.m


@dataclass(frozen=True)
class LinProResult:
    """``linpro``'s allocation, its search bracket and the ``point`` of ``program`` it rounded."""

    allocation: Allocation
    c_final: Fraction
    lower: Fraction
    iterations: int
    references: tuple[Fraction, ...]
    program: LPProgram
    point: dict[tuple[int, int], Fraction]


def build_program(
    inst: Instance, c: Fraction, refs: Sequence[Fraction]
) -> LPProgram:
    """The program with t_i = c * refs[i] and ``_eligible``'s pairs (c >= 0, refs <= 0)."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"threshold {c} is negative")
    refs = check_references(inst, refs)
    loads, scale = _loads(inst, refs)
    eligible = _eligible(_by_load(loads), c.numerator * scale // c.denominator)
    variables = tuple(sorted((i, j) for j, pairs in enumerate(eligible) for _, i in pairs))
    return LPProgram(inst=inst, thresholds=tuple(c * r for r in refs), variables=variables)


def _standard_form(prog: LPProgram) -> StandardForm:
    """Integer rows: each agent's floor, then each chore's cover ``sum_i x_ij = 1``.

    For ``V_ij = a_ij / D_i`` (``Instance.integer_values``) and ``t_i * D_i =
    p_i / q_i`` in lowest terms, agent i's row is ``sum_j a_ij * q_i * x_ij >=
    p_i``: the floor ``sum_j V_ij x_ij >= t_i`` times ``D_i * q_i > 0``, so a
    positive multiple of it, with the same sign of right-hand side.
    """
    sf = StandardForm(num_vars=len(prog.variables))
    for i, ((ints, denom), t) in enumerate(zip(prog.inst.integer_values, prog.thresholds)):
        bound = t * denom
        q = bound.denominator
        sf.add([ints[j] * q if a == i else 0 for a, j in prog.variables], bound.numerator, "ge")
    for j in range(prog.inst.m):
        sf.add([int(c == j) for _, c in prog.variables], 1, "eq")
    return sf


def check_feasible(prog: LPProgram) -> dict[tuple[int, int], Fraction] | None:
    """A basic feasible point ``{(i, j): x_ij}``, zeros omitted, or None when the program has none."""
    if prog.trivially_infeasible:
        return None
    x = simplex.feasible_basic_point(_standard_form(prog))
    if x is None:
        return None
    return {var: x[k] for k, var in enumerate(prog.variables) if x[k] != 0}


def _is_pseudoforest(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether no component of the graph on distinct (agent, chore) ``edges`` has two cycles.

    One union-find pass: an edge inside a component closes a cycle, an edge
    joining two adds their cycles up, and a second cycle returns False.
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}
    cycles: dict[tuple[str, int], int] = {}  # per root: cycles closed in its component

    def find(node):  # a node seen for the first time is its own root
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in edges:
        ra, rc = find(("a", i)), find(("c", j))
        if ra == rc:
            cycles[rc] = cycles.get(rc, 0) + 1
        else:
            parent[ra] = rc
            cycles[rc] = cycles.get(rc, 0) + cycles.pop(ra, 0)
        if cycles[rc] > 1:
            return False
    return True


def round_extreme_point(
    prog: LPProgram, point: dict[tuple[int, int], Fraction], trace: list[TraceEvent] | None = None
) -> Allocation:
    """Round a basic feasible point to an integral chore assignment.

    Each entry of the point must be a pair of ``prog.variables`` with
    ``0 < x <= 1``, and its support must be a pseudoforest (``_is_pseudoforest``).
    Degree-1 chores carry their whole unit of mass and are peeled off first
    (one pass: peeling a chore changes no other chore's degree); the chores
    left all have degree >= 2 inside pseudotree components, which therefore
    admit a matching covering them.
    The result assigns every chore once and each agent's bundle clears the
    doubled floor 2 * t_i.  Any failed step indicates the point was not a
    basic feasible point of this program and raises
    RoundingInvariantViolation.  A ``trace`` list receives one event per
    chore: peeled chores in peel order, then matched chores in chore order,
    each with the x_ij that assigned it.
    """
    inst = prog.inst
    variables = set(prog.variables)
    chore_adj: dict[int, list[int]] = {j: [] for j in range(inst.m)}  # agents ascending
    for (i, j), v in sorted(point.items()):
        if (i, j) not in variables or not 0 < v <= 1:
            raise RoundingInvariantViolation(f"x[{i},{j}] = {v} is not a program variable in (0, 1]")
        chore_adj[j].append(i)
    if not _is_pseudoforest(point):
        raise RoundingInvariantViolation("support graph is not a pseudoforest")
    if any(not chore_adj[j] for j in range(inst.m)):
        raise RoundingInvariantViolation("some chore has no positive mass")

    owner = [-1] * inst.m
    # Peel chores supported by a single edge; that edge must carry weight 1.
    peeled = [j for j in range(inst.m) if len(chore_adj[j]) == 1]
    for j in peeled:
        i = chore_adj[j][0]
        if point[(i, j)] != 1:
            raise RoundingInvariantViolation(
                f"degree-1 chore {j} carries mass {point[(i, j)]} != 1"
            )
        owner[j] = i

    # Chore-saturating matching on what remains (Kuhn's augmenting paths;
    # chores ascending, candidate agents ascending, so ties resolve to the
    # lowest agent index).
    matched_chore_of: dict[int, int] = {}

    def try_assign(j: int, visited: set[int]) -> bool:
        for i in chore_adj[j]:
            if i in visited:
                continue
            visited.add(i)
            if i not in matched_chore_of or try_assign(matched_chore_of[i], visited):
                matched_chore_of[i] = j
                return True
        return False

    for j in range(inst.m):
        if owner[j] < 0 and not try_assign(j, set()):
            raise RoundingInvariantViolation(f"no chore-saturating matching covers chore {j}")
    for i, j in matched_chore_of.items():
        owner[j] = i
    if trace is not None:
        for step, j in enumerate(peeled + sorted(matched_chore_of.values())):
            trace.append(TraceEvent(step, j, owner[j], point[(owner[j], j)]))

    alloc = Allocation(inst.n, tuple(owner))
    for i, bundle in enumerate(alloc.bundles()):
        got = bundle_value(inst, i, bundle)
        if got < 2 * prog.thresholds[i]:
            raise RoundingInvariantViolation(
                f"agent {i} at {got} misses the doubled floor {2 * prog.thresholds[i]}"
            )
    return alloc


def _by_load(loads: list[list[int | None]]) -> list[list[tuple[int, int]]]:
    """Per chore, its ``(load, agent)`` pairs in ascending order, None loads dropped."""
    return [sorted((x, i) for i, x in enumerate(xs) if x is not None) for xs in zip(*loads)]


def _eligible(ranked: list[list[tuple[int, int]]], top: int) -> list[list[tuple[int, int]]]:
    """Per chore of ``_by_load``, the pairs with ``V_ij >= c * r_i``: load <= top = floor(c*scale)."""
    return [pairs[: bisect_left(pairs, (top + 1,))] for pairs in ranked]


def _certificate(ranked: list[list[tuple[int, int]]], n: int, top: int) -> Allocation | None:
    """A greedy integral point of the program at ``c``, or None when the greedy misses.

    ``ranked`` is ``_by_load(loads)`` and ``top = floor(c * scale)``;
    eligibility comes from ``_eligible``, as in ``build_program``.  Chores go
    in descending order of their largest eligible load, each to the eligible
    agent with the least load after taking it (lowest index on ties).  The
    candidate is returned only if every chore has an eligible owner and every
    floor holds (``used_i <= top``), so a returned allocation proves the
    program feasible; None proves nothing.
    """
    prefixes = _eligible(ranked, top)
    if not all(prefixes):
        return None
    used = [0] * n
    owner = [0] * len(ranked)
    for j in sorted(range(len(ranked)), key=lambda j: -prefixes[j][-1][0]):
        load, i = min([(used[a] + x, a) for x, a in prefixes[j]])
        owner[j], used[i] = i, load
    return None if max(used) > top else Allocation(n, tuple(owner))


def linpro(
    inst: Instance, eps: Fraction, trace: list[TraceEvent] | None = None
) -> LinProResult:
    """Binary-search the smallest feasible threshold and round its vertex.

    References come from ``wmms_prime``.  The search keeps an invariant of
    "upper end feasible" over [1, n] (n is feasible: the largest-share agent
    can absorb everything), kept as integers over ``den = 2^k``, and stops
    once the bracket is within eps/4.  Each probe is certified feasible by
    ``_certificate`` when it can be, and only otherwise gets a program,
    decided by ``check_feasible``; both give the same verdict on every probe
    the certificate accepts.  The vertex rounded is Bland's vertex of the
    program at c_final: the last simplex-decided probe's when that probe was
    the last feasible one, else one solve at c_final (c = n when no probe was
    feasible).  The returned allocation gives every agent at least
    2*c_final times her reference.  ``trace`` receives the rounding
    decisions (see ``round_extreme_point``).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if inst.n < 1:
        raise ValueError("need at least one agent")
    refs = wmms_prime(inst)
    loads, scale = _loads(inst, refs)
    ranked = _by_load(loads)
    lo, hi, den = 1, inst.n, 1
    iterations = 0
    point = None
    while 4 * (hi - lo) * eps.denominator > eps.numerator * den:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        if _certificate(ranked, inst.n, mid * scale // den) is not None:
            hi, point = mid, None
        elif (found := check_feasible(build_program(inst, Fraction(mid, den), refs))) is not None:
            hi, point = mid, found
        else:
            lo = mid
        iterations += 1
    upper, lower = Fraction(hi, den), Fraction(lo, den)
    prog = build_program(inst, upper, refs)
    if point is None:
        point = check_feasible(prog)
        if point is None:
            raise UpperBoundInfeasible(f"threshold {upper} infeasible, yet it is provably feasible")
    return LinProResult(
        allocation=round_extreme_point(prog, point, trace), c_final=upper, lower=lower,
        iterations=iterations, references=refs, program=prog, point=point,
    )


def min_feasible_c(inst: Instance, refs: Sequence[Fraction]) -> Fraction:
    """Exact smallest c >= 0 making the program with references feasible.

    Eligibility only changes at 0 and the positive breakpoints ``load /
    scale`` of ``_loads``; between consecutive breakpoints the minimum
    feasible c solves a small linear program with c as an extra variable.
    Scanning breakpoints in ascending order and keeping the best optimum is
    exact because a program built from a breakpoint's eligibility pattern
    only underestimates eligibility for larger c, never overestimates it.
    """
    refs = check_references(inst, refs)
    loads, scale = _loads(inst, refs)
    breakpoints = {ZERO} | {Fraction(x, scale) for row in loads for x in row if x and x > 0}

    best: Fraction | None = None
    for b in sorted(breakpoints):
        if best is not None and b >= best:
            break
        # The eligibility pattern at b, with c a variable: a floor that reads
        # coeffs . x >= rhs at c = 1 reads coeffs . x - c * rhs >= 0; and c >= b.
        prog = build_program(inst, b, refs)
        if prog.trivially_infeasible:
            continue
        unit = _standard_form(replace(prog, thresholds=refs))
        sf = StandardForm(num_vars=unit.num_vars + 1)
        for k, (coeffs, rhs, sense) in enumerate(unit.rows):
            if k < inst.n:
                sf.add(coeffs + (-rhs,), 0, sense)
            else:
                sf.add(coeffs + (0,), rhs, sense)
        sf.add((0,) * unit.num_vars + (b.denominator,), b.numerator, "ge")
        result = simplex.minimize(sf, [0] * unit.num_vars + [1])
        if result is not None and (best is None or result[0] < best):
            best = result[0]
    if best is None:
        raise NoFeasibleAllocation("program infeasible at every threshold")
    return best
