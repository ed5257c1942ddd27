"""Feasibility-program pipeline: build, solve, round, and binary-search.

The program for a threshold c and reference vector r has a variable x_ij for
every pair with V_ij >= c*r_i, one covering constraint per chore and one floor
constraint per agent (bundle value at least c*r_i).  A basic feasible point of
it touches at most n+m variables, its positive-support bipartite graph is a
pseudoforest, and rounding along that graph costs each agent at most one extra
eligible chore, i.e. the integral allocation clears the doubled floor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import simplex
from .algorithms import TraceEvent, wmms_prime
from .errors import (
    NoFeasibleAllocation,
    RoundingInvariantViolation,
    UpperBoundInfeasible,
)
from .model import ONE, ZERO, Allocation, Instance, bundle_value, check_references
from .simplex import StandardForm


@dataclass(frozen=True)
class LPProgram:
    """The chore-covering feasibility program at one threshold setting.

    Eligibility is stored once, as ``variables``; the other views derive from it.
    """

    inst: Instance
    thresholds: tuple[Fraction, ...]  # per-agent cutoff t_i, also the bundle floor
    variables: tuple[tuple[int, int], ...]  # (i, j) with V_ij >= t_i, lexicographic

    @property
    def eligible_chores(self) -> tuple[tuple[int, ...], ...]:
        """Per agent i: the chores j with V_ij >= t_i, ascending."""
        return tuple(tuple(j for a, j in self.variables if a == i) for i in range(self.inst.n))

    @property
    def eligible_agents(self) -> tuple[tuple[int, ...], ...]:
        """Per chore j: the agents eligible for it, ascending."""
        return tuple(tuple(i for i, c in self.variables if c == j) for j in range(self.inst.m))

    @property
    def trivially_infeasible(self) -> bool:
        """Some chore has no eligible agent."""
        return len({j for _, j in self.variables}) < self.inst.m


@dataclass(frozen=True)
class LPPoint:
    """A feasible point, keyed by (agent, chore); zeros are omitted."""

    values: dict[tuple[int, int], Fraction]

    def nonzeros(self) -> int:
        return sum(1 for v in self.values.values() if v != 0)


@dataclass(frozen=True)
class AssignmentGraph:
    """Positive-support bipartite graph of a point, with its components.

    Each component is (agent nodes, chore nodes, edge count); in a
    pseudoforest every component has at most one more edge than a tree.
    """

    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]

    def is_pseudoforest(self) -> bool:
        return all(
            edges <= len(agents) + len(chores)
            for agents, chores, edges in self.components
        )


@dataclass(frozen=True)
class LinProResult:
    allocation: Allocation
    c_final: Fraction
    lower: Fraction
    iterations: int
    references: tuple[Fraction, ...]
    program: LPProgram
    point: LPPoint


def build_program(
    inst: Instance, c: Fraction, refs: Sequence[Fraction]
) -> LPProgram:
    """Instantiate the program with t_i = c * refs[i] (refs nonpositive)."""
    c = Fraction(c)
    cutoffs = tuple(c * r for r in check_references(inst, refs))
    variables = tuple(
        (i, j) for i, row in enumerate(inst.values) for j, v in enumerate(row) if v >= cutoffs[i]
    )
    return LPProgram(inst=inst, thresholds=cutoffs, variables=variables)


def _standard_form(prog: LPProgram) -> StandardForm:
    sf = StandardForm(num_vars=len(prog.variables))
    agent_rows = [[ZERO] * sf.num_vars for _ in range(prog.inst.n)]
    chore_rows = [[ZERO] * sf.num_vars for _ in range(prog.inst.m)]
    for k, (i, j) in enumerate(prog.variables):
        agent_rows[i][k] = prog.inst.values[i][j]
        chore_rows[j][k] = ONE
    for coeffs, threshold in zip(agent_rows, prog.thresholds):
        sf.add(coeffs, threshold, "ge")
    for coeffs in chore_rows:
        sf.add(coeffs, ONE, "eq")
    return sf


def check_feasible(prog: LPProgram) -> LPPoint | None:
    """A basic feasible point of the program, or None when it has none."""
    if prog.trivially_infeasible:
        return None
    x = simplex.feasible_basic_point(_standard_form(prog))
    if x is None:
        return None
    return LPPoint({var: x[k] for k, var in enumerate(prog.variables) if x[k] != 0})


def build_assignment_graph(point: LPPoint) -> AssignmentGraph:
    edges = tuple(sorted(point.values.keys()))
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(node):  # a node seen for the first time is its own root
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    for i, j in edges:
        ra, rc = find(("a", i)), find(("c", j))
        if ra != rc:
            parent[ra] = rc
    groups: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    edge_count = Counter(find(("a", i)) for i, _ in edges)
    components = []
    for root in sorted(groups):
        members = groups[root]
        agents = tuple(sorted(k for kind, k in members if kind == "a"))
        chores = tuple(sorted(k for kind, k in members if kind == "c"))
        components.append((agents, chores, edge_count[root]))
    return AssignmentGraph(edges=edges, components=tuple(components))


def round_extreme_point(
    prog: LPProgram, point: LPPoint, trace: list[TraceEvent] | None = None
) -> Allocation:
    """Round a basic feasible point to an integral chore assignment.

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
    graph = build_assignment_graph(point)
    if not graph.is_pseudoforest():
        raise RoundingInvariantViolation("support graph is not a pseudoforest")

    chore_adj: dict[int, list[int]] = {j: [] for j in range(inst.m)}  # agents ascending
    for i, j in graph.edges:
        v = point.values[(i, j)]
        if v < 0 or v > 1:
            raise RoundingInvariantViolation(f"x[{i},{j}] = {v} outside [0, 1]")
        chore_adj[j].append(i)
    if any(not chore_adj[j] for j in range(inst.m)):
        raise RoundingInvariantViolation("some chore has no positive mass")

    owner = [-1] * inst.m
    # Peel chores supported by a single edge; that edge must carry weight 1.
    peeled = [j for j in range(inst.m) if len(chore_adj[j]) == 1]
    for j in peeled:
        i = chore_adj[j][0]
        if point.values[(i, j)] != 1:
            raise RoundingInvariantViolation(
                f"degree-1 chore {j} carries mass {point.values[(i, j)]} != 1"
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
            trace.append(TraceEvent(step, j, owner[j], point.values[(owner[j], j)]))

    alloc = Allocation(inst.n, tuple(owner))
    for i, bundle in enumerate(alloc.bundles()):
        got = bundle_value(inst, i, bundle)
        if got < 2 * prog.thresholds[i]:
            raise RoundingInvariantViolation(
                f"agent {i} at {got} misses the doubled floor {2 * prog.thresholds[i]}"
            )
    return alloc


def linpro(
    inst: Instance, eps: Fraction, trace: list[TraceEvent] | None = None
) -> LinProResult:
    """Binary-search the smallest feasible threshold and round its vertex.

    References come from ``wmms_prime``.  The search keeps an invariant of
    "upper end feasible" over [1, n] (n is feasible: the largest-share agent
    can absorb everything) and stops once the bracket is within eps/4; the
    vertex of the last feasible probe (of c = n when no probe was feasible)
    is rounded.  The returned allocation gives every agent at least
    2*c_final times her reference.  ``trace`` receives the rounding
    decisions (see ``round_extreme_point``).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if inst.n < 1:
        raise ValueError("need at least one agent")
    refs = wmms_prime(inst)
    upper = Fraction(inst.n)
    lower = Fraction(1)
    iterations = 0
    prog = point = None
    while upper - lower > eps / 4:
        mid = (upper + lower) / 2
        probe = build_program(inst, mid, refs)
        probe_point = check_feasible(probe)
        if probe_point is not None:
            upper, prog, point = mid, probe, probe_point
        else:
            lower = mid
        iterations += 1
    if point is None:
        prog = build_program(inst, upper, refs)
        point = check_feasible(prog)
        if point is None:
            raise UpperBoundInfeasible(
                f"threshold {upper} infeasible, yet {inst.n} is provably feasible"
            )
    allocation = round_extreme_point(prog, point, trace)
    return LinProResult(
        allocation=allocation,
        c_final=upper,
        lower=lower,
        iterations=iterations,
        references=refs,
        program=prog,
        point=point,
    )


def min_feasible_c(inst: Instance, refs: Sequence[Fraction]) -> Fraction:
    """Exact smallest c >= 0 making the program with references feasible.

    Eligibility only changes at the finitely many breakpoints V_ij / refs[i];
    between consecutive breakpoints the minimum feasible c solves a small
    linear program with c as an extra variable.  Scanning breakpoints in
    ascending order and keeping the best optimum is exact because a program
    built from a breakpoint's eligibility pattern only underestimates
    eligibility for larger c, never overestimates it.
    """
    refs = check_references(inst, refs)
    breakpoints = {ZERO}
    for i in range(inst.n):
        if refs[i] < 0:
            for j in range(inst.m):
                breakpoints.add(inst.values[i][j] / refs[i])

    best: Fraction | None = None
    for b in sorted(breakpoints):
        if best is not None and b >= best:
            break
        # The eligibility pattern at b, with c a variable: agent rows become
        # V_i . x_i - c * refs[i] >= 0, and c >= b.
        prog = build_program(inst, b, refs)
        if prog.trivially_infeasible:
            continue
        fixed = _standard_form(prog)
        sf = StandardForm(num_vars=fixed.num_vars + 1)
        for k, (coeffs, rhs, sense) in enumerate(fixed.rows):
            if k < inst.n:
                sf.add(coeffs + (-refs[k],), ZERO, sense)
            else:
                sf.add(coeffs + (ZERO,), rhs, sense)
        sf.add((ZERO,) * fixed.num_vars + (ONE,), b, "ge")
        objective = [ZERO] * fixed.num_vars + [ONE]
        result = simplex.minimize(sf, objective)
        if result is not None:
            value = result[0]
            if best is None or value < best:
                best = value
    if best is None:
        raise NoFeasibleAllocation("program infeasible at every threshold")
    return best
