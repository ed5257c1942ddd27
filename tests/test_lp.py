from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import choreshare as cs
import component_search as reference
import fraction_simplex
from choreshare import lp, simplex
from conftest import agent_values, oracle_alpha, oracle_wmms, quick_instances

F = Fraction
HALF = F(1, 2)
T2_REFS = (F(-3, 4), F(-1, 3))


def test_build_program_table2_at_one(table2):
    prog = lp.build_program(table2, F(1), T2_REFS)
    assert prog.variables == ((0, 0), (0, 1))  # the small-share agent prices out
    assert not prog.trivially_infeasible
    assert lp.check_feasible(prog) is None  # -1 misses the floor -3/4


def test_build_program_table2_at_four_thirds(table2):
    prog = lp.build_program(table2, F(4, 3), T2_REFS)
    point = lp.check_feasible(prog)
    assert point is not None
    assert point == {(0, 0): F(1), (0, 1): F(1)}
    assert len(point) <= table2.n + table2.m
    alloc = lp.round_extreme_point(prog, point)
    assert alloc.owner == (0, 0)


def test_build_program_dominated_thresholds(table2):
    prog = lp.build_program(table2, F(10), T2_REFS)
    assert len(prog.variables) == table2.n * table2.m


def test_build_program_rejects_bad_refs(table2):
    with pytest.raises(ValueError):
        lp.build_program(table2, F(1), (F(-1),))
    with pytest.raises(ValueError):
        lp.build_program(table2, F(1), (F(1), F(-1)))


# Small grids of values, thresholds and references make V_ij == c * r_i common.
EDGE_VALUES = st.sampled_from([F(0), F(-1, 4), F(-1, 2), F(-1), F(-3, 2)])


@st.composite
def programs(draw):
    """An instance, a threshold c >= 0 and nonpositive references.

    c is drawn as often from the instance's own breakpoints V_ij / r_i, where
    eligibility holds with equality, as from a fixed grid.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    values = tuple(tuple(draw(EDGE_VALUES) for _ in range(m)) for _ in range(n))
    refs = tuple(draw(EDGE_VALUES) for _ in range(n))
    grid = st.sampled_from([F(0), F(1, 2), F(1), F(4, 3), F(2)])
    breakpoints = sorted({v / r for r, row in zip(refs, values) if r for v in row})
    c = draw(st.one_of(grid, st.sampled_from(breakpoints)) if breakpoints else grid)
    return cs.Instance((F(1, n),) * n, values), c, refs


@given(programs())
def test_program_views_match_a_recomputation(drawn):
    inst, c, refs = drawn
    prog = lp.build_program(inst, c, refs)
    agents, chores = range(inst.n), range(inst.m)
    eligible = {(i, j) for i in agents for j in chores if inst.values[i][j] >= c * refs[i]}
    assert prog.thresholds == tuple(c * r for r in refs)
    assert prog.variables == tuple(sorted(eligible))
    assert prog.trivially_infeasible == any(
        all((i, j) not in eligible for i in agents) for j in chores
    )


@settings(max_examples=300, deadline=None)
@given(programs())
def test_integer_rows_have_the_fraction_rows_vertex(drawn):
    # Each integer floor is a positive multiple of its Fraction floor, and
    # the chore rows are the same.  On nonpositive values the only other rows
    # with an artificial are floors at t_i = 0, which are all zeros, so unit
    # artificial costs take Bland's path on the Fraction program.
    inst, c, refs = drawn
    prog = lp.build_program(inst, c, refs)
    expected = fraction_simplex.feasible_basic_point(fraction_simplex.standard_form(prog))
    assert simplex.feasible_basic_point(lp._standard_form(prog)) == expected


@pytest.mark.parametrize("c", [F(-1), F(-1, 10**9)])
def test_build_program_rejects_negative_thresholds(c):
    # At c < 0 the Fraction rule V_ij >= c * r_i would still make the
    # zero-valued chores of an agent with r_i = 0 eligible; the integer rule
    # would not.  No threshold below 0 is defined.
    inst = cs.Instance((HALF, HALF), ((F(0),), (F(-1),)))
    with pytest.raises(ValueError, match="negative"):
        lp.build_program(inst, c, (F(0), F(-1)))


def test_trivially_infeasible_program():
    inst = cs.Instance((F(1),), ((F(-1),),))
    prog = lp.build_program(inst, F(1), (F(-1, 100),))
    assert prog.trivially_infeasible
    assert lp.check_feasible(prog) is None


def test_empty_program_feasible():
    inst = cs.Instance((HALF, HALF), ((), ()))
    prog = lp.build_program(inst, F(1), (F(0), F(0)))
    point = lp.check_feasible(prog)
    assert point == {}
    assert lp.round_extreme_point(prog, point).owner == ()


def _single_chore_program():
    inst = cs.Instance((HALF, HALF), ((F(-1),), (F(-1),)))
    return lp.LPProgram(
        inst=inst,
        thresholds=(F(-1, 2), F(-1, 2)),
        variables=((0, 0), (1, 0)),
    )


def test_round_single_fractional_chore():
    # both halves cap at 1/2, so the only feasible point splits the chore;
    # rounding hands it to the lowest-index matched agent and the doubled
    # floor -1 is met with equality
    prog = _single_chore_program()
    point = lp.check_feasible(prog)
    assert point is not None
    assert point == {(0, 0): HALF, (1, 0): HALF}
    alloc = lp.round_extreme_point(prog, point)
    assert alloc.owner == (0,)


def test_round_integral_point_unchanged(table2):
    prog = lp.build_program(table2, F(4, 3), T2_REFS)
    point = {(0, 0): F(1), (0, 1): F(1)}
    assert lp.round_extreme_point(prog, point).owner == (0, 0)


def test_round_rejects_bad_mass():
    prog = _single_chore_program()
    short = {(0, 0): HALF}
    with pytest.raises(cs.RoundingInvariantViolation):
        lp.round_extreme_point(prog, short)
    heavy = {(0, 0): F(3, 2)}
    with pytest.raises(cs.RoundingInvariantViolation):
        lp.round_extreme_point(prog, heavy)


def test_round_rejects_a_chore_without_mass():
    inst = cs.Instance((F(1),), ((F(-1), F(-1)),))
    prog = lp.build_program(inst, F(1), (F(-2),))
    point = {(0, 0): F(1)}
    with pytest.raises(cs.RoundingInvariantViolation, match="no positive mass"):
        lp.round_extreme_point(prog, point)


def test_round_rejects_a_missed_doubled_floor():
    # a point that ignores its program's floor -1/4 rounds to value -1 < -1/2
    inst = cs.Instance((F(1),), ((F(-1),),))
    prog = lp.LPProgram(
        inst=inst,
        thresholds=(F(-1, 4),),
        variables=((0, 0),),
    )
    point = {(0, 0): F(1)}
    with pytest.raises(cs.RoundingInvariantViolation, match="misses the doubled floor -1/2"):
        lp.round_extreme_point(prog, point)


def test_round_rejects_non_pseudoforest():
    inst = cs.Instance((F(1, 3),) * 3, ((F(-1), F(-1)),) * 3)
    prog = lp.LPProgram(
        inst=inst,
        thresholds=(F(-2),) * 3,
        variables=tuple((i, j) for i in range(3) for j in range(2)),
    )
    dense = {(i, j): F(1, 3) for i in range(3) for j in range(2)}
    with pytest.raises(cs.RoundingInvariantViolation, match="pseudoforest"):
        lp.round_extreme_point(prog, dense)


def test_round_refuses_a_point_off_its_program(table1, table2):
    # Every pair of table 1 is eligible at c = 1; table 2 at 6/5 has only
    # agent 0's pairs.  Each point below names a pair that is no variable of
    # its program or an entry outside (0, 1].
    prog1 = lp.build_program(table1, F(1), cs.wmms_prime(table1))
    assert len(prog1.variables) == table1.n * table1.m
    feasible = {(0, 0): F(1), (1, 1): F(1), (1, 2): F(1), (1, 3): F(1)}
    assert lp.round_extreme_point(prog1, feasible).owner == (0, 1, 1, 1)
    prog2 = lp.build_program(table2, F(6, 5), T2_REFS)
    assert prog2.variables == ((0, 0), (0, 1))
    for prog, point in [
        (prog1, {(0, 9): F(1)}),  # no chore 9
        (prog1, {(5, 0): F(1), (1, 1): F(1), (1, 2): F(1), (1, 3): F(1)}),  # no agent 5
        (prog1, {**feasible, (0, 1): F(0)}),  # an explicit zero is no edge to round over
        (prog2, {(1, 0): F(1), (0, 1): F(1)}),  # agent 1 is not eligible for chore 0
    ]:
        with pytest.raises(cs.RoundingInvariantViolation, match="not a program variable"):
            lp.round_extreme_point(prog, point)


# Lists, so the order in which the union-find pass meets the edges is drawn too.
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), unique=True, max_size=14))
@example([])
@example([(0, 0), (0, 1), (1, 0), (1, 1)])  # one cycle: still a pseudoforest
@example([(i, j) for i in range(2) for j in range(3)])  # K_{2,3}: two cycles, not one
@example([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (2, 3)])
@example([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (0, 2)])  # joined last
def test_assignment_graph_matches_a_search(edges):
    assert lp._is_pseudoforest(edges) == reference.is_pseudoforest(edges)


def test_linpro_table1(table1):
    result = lp.linpro(table1, F(1, 100))
    assert result.references == (F(-1, 4), F(-3, 4))
    assert result.iterations == 9
    assert result.c_final == F(513, 512)
    assert result.c_final - result.lower <= F(1, 400)
    wmms = oracle_wmms(table1).wmms
    alpha = oracle_alpha(table1).alpha_star
    assert alpha == 1
    for i, value in enumerate(agent_values(table1, result.allocation)):
        assert value >= F(401, 100) * alpha * wmms[i]


def test_linpro_without_chores():
    # the point of a program with no chores is {}: empty, yet not None
    result = lp.linpro(cs.Instance((HALF, HALF), ((), ())), F(1, 100))
    assert result.point == {}
    assert result.allocation.owner == ()
    assert result.c_final == F(513, 512)
    assert lp.round_extreme_point(result.program, {}).owner == ()


def test_linpro_trace_is_the_rounding(table1):
    trace = []
    result = lp.linpro(table1, F(1, 100), trace=trace)
    assert [(e.step, e.chore, e.agent, e.quantity) for e in trace] == [
        (0, 1, 1, F(1)),
        (1, 2, 1, F(1)),
        (2, 0, 1, F(519, 1024)),
        (3, 3, 0, F(521, 1024)),
    ]
    assert all(e.quantity == result.point[(e.agent, e.chore)] for e in trace)
    assert {e.chore: e.agent for e in trace} == dict(enumerate(result.allocation.owner))


def test_linpro_solves_each_threshold_once(table1, table2, monkeypatch):
    solved = []
    check_feasible = lp.check_feasible

    def counting(prog):
        solved.append(prog.thresholds)
        return check_feasible(prog)

    monkeypatch.setattr(lp, "check_feasible", counting)
    result = lp.linpro(table1, F(1, 100))
    # every probe on table 1 is certified: the one solve is the rounded vertex's
    assert solved == [tuple(result.c_final * r for r in result.references)]
    assert result.program == lp.build_program(table1, result.c_final, result.references)
    # where probes reach the simplex, none is solved twice and c_final is solved
    for inst in [table2, *quick_instances(seeds=2)]:
        for eps in (F(1, 100), F(1, 1000)):
            solved.clear()
            result = lp.linpro(inst, eps)
            assert len(solved) == len(set(solved)) <= result.iterations + 1
            assert tuple(result.c_final * r for r in result.references) in solved
    # with no probe at all, the upper end c = n is solved once
    solved.clear()
    lp.linpro(cs.Instance((F(1),), ((F(-1),),)), F(1, 100))
    assert len(solved) == 1


def test_linpro_table2(table2):
    result = lp.linpro(table2, F(1, 100))
    assert result.c_final == F(683, 512)  # just above the 4/3 optimum
    assert result.allocation.owner == (0, 0)


def test_linpro_single_agent():
    inst = cs.Instance((F(1),), ((F(-1, 2), F(-1, 2)),))
    result = lp.linpro(inst, F(1, 100))
    assert result.iterations == 0
    assert result.c_final == F(1)
    assert result.allocation.owner == (0, 0)


def test_linpro_raises_when_the_fallback_probe_is_infeasible(table2, monkeypatch):
    monkeypatch.setattr(lp, "_certificate", lambda ranked, n, top: None)
    monkeypatch.setattr(lp, "check_feasible", lambda prog: None)
    with pytest.raises(cs.UpperBoundInfeasible, match="threshold 2 infeasible"):
        lp.linpro(table2, F(1, 100))


def test_linpro_raises_when_the_certified_final_probe_is_infeasible(table1, monkeypatch):
    monkeypatch.setattr(lp, "check_feasible", lambda prog: None)
    with pytest.raises(
        cs.UpperBoundInfeasible,
        match="^threshold 513/512 infeasible, yet it is provably feasible$",
    ):
        lp.linpro(table1, F(1, 100))


@given(programs())
@example((cs.Instance((F(1),), ((-HALF, -HALF),)), F(3, 4), (F(-1),)))  # each chore fits, both miss
@example((cs.Instance((HALF, HALF), ((-HALF, -HALF),) * 2), F(2), (F(-1), F(-1))))  # equal loads
@example((cs.Instance((HALF, HALF), ((-HALF, -HALF),) * 2), HALF, (F(-1), F(-1))))  # top is a load
@example((cs.Instance((HALF, HALF), ((F(0), F(-1)), (F(-1), F(0)))), F(0), (F(-1), F(-1))))
# Agent 0 may not take chore 0: its load is None.
@example((cs.Instance((HALF, HALF), ((F(-1), F(0)), (-HALF, -HALF))), F(1), (F(0), F(-1))))
def test_certificate_uses_eligible_pairs_and_clears_every_floor(drawn):
    inst, c, refs = drawn
    prog = lp.build_program(inst, c, refs)
    loads, scale = lp._loads(inst, refs)
    alloc = lp._certificate(lp._by_load(loads), inst.n, c.numerator * scale // c.denominator)
    if alloc is None:
        return
    assert all((i, j) in prog.variables for j, i in enumerate(alloc.owner))
    for i, bundle in enumerate(alloc.bundles()):
        assert cs.bundle_value(inst, i, bundle) >= prog.thresholds[i]
    assert lp.check_feasible(prog) is not None


@st.composite
def linpro_instances(draw):
    """Random normalized and binary instances, the paper's tables and the egal-greedy family."""
    kind = draw(st.sampled_from(["normalized", "binary", "table", "egal-failure"]))
    if kind == "table":
        return cs.paper_table(draw(st.integers(1, 6)))
    if kind == "egal-failure":
        n, T = draw(st.sampled_from([(2, F(3)), (2, F(5)), (3, F(4)), (3, F(6)), (4, F(5))]))
        return cs.egal_greedy_failure_family(T, T / (T - n + 1), n)
    n, m, seed = draw(st.integers(2, 4)), draw(st.integers(1, 8)), draw(st.integers(0, 10**6))
    return cs.random_instance(n, m, seed, kind)


@settings(max_examples=60, deadline=None)
@given(linpro_instances(), st.sampled_from([F(1, 3), F(1, 100), F(1, 1000)]))
def test_linpro_is_the_same_when_the_certificate_refuses(inst, eps):
    with mock.patch.object(lp, "_certificate", lambda ranked, n, top: None):
        every_probe_solved = lp.linpro(inst, eps)
    assert lp.linpro(inst, eps) == every_probe_solved


def test_linpro_rejects_an_instance_without_agents():
    with pytest.raises(ValueError, match="need at least one agent"):
        lp.linpro(cs.Instance((), ()), F(1, 100))


@pytest.mark.parametrize("shares", [(F(0), F(1)), (F(-1), F(2))])
def test_linpro_rejects_a_nonpositive_share(shares):
    # wmms_prime divides by every share: a zero one raised ZeroDivisionError,
    # and a negative one reached the search as an UpperBoundInfeasible
    inst = cs.Instance(shares, ((F(-1), F(-2)),) * 2)
    with pytest.raises(ValueError, match="of agent 0 is not positive"):
        lp.linpro(inst, F(1, 100))


def test_linpro_rejects_nonpositive_eps(table1):
    with pytest.raises(ValueError):
        lp.linpro(table1, F(0))


def test_linpro_structure_on_seeded_instances():
    for inst in quick_instances(seeds=2):
        result = lp.linpro(inst, F(1, 100))
        assert len(result.point) <= inst.n + inst.m
        assert reference.is_pseudoforest(result.point)
        assert sorted(
            j for b in result.allocation.bundles() for j in b
        ) == list(range(inst.m))
        for i, bundle in enumerate(result.allocation.bundles()):
            got = cs.bundle_value(inst, i, bundle)
            assert got >= 2 * result.program.thresholds[i]
        # feasibility is monotone: both ends of [c_final, c_final + 1] pass
        refs = result.references
        assert lp.check_feasible(lp.build_program(inst, result.c_final, refs))
        assert lp.check_feasible(lp.build_program(inst, result.c_final + 1, refs))
        assert lp.check_feasible(lp.build_program(inst, F(inst.n), refs))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4), st.integers(1, 7), st.integers(0, 10**6),
    st.sampled_from(["normalized", "binary"]), st.sampled_from([F(1, 3), F(1, 100)]),
)
def test_linpro_brackets_the_least_feasible_threshold(n, m, seed, style, eps):
    # the search ends within eps/4 above max(1, c*), where c* is exact for its references
    inst = cs.random_instance(n, m, seed, style)
    result = lp.linpro(inst, eps)
    c_star = lp.min_feasible_c(inst, result.references)
    assert c_star <= result.c_final <= max(1, c_star) + eps / 4
    assert result.lower <= max(1, c_star)


def test_min_feasible_c_table1(table1):
    refs = oracle_wmms(table1).wmms
    assert lp.min_feasible_c(table1, refs) == F(1)


def test_min_feasible_c_table2(table2):
    refs = oracle_wmms(table2).wmms
    c_star = lp.min_feasible_c(table2, refs)
    assert c_star == F(4, 3)
    assert lp.check_feasible(lp.build_program(table2, c_star, refs)) is not None
    assert (
        lp.check_feasible(lp.build_program(table2, c_star - F(1, 1000), refs)) is None
    )


def test_min_feasible_c_with_zero_reference():
    inst = cs.Instance((HALF, HALF), ((F(0), F(0)), (F(-1), F(-1))))
    refs = oracle_wmms(inst).wmms
    assert refs == (F(0), F(-1))
    assert lp.min_feasible_c(inst, refs) == F(0)


def test_min_feasible_c_with_zero_references_on_negative_values():
    # every threshold is 0, and nobody is eligible for a chore that costs her
    inst = cs.Instance((HALF, HALF), ((F(-1), F(-1)), (F(-1), F(0))))
    with pytest.raises(cs.NoFeasibleAllocation, match="infeasible at every threshold"):
        lp.min_feasible_c(inst, (F(0), F(0)))


def test_min_feasible_c_is_nonnegative_on_positive_values():
    # A positive value is eligible at every c >= 0; its breakpoint V_ij / r_i
    # is negative, where no program is defined.
    inst = cs.Instance((HALF, HALF), ((F(1), F(-1)), (F(1, 2), F(0))))
    assert lp.min_feasible_c(inst, (F(-1), F(-1))) == 0


def test_min_feasible_c_rejects_positive_refs(table1):
    with pytest.raises(ValueError):
        lp.min_feasible_c(table1, (F(1), F(-1)))


def test_min_feasible_c_rejects_wrong_reference_count(table1):
    with pytest.raises(ValueError, match="expected 2 references, got 1"):
        lp.min_feasible_c(table1, (F(-1),))


def test_min_feasible_c_lower_bounds_alpha_star():
    for inst in quick_instances(seeds=2):
        refs = oracle_wmms(inst).wmms
        assert lp.min_feasible_c(inst, refs) <= oracle_alpha(inst).alpha_star


def test_min_feasible_c_is_minimal():
    # the reported threshold is feasible and anything strictly below is not
    for style in ("normalized", "binary"):
        for seed in range(4):
            inst = cs.random_instance(2, 5, seed, style)
            refs = oracle_wmms(inst).wmms
            c_star = lp.min_feasible_c(inst, refs)
            assert lp.check_feasible(lp.build_program(inst, c_star, refs)) is not None
            if c_star > 0:
                below = c_star - F(1, 10**6)
                assert lp.check_feasible(lp.build_program(inst, below, refs)) is None
