from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import choreshare as cs
from choreshare import lp
from conftest import agent_values, oracle_alpha, oracle_wmms, quick_instances

F = Fraction
HALF = F(1, 2)
T2_REFS = (F(-3, 4), F(-1, 3))


def test_build_program_table2_at_one(table2):
    prog = lp.build_program(table2, F(1), T2_REFS)
    assert prog.eligible_chores == ((0, 1), ())  # the small-share agent prices out
    assert prog.eligible_agents == ((0,), (0,))
    assert prog.variables == ((0, 0), (0, 1))
    assert not prog.trivially_infeasible
    assert lp.check_feasible(prog) is None  # -1 misses the floor -3/4


def test_build_program_table2_at_four_thirds(table2):
    prog = lp.build_program(table2, F(4, 3), T2_REFS)
    point = lp.check_feasible(prog)
    assert point is not None
    assert point.values == {(0, 0): F(1), (0, 1): F(1)}
    assert point.nonzeros() <= table2.n + table2.m
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
    """An instance, a threshold c >= 0 and nonpositive references."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    values = tuple(tuple(draw(EDGE_VALUES) for _ in range(m)) for _ in range(n))
    c = draw(st.sampled_from([F(0), F(1, 2), F(1), F(4, 3), F(2)]))
    refs = tuple(draw(EDGE_VALUES) for _ in range(n))
    return cs.Instance((F(1, n),) * n, values), c, refs


@given(programs())
def test_program_views_match_a_recomputation(drawn):
    inst, c, refs = drawn
    prog = lp.build_program(inst, c, refs)
    agents, chores = range(inst.n), range(inst.m)
    eligible = {(i, j) for i in agents for j in chores if inst.values[i][j] >= c * refs[i]}
    assert prog.thresholds == tuple(c * r for r in refs)
    assert prog.variables == tuple(sorted(eligible))
    assert prog.eligible_chores == tuple(
        tuple(j for j in chores if (i, j) in eligible) for i in agents
    )
    assert prog.eligible_agents == tuple(
        tuple(i for i in agents if (i, j) in eligible) for j in chores
    )
    assert prog.trivially_infeasible == any(
        all((i, j) not in eligible for i in agents) for j in chores
    )


def test_trivially_infeasible_program():
    inst = cs.Instance((F(1),), ((F(-1),),))
    prog = lp.build_program(inst, F(1), (F(-1, 100),))
    assert prog.trivially_infeasible
    assert lp.check_feasible(prog) is None


def test_empty_program_feasible():
    inst = cs.Instance((HALF, HALF), ((), ()))
    prog = lp.build_program(inst, F(1), (F(0), F(0)))
    point = lp.check_feasible(prog)
    assert point is not None and point.values == {}
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
    assert point.values == {(0, 0): HALF, (1, 0): HALF}
    alloc = lp.round_extreme_point(prog, point)
    assert alloc.owner == (0,)


def test_round_integral_point_unchanged(table2):
    prog = lp.build_program(table2, F(4, 3), T2_REFS)
    point = lp.LPPoint(values={(0, 0): F(1), (0, 1): F(1)})
    assert lp.round_extreme_point(prog, point).owner == (0, 0)


def test_round_rejects_bad_mass():
    prog = _single_chore_program()
    short = lp.LPPoint(values={(0, 0): HALF})
    with pytest.raises(cs.RoundingInvariantViolation):
        lp.round_extreme_point(prog, short)
    heavy = lp.LPPoint(values={(0, 0): F(3, 2)})
    with pytest.raises(cs.RoundingInvariantViolation):
        lp.round_extreme_point(prog, heavy)


def test_round_rejects_a_chore_without_mass():
    inst = cs.Instance((F(1),), ((F(-1), F(-1)),))
    prog = lp.build_program(inst, F(1), (F(-2),))
    point = lp.LPPoint(values={(0, 0): F(1)})
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
    point = lp.LPPoint(values={(0, 0): F(1)})
    with pytest.raises(cs.RoundingInvariantViolation, match="misses the doubled floor -1/2"):
        lp.round_extreme_point(prog, point)


def test_round_rejects_non_pseudoforest():
    inst = cs.Instance((F(1, 3),) * 3, ((F(-1), F(-1)),) * 3)
    prog = lp.LPProgram(
        inst=inst,
        thresholds=(F(-2),) * 3,
        variables=tuple((i, j) for i in range(3) for j in range(2)),
    )
    dense = lp.LPPoint(
        values={(i, j): F(1, 3) for i in range(3) for j in range(2)}
    )
    with pytest.raises(cs.RoundingInvariantViolation, match="pseudoforest"):
        lp.round_extreme_point(prog, dense)


def test_assignment_graph_components():
    point = lp.LPPoint(
        values={(0, 0): HALF, (1, 0): HALF, (2, 1): F(1)}
    )
    graph = lp.build_assignment_graph(point)
    assert graph.edges == ((0, 0), (1, 0), (2, 1))
    assert len(graph.components) == 2
    assert graph.is_pseudoforest()


def _search_components(edges):
    """(agents, chores, edge count) per connected component, by breadth-first search."""
    adjacent: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in edges:
        adjacent.setdefault(("a", i), set()).add(("c", j))
        adjacent.setdefault(("c", j), set()).add(("a", i))
    seen: set[tuple[str, int]] = set()
    components = []
    for start in sorted(adjacent):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            frontier = [n for node in frontier for n in adjacent[node] if n not in component]
            component.update(frontier)
        seen |= component
        agents = tuple(sorted(k for kind, k in component if kind == "a"))
        chores = tuple(sorted(k for kind, k in component if kind == "c"))
        components.append((agents, chores, sum(1 for i, _ in edges if i in agents)))
    return components


@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=14))
@example(set())
@example({(0, 0), (0, 1), (1, 0), (1, 1)})  # one cycle: still a pseudoforest
@example({(i, j) for i in range(2) for j in range(3)})  # K_{2,3}: two cycles, not one
@example({(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (2, 3)})
def test_assignment_graph_matches_a_search(edges):
    graph = lp.build_assignment_graph(lp.LPPoint({e: HALF for e in edges}))
    expected = _search_components(edges)
    assert graph.edges == tuple(sorted(edges))
    assert sorted(graph.components) == sorted(expected)
    assert graph.is_pseudoforest() == all(
        count <= len(agents) + len(chores) for agents, chores, count in expected
    )


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


def test_linpro_trace_is_the_rounding(table1):
    trace = []
    result = lp.linpro(table1, F(1, 100), trace=trace)
    assert [(e.step, e.chore, e.agent, e.quantity) for e in trace] == [
        (0, 1, 1, F(1)),
        (1, 2, 1, F(1)),
        (2, 0, 1, F(519, 1024)),
        (3, 3, 0, F(521, 1024)),
    ]
    assert all(e.quantity == result.point.values[(e.agent, e.chore)] for e in trace)
    assert cs.replay_trace(table1.n, table1.m, trace) == result.allocation


def test_linpro_solves_each_threshold_once(table1, monkeypatch):
    solved = []
    check_feasible = lp.check_feasible

    def counting(prog):
        solved.append(prog.thresholds)
        return check_feasible(prog)

    monkeypatch.setattr(lp, "check_feasible", counting)
    result = lp.linpro(table1, F(1, 100))
    # the rounded vertex is the last feasible probe's, not a second solve
    assert len(solved) == result.iterations == len(set(solved))
    assert result.program == lp.build_program(table1, result.c_final, result.references)
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
    monkeypatch.setattr(lp, "check_feasible", lambda prog: None)
    with pytest.raises(cs.UpperBoundInfeasible, match="threshold 2 infeasible"):
        lp.linpro(table2, F(1, 100))


def test_linpro_rejects_an_instance_without_agents():
    with pytest.raises(ValueError, match="need at least one agent"):
        lp.linpro(cs.Instance((), ()), F(1, 100))


def test_linpro_rejects_nonpositive_eps(table1):
    with pytest.raises(ValueError):
        lp.linpro(table1, F(0))


def test_linpro_structure_on_seeded_instances():
    for inst in quick_instances(seeds=2):
        result = lp.linpro(inst, F(1, 100))
        assert result.point.nonzeros() <= inst.n + inst.m
        assert lp.build_assignment_graph(result.point).is_pseudoforest()
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
