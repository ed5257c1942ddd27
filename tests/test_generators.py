from fractions import Fraction

import pytest

import choreshare as cs
from choreshare.generators import _Lcg, table5_chore_count
from conftest import agent_values, general_greedy, oracle_wmms

F = Fraction
EPS = F(1, 10)


def test_table1_contents(table1):
    assert table1.shares == (F(1, 4), F(3, 4))
    assert table1.values[0] == (F(-1, 4),) * 4
    assert table1.values[1] == (F(-3, 8), F(-3, 8), F(-1, 8), F(-1, 8))


def test_table2_contents(table2):
    assert table2.shares == (F(3, 4), F(1, 4))
    assert table2.values == ((F(-3, 4), F(-1, 4)), (F(-1, 2), F(-1, 2)))


def test_table3_contents():
    inst = cs.paper_table(3, EPS)
    assert inst.shares == (EPS, F(9, 10))
    assert inst.values[0] == inst.values[1] == (F(-9, 10), F(-1, 10))
    assert cs.validate_instance(inst) == []


def test_table4_contents():
    inst = cs.paper_table(4, EPS)
    assert inst.shares == (EPS, EPS, F(4, 5))
    assert inst.values[0] == (F(-9, 100), F(-1, 100), F(-1, 10), F(-4, 5))
    assert inst.row_total(0) == -1


def test_table5_contents():
    inst = cs.paper_table(5, EPS)
    assert inst.m == 83  # from (m-2) * eps^2 = (1-eps)^2
    assert inst.shares == (EPS, F(9, 10))
    assert inst.values[0][:3] == (F(-9, 10), F(0), F(-1, 10))
    assert set(inst.values[0][3:]) == {F(0)}
    assert inst.values[1][:2] == (F(-9, 100), F(-1, 10))
    assert set(inst.values[1][2:]) == {F(-1, 100)}
    assert inst.row_total(0) == inst.row_total(1) == -1


def test_table5_chore_count_requires_integer():
    assert table5_chore_count(F(1, 7)) == 38
    with pytest.raises(cs.NoIntegralM):
        cs.paper_table(5, F(2, 7))


def test_table_epsilon_ranges():
    with pytest.raises(cs.ParameterInconsistent):
        cs.paper_table(3, F(1))
    with pytest.raises(cs.ParameterInconsistent):
        cs.paper_table(4, F(1, 2))
    with pytest.raises(cs.ParameterInconsistent, match="outside"):
        cs.paper_table(5, F(1, 2))  # (1 - eps) / eps is an integer, so the range check decides


def test_table_index_range():
    with pytest.raises(ValueError):
        cs.paper_table(7)


def test_table6_uses_documented_defaults():
    assert cs.paper_table(6) == cs.egal_greedy_failure_family(F(8), F(4), 7)


def test_round_robin_family_small():
    inst = cs.round_robin_family(2)
    # raw shares (2/9, 2/3) and blocks (-1/9, -1/9, -1/3, -1/3), scaled by 8/9
    assert inst.shares == (F(1, 4), F(3, 4))
    assert inst.values[0] == (F(-1, 8), F(-1, 8), F(-3, 8), F(-3, 8))
    assert inst.values[0] == inst.values[1]
    assert cs.validate_instance(inst) == []


def test_round_robin_family_shape():
    for n in (2, 3, 4):
        inst = cs.round_robin_family(n)
        assert inst.n == n and inst.m == n * n
        assert cs.validate_instance(inst) == []
        assert all(row == inst.values[0] for row in inst.values)
    with pytest.raises(ValueError):
        cs.round_robin_family(1)


def test_round_robin_family_closed_forms():
    # undoing the exact renormalization recovers the defining shares
    # n/(n+1)^(n-i) and block values -1/(n+1)^(n-k), 0-indexed
    for n in (2, 3, 4):
        inst = cs.round_robin_family(n)
        scale = 1 - F(1, (n + 1) ** n)
        for i in range(n):
            assert inst.shares[i] * scale == F(n, (n + 1) ** (n - i))
        for j in range(n * n):
            assert inst.values[0][j] * scale == F(-1, (n + 1) ** (n - j // n))


def test_round_robin_family_references_match_oracle():
    # the closed form (negated normalized shares) is what enumeration finds
    for n in (2, 3):
        inst = cs.round_robin_family(n)
        refs = cs.round_robin_family_references(n)
        assert oracle_wmms(inst).wmms == refs
        assert refs == tuple(-s for s in inst.shares)


def test_failure_family_validates_identity():
    with pytest.raises(cs.ParameterInconsistent, match="!= 1"):
        cs.egal_greedy_failure_family(F(3), F(2), 2)  # 1/2 + 1/3 != 1
    with pytest.raises(cs.ParameterInconsistent, match="!= 1"):
        cs.egal_greedy_failure_family(F(4), F(4, 3), 4)  # 3/4 + 3/4 != 1
    with pytest.raises(cs.ParameterInconsistent, match="T > c > 1"):
        cs.egal_greedy_failure_family(F(2), F(2), 2)


def test_failure_family_contents():
    inst = cs.egal_greedy_failure_family(F(8), F(4), 7)
    assert cs.validate_instance(inst) == []
    assert inst.shares == (F(1, 4),) + (F(1, 8),) * 6
    assert inst.values[0] == (F(-1, 8),) * 6 + (F(-1, 4),)
    # crossover index floor(8 * sqrt(1/2)) = 5, rows rescaled to -1
    assert inst.values[1] == (
        F(-1, 15),
        F(-2, 15),
        F(-1, 5),
        F(-4, 15),
        F(-1, 3),
        F(0),
        F(0),
    )
    assert all(inst.values[i] == inst.values[1] for i in range(2, 7))


def test_failure_family_breaks_general_greedy():
    # the heterogeneous misuse of the balance greedy loads agent 0 far beyond
    # the factor 2 that the identical-valuation analysis guarantees
    inst = cs.egal_greedy_failure_family(F(8), F(4), 7)
    alloc = general_greedy(inst)
    assert alloc.bundles()[0] == (0, 1, 2, 3, 4)
    wmms = oracle_wmms(inst).wmms
    assert wmms[0] == F(-1, 4)
    value = agent_values(inst, alloc)[0]
    assert value / wmms[0] == F(5, 2) > 2


def test_random_instance_determinism_and_styles():
    a = cs.random_instance(3, 6, seed=9)
    assert a == cs.random_instance(3, 6, seed=9)
    assert a != cs.random_instance(3, 6, seed=10)
    assert all(a.row_total(i) == -1 for i in range(3))
    b = cs.random_instance(3, 6, seed=9, style="binary")
    assert all(v in (0, -1) for row in b.values for v in row)
    assert cs.validate_instance(a) == [] and cs.validate_instance(b) == []


@pytest.mark.parametrize("style", ["normalized", "binary"])
@pytest.mark.parametrize("n, m, seed", [(3, 6, 9), (4, 1, 2), (2, 0, 3), (5, 40, 11)])
def test_random_instance_is_the_instance_of_its_fractions(style, n, m, seed):
    inst = cs.random_instance(n, m, seed, style)
    same = cs.Instance(inst.shares, inst.values)
    assert inst == same and hash(inst) == hash(same)
    assert inst.integer_values == same.integer_values


def test_random_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cs.random_instance(0, 3, seed=1)
    with pytest.raises(ValueError):
        cs.random_instance(2, 3, seed=1, style="gaussian")


def test_generator_outputs_validate():
    cases = [cs.paper_table(k) for k in range(1, 7)]
    cases += [cs.round_robin_family(3), cs.random_instance(2, 0, seed=3)]
    for inst in cases:
        assert cs.validate_instance(inst) == []


def test_lcg_reference_sequence():
    # the documented 64-bit LCG; frozen so seeds reproduce across
    # implementations of the format
    gen = _Lcg(42)
    assert [gen.next_below(1000) for _ in range(6)] == [334, 26, 538, 503, 294, 156]
    assert [_Lcg(0).next_below(1000) for _ in range(1)] == [807]


def test_random_instance_reference_values():
    inst = cs.random_instance(2, 3, seed=7)
    assert inst.shares == (F(279, 511), F(232, 511))
    assert inst.values[0] == (F(-377, 987), F(-337, 987), F(-13, 47))
