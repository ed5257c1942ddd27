"""Differential tests: the oracle's search against full enumeration and a plain pass.

The search returns the lexicographically first optimum and the enumeration
keeps the first strictly better owner vector, so they must agree on every
value and on every witness, not merely on the optimum.  The same holds for
the divider's split in ``divide_and_choose``, whose owner vectors are subsets
in bitmask order, and for the kernel ``_lex_min_max`` on its own inputs.
Past the sizes a full scan reaches, ``_lex_min_max``'s chore-by-chore walk
must return the first owner vector of an index-order pass capped one above
the branch and bound's optimum, the witness pass it replaced; and each
completion query, a first-leaf ``_search`` from given load sums, must
return that pass's first completion from the same sums.  The one split of a
row over the shares, ``_uniform_split``, must return exactly what
``_lex_min_max`` returns on the rows weighted by ``model.division_weights``,
over their scale, for any number of agents: two agents take a subset sum.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import choreshare as cs
import enumeration_oracle as reference
from choreshare import oracle
from choreshare.model import division_weights
from choreshare.oracle import _lex_min_max, _search, _uniform_split

F = Fraction


@st.composite
def rows(draw, m, earlier):
    kind = draw(st.sampled_from(["normalized", "binary", "zero", "copy"]))
    if kind == "copy" and earlier:
        return draw(st.sampled_from(earlier))
    if kind == "zero":
        return (F(0),) * m
    if kind == "binary":
        return tuple(-F(draw(st.integers(0, 1))) for _ in range(m))
    weights = [draw(st.integers(0, 9)) for _ in range(m)]
    total = sum(weights) or 1
    return tuple(F(-w, total) for w in weights)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    # the reference scores all n^m owner vectors: at most 4^7 per row.  Two
    # agents reach m = 12, where exact_wmms solves rows as subset sums.
    m = draw(st.integers(0, {1: 9, 2: 12, 3: 9, 4: 7}[n]))
    if draw(st.booleans()):
        shares = (F(1, n),) * n
    else:
        raw = [draw(st.integers(1, 9)) for _ in range(n)]
        shares = tuple(F(r, sum(raw)) for r in raw)
    values: list[tuple[Fraction, ...]] = []
    for _ in range(n):
        values.append(draw(rows(m, values)))
    return cs.Instance(shares, tuple(values))


def _owmms(oracle, inst, refs):
    try:
        return oracle.exact_owmms(inst, refs)
    except cs.NoFeasibleAllocation:
        return "infeasible"


@settings(max_examples=80, deadline=None)
@given(instances())
def test_same_values_and_witnesses_as_enumeration(inst):
    expected = reference.exact_wmms(inst)
    got = cs.exact_wmms(inst)
    assert got == expected
    assert _owmms(cs, inst, got.wmms) == _owmms(reference, inst, expected.wmms)


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_same_owmms_for_any_references(inst, data):
    # zero references force agents to take value 0 and can make every
    # allocation infeasible
    refs = tuple(
        data.draw(st.sampled_from([F(0), F(-1, 2), F(-1), F(-3)])) for _ in range(inst.n)
    )
    assert _owmms(cs, inst, refs) == _owmms(reference, inst, refs)


def test_single_agent_long_row_needs_no_recursion():
    # n = 1 admits any m under the n^m budget; the search depth is m
    inst = cs.Instance((F(1),), ((F(-1, 3),) * 3000,))
    res = cs.exact_wmms(inst)
    assert res.w == (F(-1000),)
    assert res.witness_partitions[0].owner == (0,) * 3000
    owmms = cs.exact_owmms(inst, res.wmms)
    assert owmms.alpha_star == 1
    assert owmms.witness.owner == (0,) * 3000


@st.composite
def kernel_inputs(draw, chores):
    n = draw(st.sampled_from(sorted(chores)))
    m = draw(st.integers(*chores[n]))
    top = draw(st.sampled_from([1, 2, 9]))  # few distinct loads make many ties
    unit = draw(st.sampled_from([1, 3, 2**64 + 1]))  # load sums past 2^64 too
    load = st.integers(0, top).map(lambda x: x * unit)
    if draw(st.booleans()):  # one load per chore times per-agent weights, as exact_wmms has
        weights = [draw(st.integers(1, 3)) for _ in range(n)]
        loads = [[x * w for w in weights] for x in draw(st.lists(load, min_size=m, max_size=m))]
    else:
        # None: the agent may not take the chore, as for a zero reference
        cell = st.one_of(load, st.none()) if draw(st.booleans()) else load
        loads = [[draw(cell) for _ in range(n)] for _ in range(m)]
    if m and draw(st.integers(0, 3)) == 0:
        loads[draw(st.integers(0, m - 1))] = [None] * n  # no agent may take this chore
    if m and draw(st.integers(0, 3)) == 0:
        loads[draw(st.integers(0, m - 1))] = [0] * n  # a chore that loads no agent
    if draw(st.booleans()):
        # ascending load sums: phase A's descending order reverses index order,
        # so the walk meets failed and successful completion queries
        loads.sort(key=lambda row: sum(x or 0 for x in row))
    return loads


# the reference scans all n^m owner vectors: at most 4096
@settings(max_examples=300, deadline=None)
@given(kernel_inputs({1: (0, 10), 2: (0, 12), 3: (0, 7), 4: (0, 6)}))
def test_kernel_returns_the_first_optimum_of_a_full_scan(loads):
    assert _lex_min_max(loads) == (reference.lex_min_max(loads) or (None, None))


# past the full scan: up to 3^12, 4^10 and 2^20 owner vectors
def _phase_a_rows(loads):
    """Phase A's rows, a None filled as ``never``, and ``never``."""
    never = sum(x for row in loads for x in row if x is not None) + 1
    filled = [[never if x is None else x for x in row] for row in loads]
    filled.sort(key=lambda row: -sum(row))  # phase A's order
    return filled, never


@settings(max_examples=150, deadline=None)
@given(kernel_inputs({2: (10, 20), 3: (7, 12), 4: (6, 10)}))
def test_kernel_walk_returns_the_first_leaf_within_the_optimum(loads):
    n = len(loads[0]) if loads else 0
    rows, never = _phase_a_rows(loads)
    opt = _search(rows, never, False, [0] * n)[0]
    if opt is None:
        assert _lex_min_max(loads) == (None, None)
    else:
        assert _lex_min_max(loads) == (opt, reference.first_completion(loads, opt + 1, [0] * n))


# Largest sum first: the greedy's 3, 3, 2, 2, 2 on two agents is 7, the optimum 6.
LPT_GAP = [[3, 3], [3, 3], [2, 2], [2, 2], [2, 2]]


@settings(max_examples=150, deadline=None)
@given(kernel_inputs({2: (10, 16), 3: (7, 10), 4: (6, 8)}), st.integers(0, 2**70))
@example(LPT_GAP, 0)  # cap = opt + 1
@example(LPT_GAP, 1)  # cap = the greedy's 7 + 1
@example([[1, 1], [1, 1]], 0)  # the greedy is already optimal
@example([[None, None], [1, 2]], 5)  # a chore no agent may take: cap = never
def test_phase_a_returns_the_same_leaf_from_any_cap_above_the_optimum(loads, offset):
    # the greedy's starting cap relies on this: each leaf lowers the cap, so
    # any cap in (opt, never] leads to the first leaf of value opt
    rows, never = _phase_a_rows(loads)
    zeros = [0] * (len(loads[0]) if loads else 0)
    unseeded = _search(rows, never, False, zeros)
    opt = never - 1 if unseeded[0] is None else unseeded[0]
    assert _search(rows, opt + 1 + offset % (never - opt), False, zeros) == unseeded


@settings(max_examples=300, deadline=None)
@given(kernel_inputs({1: (0, 10), 2: (0, 12), 3: (0, 7), 4: (0, 6)}))
@example(LPT_GAP)
@example([[1, 1], [1, 1]])  # the greedy is already optimal: phase A starts at opt + 1
@example([[None, None], [1, 2]])  # a chore no agent may take
def test_phase_a_starts_one_above_a_real_largest_sum_at_or_above_the_optimum(loads):
    caps = []

    def spy(rows, cap, first_leaf, start):
        if not first_leaf:
            caps.append(cap)
        return _search(rows, cap, first_leaf, start)

    with mock.patch.object(oracle, "_search", spy):
        _lex_min_max(loads)
    (cap,) = caps  # phase A's one branch and bound
    best = reference.lex_min_max(loads)
    if best is None:
        assert cap == _phase_a_rows(loads)[1]  # never: the infeasible path
        return
    n = len(loads[0]) if loads else 0
    largest = set()  # the largest sum of each owner vector that avoids every None
    for owners in product(range(n), repeat=len(loads)):
        if all(row[k] is not None for row, k in zip(loads, owners)):
            sums = [0] * n
            for row, k in zip(loads, owners):
                sums[k] += row[k]
            largest.add(max(sums, default=0))
    assert cap - 1 in largest and cap - 1 >= best[0]


@st.composite
def completion_queries(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, {1: 10, 2: 12, 3: 8, 4: 7}[n]))
    top = draw(st.sampled_from([1, 2, 9]))
    loads = [[draw(st.integers(0, top)) for _ in range(n)] for _ in range(m)]
    cap = draw(st.integers(1, sum(map(sum, loads)) // n + top + 1))
    return loads, cap, [draw(st.integers(0, cap - 1)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(completion_queries())
@example(([], 1, [0]))
@example(([[1, 1]], 3, [2, 2]))  # no room left on any agent
def test_first_leaf_pass_returns_the_first_completion_from_its_start_sums(query):
    loads, cap, start = query
    given_start = list(start)
    assert _search(loads, cap, True, start)[1] == reference.first_completion(loads, cap, start)
    assert start == given_start  # the walk's own sums


@st.composite
def uniform_rows(draw):
    n = draw(st.integers(1, 4))
    # the search, which takes every agent count but two, stays quick at these sizes
    m = draw(st.integers(0, {1: 18, 2: 18, 3: 10, 4: 8}[n]))
    kind = draw(st.sampled_from(["sizes", "binary", "zero", "repeated"]))
    if kind == "zero":
        xs = [0] * m
    else:
        top = 1 if kind == "binary" else 1000
        pool = st.integers(0, top)
        if kind == "repeated":  # a few distinct sizes make many tied optima
            pool = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=3)))
        xs = draw(st.lists(pool, min_size=m, max_size=m))
    # a share of 1/w weighs its agent's load by w on the scale big = 1; a
    # share p/q puts every agent on a larger scale
    ratio = draw(st.sampled_from(["equal", "far", "any", "rational"]))
    if ratio == "rational":
        return xs, tuple(F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(n))
    if ratio == "equal":
        weights = [draw(st.integers(1, 9))] * n
    elif ratio == "far":
        weights = [draw(st.integers(1, 3)), draw(st.integers(50, 10**6))]
        weights = draw(st.permutations(weights + [draw(st.integers(1, 10**6)) for _ in range(n - 2)]))[:n]
    else:
        weights = [draw(st.integers(1, 50)) for _ in range(n)]
    return xs, tuple(F(1, w) for w in weights)


@settings(max_examples=300, deadline=None)
@given(uniform_rows())
@example(([], (F(1), F(1))))
@example(([7], (F(1, 2), F(1, 3))))
@example(([0] * 10, (F(1), F(1))))
@example(([5] * 18, (F(1), F(1))))  # every balanced split ties
@example(([], (F(1),)))
@example(([3, 1, 2], (F(2, 3),)))  # one agent takes every chore
@example(([4, 4, 2], (F(1, 2), F(1, 3), F(1, 6))))
@example(([1] * 6, (F(1, 4),) * 4))
def test_uniform_split_returns_the_search_result(row):
    xs, shares = row
    weight, big = division_weights([1] * len(shares), shares)
    opt, owners = _lex_min_max([[x * w for w in weight] for x in xs])
    assert _uniform_split(xs, shares) == (F(opt, big), owners)


@st.composite
def two_agent_instances(draw):
    m = draw(st.integers(0, 12))
    # the chooser's share: equal shares, the 1/3 boundary, or either side of it
    side = draw(st.sampled_from(["equal", "one third", "above", "below"]))
    if side == "equal":
        share = F(1, 2)
    elif side == "one third":
        share = F(1, 3)
    else:
        d = draw(st.integers(7, 40))
        k = draw(st.integers(d // 3 + 1, d // 2) if side == "above" else st.integers(1, d // 3))
        share = F(k, d)
    shares = (share, 1 - share) if draw(st.booleans()) else (1 - share, share)
    values: list[tuple[Fraction, ...]] = []
    for _ in range(2):
        # identical rows, and few distinct values, make ties between splits
        if values and draw(st.booleans()):
            values.append(values[0])
            continue
        top = draw(st.sampled_from([1, 2, 9]))
        if draw(st.booleans()):
            values.append(tuple(-F(draw(st.integers(0, top))) for _ in range(m)))
            continue
        # A rational row whose integers share a factor its denominator lacks:
        # scaling it to total -1 changes both its integers and its denominator.
        row = [-F(draw(st.integers(0, top)), draw(st.integers(1, 6))) for _ in range(m)]
        denom = lcm(*(v.denominator for v in row))
        factor = draw(st.sampled_from([g for g in (2, 3, 5, 7) if gcd(g, denom) == 1]))
        values.append(tuple(v * factor for v in row))
    return cs.Instance(shares, tuple(values))


def _divide_and_choose(run, inst):
    try:
        return run(inst)
    except cs.NormalizationImpossible as exc:
        return f"not normalizable: {exc}"


def _library_divide_and_choose(inst):
    trace: list[cs.TraceEvent] = []
    return cs.divide_and_choose(inst, trace=trace), trace


@settings(max_examples=400, deadline=None)
@given(two_agent_instances())
def test_divcho_same_split_as_bitmask_search(inst):
    assert _divide_and_choose(_library_divide_and_choose, inst) == _divide_and_choose(
        reference.divide_and_choose, inst
    )
