"""Known mutants of the package, each with the tests that must kill it.

Each entry of ``MUTANTS`` names a file under ``src/choreshare``, an exact
text that occurs once in it, the text that replaces it, and test ids.  The
script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every listed test there unchanged: all must pass.
Then, one entry at a time, it applies the replacement to the copy and runs
that entry's tests with pytest under a timeout (Hypothesis seed 0).  The
mutant is killed when a test fails or the run times out: a wrong pivot
update can keep Bland's rule from terminating.  The script exits nonzero
when a mutant survives, when its old text no longer occurs exactly once,
or when pytest ends in any other way.  A refactor that removes a mutant's
target re-targets or drops its entry.  It is stdlib only and outside tier-1
(no test imports it):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds for one mutant's tests


class Mutant(NamedTuple):
    name: str
    file: str  # under src/choreshare
    old: str
    new: str
    tests: tuple[str, ...]


ALGO = "tests/test_algorithms.py::"
ORACLE = "tests/test_oracle.py::"
ORACLE_REF = "tests/test_oracle_reference.py::"
LP = "tests/test_lp.py::"
PROBE_REF = "tests/test_probe_reference.py::"
BISECT_REF = "tests/test_bisection_reference.py::"
SIMPLEX = "tests/test_simplex.py::"
SIMPLEX_REF = "tests/test_simplex_reference.py::"
SERIAL = "tests/test_serialization.py::"
PICK_REF = "tests/test_pick_reference.py::"

MUTANTS = [
    # the one-pass reader of canonical rows, by their separators
    Mutant(
        "canonical rows: the p/q check reduced to slash and comma counts", "serialization.py",
        'if seps == "/," * (len(values) - 1) + "/":',
        'if seps.count("/") == len(values) and seps.count(",") == len(values) - 1:',
        (SERIAL + "test_parse_instance_rows_agree_with_token_parse",),
    ),
    Mutant(
        "canonical rows: the mixed-row check reduced to a comma count", "serialization.py",
        'elif seps.replace("/", "") == commas:', 'elif seps.count(",") == len(values) - 1:',
        (SERIAL + "test_parse_instance_rows_agree_with_token_parse",),
    ),
    Mutant(
        "canonical rows: a zero denominator accepted", "serialization.py",
        "if min(read.values()) > 0 else None", "if min(read.values()) >= 0 else None",
        (SERIAL + "test_parse_instance_rows_agree_with_token_parse",),
    ),
    # the picking loop's one integer key per agent
    Mutant(
        "pick: tie ranks reversed", "algorithms.py",
        "sorted(range(n), key=tie)", "sorted(range(n), key=tie, reverse=True)",
        (PICK_REF + "test_picking_rules_match_fraction_reference",),
    ),
    Mutant(
        "pick: primary + rank without the * n", "algorithms.py",
        "keys[i] = primary(i, totals[i], picks[i]) * n + rank[i]",
        "keys[i] = primary(i, totals[i], picks[i]) + rank[i]",
        (PICK_REF + "test_picking_rules_match_fraction_reference",),
    ),
    # divide_and_choose on its own integer rows
    Mutant(
        "div-cho: zero-row check after the 1/3 shortcut", "algorithms.py",
        """    if 0 in totals:
        raise NormalizationImpossible(f"agent {totals.index(0)} values every chore at 0")
    chooser = 0 if shares[0] <= shares[1] else 1
    divider = 1 - chooser

    if shares[chooser] <= Fraction(1, 3):
        return _emit(trace, 2, (divider,) * m, shares[divider])
""",
        """    chooser = 0 if shares[0] <= shares[1] else 1
    divider = 1 - chooser

    if shares[chooser] <= Fraction(1, 3):
        return _emit(trace, 2, (divider,) * m, shares[divider])
    if 0 in totals:
        raise NormalizationImpossible(f"agent {totals.index(0)} values every chore at 0")
""",
        (ALGO + "test_divcho_refuses_a_zero_row",),
    ),
    Mutant(
        "div-cho: the chooser's tie to the divider's side", "algorithms.py",
        "int(value[1] >= value[0])", "int(value[1] > value[0])",
        (ALGO + "test_divcho_equal_shares_identical_rows",),
    ),
    Mutant(
        "div-cho: shortcut only below 1/3", "algorithms.py",
        "shares[chooser] <= Fraction(1, 3)", "shares[chooser] < Fraction(1, 3)",
        (ORACLE_REF + "test_divcho_same_split_as_bitmask_search",),
    ),
    Mutant(
        "div-cho: the divider's total as the chooser's denominator", "algorithms.py",
        "Fraction(v, -totals[chooser])", "Fraction(v, -totals[divider])",
        (ORACLE_REF + "test_divcho_same_split_as_bitmask_search",),
    ),
    Mutant(
        "div-cho: the divider's row not reversed", "algorithms.py",
        "xs = [-a for a in rows[divider][0][::-1]]", "xs = [-a for a in rows[divider][0]]",
        (ORACLE_REF + "test_divcho_same_split_as_bitmask_search",),
    ),
    # the one split of a row over the shares, and its two-agent subset sum
    Mutant(
        "uniform split: one agent sent to the subset sum", "oracle.py",
        "if len(shares) != 2 or", "if len(shares) > 2 or",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "uniform split: the search's optimum not over the scale", "oracle.py",
        "return Fraction(opt, big), owners\n", "return Fraction(opt), owners\n",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "two-agent kernel: strict window test", "oracle.py",
        "if end >= start and", "if end > start and",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "two-agent kernel: optimum taken from below only", "oracle.py",
        "nearest = (below, mid + (above & -above).bit_length()) if above else (below,)",
        "nearest = (below,)",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "two-agent kernel: midpoint weighted by w0", "oracle.py",
        "mid = total * w1 // (w0 + w1)", "mid = total * w0 // (w0 + w1)",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "two-agent kernel: bit bound compared with <", "oracle.py",
        "m * (total + 1) > _TWO_AGENT_BITS:", "m * (total + 1) < _TWO_AGENT_BITS:",
        (ORACLE + "test_two_agent_rows_go_to_the_search_only_past_the_bit_bound",),
    ),
    Mutant(
        "two-agent kernel: window widened by one", "oracle.py",
        "lo, hi = max(0, total - opt // w1), opt // w0", "lo, hi = max(0, total - opt // w1), opt // w0 + 1",
        (ORACLE_REF + "test_uniform_split_returns_the_search_result",),
    ),
    Mutant(
        "two-agent kernel: bit bound removed", "oracle.py",
        "if len(shares) != 2 or m * (total + 1) > _TWO_AGENT_BITS:", "if len(shares) != 2:",
        (ORACLE + "test_two_agent_row_of_4300_digit_values_goes_to_the_search",),
    ),
    Mutant(
        "exact_wmms: w without the row's denominator", "oracle.py",
        "-value / row[1],", "-value,",
        (ORACLE + "test_values_are_those_of_the_witnesses",),
    ),
    Mutant(
        "exact_wmms: w over a doubled denominator", "oracle.py",
        "-value / row[1],", "-value / (2 * row[1]),",
        (ORACLE + "test_table1_wmms",),
    ),
    # the walk of _lex_min_max and its first-leaf queries
    Mutant(
        "walk: sums[k] not undone after a query", "oracle.py",
        "                sums[k] -= row[k]\n", "",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: skip test with <=", "oracle.py",
        "if sums[k] + row[k] < cap:", "if sums[k] + row[k] <= cap:",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: no skip test", "oracle.py",
        "if sums[k] + row[k] < cap:", "if True:",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: the query includes chore j", "oracle.py",
        "rest = [i for i in order if i > j]", "rest = [i for i in order if i >= j]",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: the query's leaf not adopted", "oracle.py",
        "zip([j, *rest], [k, *found])", "zip([j], [k])",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: no break after an adopted query", "oracle.py",
        "owners[i] = o\n                    break\n", "owners[i] = o\n",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "walk: never without + 1", "oracle.py",
        "never = sum(x for row in loads for x in row if x is not None) + 1",
        "never = sum(x for row in loads for x in row if x is not None)",
        (ORACLE_REF + "test_kernel_walk_returns_the_first_leaf_within_the_optimum",),
    ),
    Mutant(
        "_search works on the caller's start list", "oracle.py",
        "sums = list(start)", "sums = start",
        (ORACLE_REF + "test_first_leaf_pass_returns_the_first_completion_from_its_start_sums",),
    ),
    # phase A's starting cap, one above the greedy's largest sum and at most never
    Mutant(
        "greedy cap: without + 1", "oracle.py",
        "min(max(sums, default=0) + 1, never)", "min(max(sums, default=0), never)",
        (ORACLE_REF + "test_phase_a_starts_one_above_a_real_largest_sum_at_or_above_the_optimum",),
    ),
    Mutant(
        "greedy cap: not clipped to never", "oracle.py",
        "min(max(sums, default=0) + 1, never)", "max(sums, default=0) + 1",
        (ORACLE_REF + "test_phase_a_starts_one_above_a_real_largest_sum_at_or_above_the_optimum",),
    ),
    # the exact simplex
    Mutant(
        "simplex: phase 1's verdict as < 0", "simplex.py",
        "return not self._optimize(costs, self.width)[-1]",
        "return not self._optimize(costs, self.width)[-1] < 0",
        (SIMPLEX + "test_contradictory_equalities",),
    ),
    Mutant(
        "simplex: phase 2's optimum with its sign flipped", "simplex.py",
        "Fraction(self._optimize(", "Fraction(-self._optimize(",
        (SIMPLEX + "test_minimize_simple",),
    ),
    Mutant(
        "simplex: y divided by the new d instead of the old", "simplex.py",
        "// d for x, b in zip(y, pivot_row)", "// self.d for x, b in zip(y, pivot_row)",
        (SIMPLEX + "test_beale_cycling_example_terminates_at_optimum",),
    ),
    Mutant(
        "simplex: y updated with the pivot row subtracted", "simplex.py",
        "(x * self.d + f * b) // d", "(x * self.d - f * b) // d",
        (SIMPLEX_REF + "test_same_vertex_and_optimum_as_reference",),
    ),
    Mutant(
        "simplex: clean-up without the negation", "simplex.py",
        "self.rows[r] = [-a for a in row]", "self.rows[r] = [a for a in row]",
        (SIMPLEX_REF + "test_same_vertex_and_optimum_as_reference",),
    ),
    Mutant(
        "simplex: clean-up skipped", "simplex.py",
        "            if col >= 0:\n", "            if False:\n",
        (SIMPLEX_REF + "test_same_vertex_and_optimum_as_reference",),
    ),
    Mutant(
        "simplex: clean-up in forward order", "simplex.py",
        "for r in reversed(range(len(self.rows))):", "for r in range(len(self.rows)):",
        (SIMPLEX_REF + "test_same_bases_as_reference",),
    ),
    Mutant(
        "simplex: a pivot rewrites rows with a zero pivot-column entry", "simplex.py",
        "if f and i != r:", "if i != r:",
        (SIMPLEX_REF + "test_rows_over_their_denominators_are_the_reference_rows",),
    ),
    Mutant(
        "simplex: point() reads every row over d", "simplex.py",
        "x[b] = Fraction(row[-1], dr)", "x[b] = Fraction(row[-1], self.d)",
        (SIMPLEX_REF + "test_same_vertex_and_optimum_as_reference",),
    ),
    Mutant(
        "simplex: the pivot row kept over the old d", "simplex.py",
        "rows[r], den[r] = pivot_row, p", "rows[r], den[r] = pivot_row, d",
        (SIMPLEX_REF + "test_rows_over_their_denominators_are_the_reference_rows",),
    ),
    Mutant(
        "simplex: the entering entry not rescaled to d", "simplex.py",
        "p = column[r] * d // den[r]", "p = column[r]",
        (SIMPLEX_REF + "test_rows_over_their_denominators_are_the_reference_rows",),
    ),
    Mutant(
        "simplex: pricing drops a column's second nonzero", "simplex.py",
        "for k, a in cols[entering]:", "for k, a in cols[entering][:1]:",
        (SIMPLEX_REF + "test_same_vertex_and_basis_at_linpro_scale",),
    ),
    Mutant(
        "simplex: d·π read with the wrong sign", "simplex.py",
        "f -= y[k] * a", "f += y[k] * a",
        (SIMPLEX_REF + "test_same_vertex_and_optimum_as_reference",),
    ),
    Mutant(
        "simplex: pricing continues past the first negative column", "simplex.py",
        """            for entering in range(limit):
                f = costs[entering] * d
                for k, a in cols[entering]:
                    f -= y[k] * a
                if f < 0:
                    break
            else:
                return y
""",
        """            priced = []
            for j in range(limit):
                g = costs[j] * d
                for k, a in cols[j]:
                    g -= y[k] * a
                if g < 0:
                    priced.append((j, g))
            if not priced:
                return y
            entering, f = priced[-1]
""",
        (SIMPLEX_REF + "test_same_bases_as_reference",),
    ),
    # linpro's integer probes and its bracket
    Mutant(
        "_eligible: bisect boundary one below", "lp.py",
        "bisect_left(pairs, (top + 1,))", "bisect_left(pairs, (top,))",
        (PROBE_REF + "test_integer_probe_matches_program_reference",),
    ),
    Mutant(
        "_certificate: floor check loosened by one", "lp.py",
        "return max(used)", "return max(used) - 1",
        (LP + "test_certificate_uses_eligible_pairs_and_clears_every_floor",),
    ),
    Mutant(
        "_certifier: intervals keyed by bisect_left", "lp.py",
        "bisect_right(cuts, top)", "bisect_left(cuts, top)",
        (LP + "test_interval_keyed_verdict_is_a_fresh_certificate",),
    ),
    Mutant(
        "_certifier: G equal to top refused", "lp.py",
        "greedy[k] <= top", "greedy[k] < top",
        (LP + "test_interval_keyed_verdict_is_a_fresh_certificate",),
    ),
    Mutant(
        "_certifier: the greedy's result stored under k - 1", "lp.py",
        "greedy[k] = _certificate(", "greedy[k - 1] = _certificate(",
        (LP + "test_interval_keyed_verdict_is_a_fresh_certificate",),
    ),
    Mutant(
        "_certificate: chores by their smallest eligible load", "lp.py",
        "key=lambda j: -prefixes[j][-1][0]", "key=lambda j: -prefixes[j][0][0]",
        (PROBE_REF + "test_integer_probe_matches_program_reference",),
    ),
    Mutant(
        "_certificate: ties to the highest agent", "lp.py",
        "load, i = min([(used[a] + x, a) for x, a in prefixes[j]])",
        "load, i = min([(used[a] + x, a) for x, a in prefixes[j][::-1]], key=lambda t: t[0])",
        (PROBE_REF + "test_integer_probe_matches_program_reference",),
    ),
    Mutant(
        "linpro: stop test with >=", "lp.py",
        "while 4 * (hi - lo) * eps.denominator > eps.numerator * den:",
        "while 4 * (hi - lo) * eps.denominator >= eps.numerator * den:",
        (BISECT_REF + "test_integer_bracket_matches_the_fraction_bisection",),
    ),
    Mutant(
        "linpro: a probe's top rounded up", "lp.py",
        "certified(mid * scale // den)",
        "certified(-(-mid * scale // den))",
        (LP + "test_linpro_table2",),
    ),
    # LP points as dicts, checked in integers
    Mutant(
        "round_extreme_point: no program-variable check", "lp.py",
        "if (i, j) not in variables or not 0 < v.numerator <= v.denominator:",
        "if not 0 < v.numerator <= v.denominator:",
        (LP + "test_round_refuses_a_point_off_its_program",),
    ),
    Mutant(
        "round_extreme_point: zero entries accepted", "lp.py",
        "not 0 < v.numerator <= v.denominator:", "not 0 <= v.numerator <= v.denominator:",
        (LP + "test_round_refuses_a_point_off_its_program",),
    ),
    Mutant(
        "round_extreme_point: a doubled floor met with equality refused", "lp.py",
        "if got * t.denominator < 2 * t.numerator * denom:",
        "if got * t.denominator <= 2 * t.numerator * denom:",
        (LP + "test_round_single_fractional_chore",),
    ),
    # linpro's programs as pair rows from one ranked-load table
    Mutant(
        "_standard_form: the floor pair without q_i", "lp.py",
        "floor.append((k, ints[j] * q))", "floor.append((k, ints[j]))",
        (LP + "test_pair_rows_expand_to_the_scaled_fraction_rows",),
    ),
    Mutant(
        "_standard_form: a cover pair on the wrong row", "lp.py",
        "covers[j].append((k, 1))", "covers[j - 1].append((k, 1))",
        (LP + "test_pair_rows_expand_to_the_scaled_fraction_rows",),
    ),
    Mutant(
        "linpro: a probe's program read from another references' table", "lp.py",
        "Fraction(mid, den), refs, table=table)",
        "Fraction(mid, den), refs, table=_by_load(*_loads(inst, refs[::-1])))",
        (LP + "test_linpro_computes_its_loads_once",),
    ),
    Mutant(
        "linpro: the empty point taken for no point", "lp.py",
        "        if point is None:\n            raise UpperBoundInfeasible",
        "        if not point:\n            raise UpperBoundInfeasible",
        (LP + "test_linpro_without_chores",),
    ),
]


def _pytest(work: Path, tests, timeout: float | None = None) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=timeout).returncode


def check(mutant: Mutant, work: Path) -> str:
    """'killed', 'killed (timeout)', 'survived', 'stale' or 'error (exit N)'."""
    path = work / "src" / "choreshare" / mutant.file
    source = path.read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        code = _pytest(work, mutant.tests, TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    finally:
        path.write_text(source)
    return {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        tests = sorted({t for mutant in MUTANTS for t in mutant.tests})
        code = _pytest(work, tests)
        if code:
            print(f"the listed tests do not pass on the unchanged source (pytest exit {code})")
            return 1
        bad = 0
        for mutant in MUTANTS:
            started = time.perf_counter()
            verdict = check(mutant, work)
            bad += not verdict.startswith("killed")
            print(f"{verdict:<18} {time.perf_counter() - started:6.1f} s  {mutant.file}: {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
