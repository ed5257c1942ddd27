"""The benchmark's workloads: inputs made from a seed, one timed call per
instance, and the checks applied to every output.

Each workload is a fixed cycle of items.  Items come in rounds (a fixed mix
of kinds or sizes), and a run stops only on a round boundary, so every run
measures the same mix whatever the seed.  The seed decides the values
inside each instance; the program sees only the documents written here.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
PICKERS = "naive,round-robin,mult-greedy,add-greedy"
BENCH_HEADER = "instance\talgorithm\tratios\tworst_ratio\talpha_star"


@dataclass
class Item:
    id: str
    argv: list[str] | None = None
    inst: object = None  # the Instance as generated, None for rr-family specs
    algs: str = ""  # bench algorithm list, for the structural check
    seed_free: bool = False  # same input for every seed, so the golden record applies


@dataclass
class Outcome:
    code: object  # exit code, or "raised <exception>" when the call raised
    stdout: bytes = b""
    stderr: str = ""
    result: object = None  # the LinProResult behind a linpro solve's output
    allocations: list = field(default_factory=list)  # (instance, algorithm, Allocation) per run_algorithm call


def instance_seed(workload: str, seed: int, k: int) -> int:
    """Generator seed of item k: a 64-bit digest, so nearby seeds share nothing."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_cli(prog, argv: list[str], capture_linpro: bool = False) -> Outcome:
    """One in-process ``choreshare.cli.main(argv)`` call with captured output.

    Every allocation ``cli.run_algorithm`` returns is kept, so the check sees
    the owner vectors even where the CLI prints none.  With ``capture_linpro``
    the ``LinProResult`` behind the output is kept too, so ``iterations``
    (which the CLI does not print) can be checked as well.
    """
    out, err = io.StringIO(), io.StringIO()
    captured = {}
    allocations = []
    run_algorithm, linpro = prog.cli.run_algorithm, prog.lp.linpro

    def capture_allocation(inst, name, *args, **kwargs):
        alloc, extra = run_algorithm(inst, name, *args, **kwargs)
        allocations.append((inst, name, alloc))
        return alloc, extra

    def capture_result(*args, **kwargs):
        captured["result"] = linpro(*args, **kwargs)
        return captured["result"]

    prog.cli.run_algorithm = capture_allocation
    if capture_linpro:
        prog.lp.linpro = capture_result
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = prog.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # recorded and counted as a failed instance
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        prog.cli.run_algorithm, prog.lp.linpro = run_algorithm, linpro
    return Outcome(code, out.getvalue().encode(), err.getvalue(), captured.get("result"), allocations)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_doc(prog, docdir: Path, item_id: str, inst) -> str:
    path = docdir / f"{item_id}.json"
    prog.serialization.save_instance(inst, path)
    return str(path)


def owner_digests(out: Outcome) -> dict[str, str]:
    """Algorithm -> digest of the owner vectors it returned, in call order."""
    digests: dict = {}
    for _, name, alloc in out.allocations:
        digests.setdefault(name, hashlib.sha256()).update(f"{alloc.n}:{list(alloc.owner)}\n".encode())
    return {name: d.hexdigest() for name, d in sorted(digests.items())}


def reference_owner(inst, name: str) -> tuple[int, ...] | None:
    """The picking rules, written anew over presorted preference lists.

    Covers ``naive``, ``round-robin``, ``mult-greedy`` (tie rule
    ``largest-share``, the CLI default) and ``add-greedy``; None for any
    other algorithm.  Each agent takes her highest-value remaining chore,
    ties by chore index.
    """
    n, m, shares = inst.n, inst.m, inst.shares
    if name == "naive":
        return (max(range(n), key=lambda i: (shares[i], -i)),) * m
    if name not in ("round-robin", "mult-greedy", "add-greedy"):
        return None
    prefs = [sorted(range(m), key=lambda j: (-row[j], j)) for row in inst.values]
    nxt, taken, owner, totals = [0] * n, [False] * m, [0] * m, [Fraction(0)] * n
    for step in range(m):
        if name == "round-robin":
            i = step % n
        elif name == "mult-greedy":
            i = max(range(n), key=lambda a: (totals[a] / shares[a], shares[a], -a))
        else:
            i = max(range(n), key=lambda a: (shares[a] + totals[a], shares[a], -a))
        while taken[prefs[i][nxt[i]]]:
            nxt[i] += 1
        j = prefs[i][nxt[i]]
        taken[j], owner[j] = True, i
        totals[i] += inst.values[i][j]
    return tuple(owner)


def allocation_problems(item: Item, out: Outcome) -> list[str]:
    """Every returned allocation partitions the chores of the instance it was
    given, that instance is the one the document holds, and the picking rules
    give what ``reference_owner`` gives."""
    problems = []
    returned = sorted({name for _, name, _ in out.allocations})
    if returned != sorted(item.algs.split(",")):
        problems.append(f"allocations returned for {returned}, expected {item.algs}")
    for inst, name, alloc in out.allocations:
        if item.inst is not None and inst != item.inst:
            problems.append(f"{name}: the program read another instance than the document holds")
        if alloc.n != inst.n or len(alloc.owner) != inst.m or any(not 0 <= o < inst.n for o in alloc.owner):
            problems.append(f"{name}: owner vector is not a partition of the chores")
            continue
        expected = reference_owner(inst, name)
        if expected is not None and tuple(alloc.owner) != expected:
            problems.append(f"{name}: allocation differs from the picking rule")
    return problems


def _bench_problems(out: Outcome, item: Item, name: str, *, refs: bool, oracle: bool) -> list[str]:
    """Structural check of one ``bench`` call's table and allocations."""
    if out.code != 0:
        return [f"exit {out.code}: {out.stderr.strip()[:200]}"]
    if "guarantee-violation" in out.stderr:
        return ["guarantee-violation reported"]
    lines = out.stdout.decode().splitlines()
    if not lines or lines[0] != BENCH_HEADER:
        return ["unexpected bench header"]
    rows = [line.split("\t") for line in lines[1:]]
    expected = sorted((name, alg) for alg in item.algs.split(","))
    if sorted((r[0], r[1]) for r in rows if len(r) == 5) != expected or len(rows) != len(expected):
        return ["bench rows do not match the requested instances and algorithms"]
    problems = []
    for r in rows:
        if (r[2] != "-") != refs or (r[4] != "-") != oracle:
            problems.append(f"row {r[0]}/{r[1]} has unexpected ratio columns")
        if r[3] == "violated":
            problems.append(f"row {r[0]}/{r[1]} violates a reference")
    return problems + allocation_problems(item, out)


class Workload:
    name: str
    round: int  # items per round
    rounds: int  # rounds in the cycle of distinct items

    def items(self, prog, seed: int, docdir: Path) -> list[Item]:
        raise NotImplementedError

    def call(self, prog, item: Item) -> Outcome:
        return run_cli(prog, item.argv)

    def record(self, item: Item, out: Outcome) -> dict:
        """What must repeat exactly: compared with the golden file or earlier calls."""
        return {"exit": out.code, "stdout_sha256": _digest(out.stdout), "owners": owner_digests(out)}

    def problems(self, prog, item: Item, out: Outcome) -> list[str]:
        """Structural checks for seeds without golden outputs (untimed)."""
        raise NotImplementedError


class LinproSolve(Workload):
    """``solve <doc> linpro --json`` on n = 4, m = 8: the paper's main algorithm.

    Nearly all time is Fraction pivoting in simplex phase 1, over about 11
    probes.  Instance cost varies threefold within one size, and each seed
    draws other instances, so a run needs many of them for its median to
    repeat across seeds; the sizes are not mixed either, or the median falls
    among the few middle-size samples.  At n = 4, m = 8 an instance takes
    0.1-0.3 s on a 2-core x86 box, so a 35 s run gives about 170 samples.
    n = 3, m = 12 (0.1-0.5 s) gave about 90, and their median moved by 0.06
    of itself between seeds from the draw alone; at n = 6, m = 24 one
    instance takes 1-5 s.
    """

    name = "linpro-solve"
    sizes = ((4, 8),)
    round = len(sizes)
    rounds = 250

    def items(self, prog, seed, docdir):
        out = []
        for k in range(self.round * self.rounds):
            n, m = self.sizes[k % self.round]
            item_id = f"n{n}m{m}-{k:03d}"
            inst = prog.generators.random_instance(n, m, instance_seed(self.name, seed, k))
            doc = _write_doc(prog, docdir, item_id, inst)
            out.append(Item(item_id, ["solve", doc, "linpro", "--eps", "1/100", "--json"], inst, "linpro"))
        return out

    def call(self, prog, item):
        return run_cli(prog, item.argv, capture_linpro=True)

    def record(self, item, out):
        rec = super().record(item, out)
        if out.result is not None:
            rec.update(
                c_final=str(out.result.c_final),
                iterations=out.result.iterations,
                owner=list(out.result.allocation.owner),
            )
        return rec

    def problems(self, prog, item, out):
        if out.code != 0 or out.result is None:
            return [f"exit {out.code}: {out.stderr.strip()[:200]}"]
        inst = item.inst
        doc = json.loads(out.stdout)
        owner = doc["owner"]
        if len(owner) != inst.m or any(not 0 <= o < inst.n for o in owner):
            return ["owner vector is not a partition of the chores"]
        problems = allocation_problems(item, out)
        bundles = [[j for j in range(inst.m) if owner[j] == i] for i in range(inst.n)]
        if doc["bundles"] != bundles:
            problems.append("bundles disagree with the owner vector")
        c_final = Fraction(doc["c_final"])
        if c_final != out.result.c_final or owner != list(out.result.allocation.owner):
            problems.append("printed result differs from the returned result")
        refs = prog.algorithms.wmms_prime(inst)
        for i, bundle in enumerate(bundles):
            value = sum((inst.values[i][j] for j in bundle), Fraction(0))
            if doc["values"][i] != str(value):
                problems.append(f"agent {i}: printed value {doc['values'][i]} != {value}")
            if value < 2 * c_final * refs[i]:
                problems.append(f"agent {i}: {value} misses 2 * c_final * ref = {2 * c_final * refs[i]}")
        return problems


class OracleCertify(Workload):
    """``bench <doc> --oracle`` on four kinds of instance, pickers included.

    Owner-vector enumeration in ``exact_wmms`` / ``exact_owmms`` takes over
    90% of the time and the simplex none: the control for simplex work.
    """

    name = "oracle-certify"
    kinds = (
        # (n, m, style, algorithms beyond the pickers)
        (2, 16, "normalized", "div-cho"),
        (3, 10, "normalized", ""),
        (4, 8, "normalized", ""),
        (3, 10, "binary", "binary"),
    )
    round = len(kinds)
    rounds = 15

    def items(self, prog, seed, docdir):
        out = []
        for k in range(self.round * self.rounds):
            n, m, style, extra = self.kinds[k % self.round]
            item_id = f"{style}-n{n}m{m}-{k:03d}"
            inst = prog.generators.random_instance(n, m, instance_seed(self.name, seed, k), style)
            doc = _write_doc(prog, docdir, item_id, inst)
            algs = ",".join(filter(None, (PICKERS, extra)))
            out.append(Item(item_id, ["bench", doc, "--oracle", "--algs", algs], inst, algs))
        return out

    def problems(self, prog, item, out):
        return _bench_problems(out, item, item.id, refs=True, oracle=True)


class GreedyScale(Workload):
    """``bench`` with the picking rules on large documents and on rr-family.

    The O(m)-per-pick loops dominate; the rest is document parsing and CLI
    formatting, with no oracle and no LP.
    """

    name = "greedy-scale"
    ns = (6, 7, 8, 9, 10)
    ms = (200, 240, 280, 320, 360, 400)
    family = (3, 4, 5, 6, 7, 8)
    # Every round is two documents of each m and one rr-family call of each
    # K.  rr-family calls take a few ms and documents hundreds, so with
    # documents at two thirds of the calls the median falls inside the
    # document times, and rounds differ only in the documents' n.
    docs_per_round = 2 * len(ms)
    round = docs_per_round + len(family)
    rounds = 3
    family_algs = "naive,egal-greedy,round-robin,mult-greedy,add-greedy"

    def items(self, prog, seed, docdir):
        out = []
        for k in range(self.docs_per_round * self.rounds):
            q, r = divmod(k, len(self.ms))
            # Each m meets every n over the cycle.
            n, m = self.ns[(q + r) % len(self.ns)], self.ms[r]
            item_id = f"n{n}m{m}-{k:03d}"
            inst = prog.generators.random_instance(n, m, instance_seed(self.name, seed, k))
            doc = _write_doc(prog, docdir, item_id, inst)
            out.append(Item(item_id, ["bench", doc, "--algs", PICKERS], inst, PICKERS))
            if k % 2:
                size = self.family[k // 2 % len(self.family)]
                argv = ["bench", f"rr-family:n={size}", "--algs", self.family_algs, "--family-refs"]
                out.append(Item(f"rr-family-n{size}-{k:03d}", argv, None, self.family_algs, seed_free=True))
        return out

    def problems(self, prog, item, out):
        if item.inst is None:
            name = item.argv[1].replace("rr-family:n=", "rr-family-n")
            return _bench_problems(out, item, name, refs=True, oracle=False)
        return _bench_problems(out, item, item.id, refs=False, oracle=False)


WORKLOADS = {w.name: w for w in (LinproSolve(), OracleCertify(), GreedyScale())}
