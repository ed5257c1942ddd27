"""The linpro pipeline's exact outputs on a fixed corpus, and how to rebuild them.

``digest(inst)`` records, for one instance:

- ``linpro`` at eps 1/3 and 1/100: ``c_final``, ``lower``, ``iterations``,
  the owner vector and the LP point it rounded;
- ``check_feasible``'s vertex at thresholds 0, 1, 5/4 and 2, with
  ``wmms_prime``'s references and with the last agent's reference zero;
- ``min_feasible_c`` with ``wmms_prime``'s references.

``test_linpro_digest`` requires every entry of ``golden/linpro_digest.json``
to match.  A change that keeps linpro's outputs must leave the file as it
is; regenerate it only for a change meant to alter them:

    PYTHONPATH=src python tests/linpro_digest.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import choreshare as cs
from choreshare import lp

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "linpro_digest.json"
EPS = (F(1, 3), F(1, 100))
THRESHOLDS = (F(0), F(1), F(5, 4), F(2))


def cases() -> list[tuple[str, cs.Instance]]:
    """203 named instances: the tables, the egal-failure family, seeded normalized and binary ones."""
    out = [(f"table{k}", cs.paper_table(k)) for k in range(1, 7)]
    for n, T in ((2, F(3)), (2, F(5)), (3, F(4)), (3, F(6)), (4, F(5))):
        inst = cs.egal_greedy_failure_family(T, T / (T - n + 1), n)
        out.append((f"egal-failure-n{n}-T{T}", inst))
    for style in ("normalized", "binary"):
        for n in (2, 3, 4):
            for m in (1, 3, 5, 8):
                for seed in range(8):
                    inst = cs.random_instance(n, m, seed, style)
                    out.append((f"{style}-n{n}-m{m}-s{seed}", inst))
    return out


def _point(point: dict[tuple[int, int], F] | None) -> str | None:
    if point is None:
        return None
    return " ".join(f"{i},{j}={v}" for (i, j), v in sorted(point.items()))


def digest(inst: cs.Instance) -> dict:
    out: dict = {}
    for eps in EPS:
        result = lp.linpro(inst, eps)
        out[f"linpro eps={eps}"] = [
            str(result.c_final),
            str(result.lower),
            result.iterations,
            list(result.allocation.owner),
            _point(result.point),
        ]
    refs = cs.wmms_prime(inst)
    for name, rs in (("refs", refs), ("zero-ref", refs[:-1] + (F(0),))):
        out[f"vertex {name}"] = [
            _point(lp.check_feasible(lp.build_program(inst, c, rs))) for c in THRESHOLDS
        ]
    out["min_feasible_c"] = str(lp.min_feasible_c(inst, refs))
    return out


def main() -> None:
    # One line per instance, so a changed output shows as that instance's line.
    lines = [f"{json.dumps(name)}: {json.dumps(digest(inst))}" for name, inst in cases()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} instances to {GOLDEN}")


if __name__ == "__main__":
    main()
