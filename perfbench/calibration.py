"""A fixed pure-Python yardstick for the speed of the machine at this moment.

A 2-core shared host runs the same Python code at speeds that differ by up
to twofold from one second to the next, with no steal time the guest can
see.  The benchmark therefore runs ``kernel`` right before and right after
every timed call and reports times scaled to a reference speed: a measured
time multiplied by ``REF_KERNEL_MS`` over the kernel's mean time around it.  A change to the program
moves the scaled times as it moves the raw ones, since the kernel never
calls the program; a slower or faster host moves both alike.

The kernel does what choreshare spends its time on: Fraction arithmetic
(the simplex), loops over tuples with ``max`` (the pickers and the
oracle), and dictionary and list work.  Changing it, or ``REF_KERNEL_MS``,
changes every scaled figure, so it stays fixed once results exist.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The kernel's median wall time on the reference machine (2-vCPU VM, Xeon
# 2.0 GHz, Python 3.11).  Scaled figures read as milliseconds there.
REF_KERNEL_MS = 7.0

_ROWS = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 + 1, (5 * i + j) % 7 + 2) for j in range(7)) for i in range(6)
)


def kernel() -> int:
    """Deterministic work of a few milliseconds; returns a checksum."""
    rows = [list(r) for r in _ROWS]
    for col in range(len(rows)):  # Gauss-Jordan elimination over Fractions
        pivot = max(range(col, len(rows)), key=lambda r: (rows[r][col] != 0, -r))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    check = sum(r[-1].numerator % 1009 for r in rows)
    values = [(i * 7919) % 1013 for i in range(400)]
    taken: dict[int, int] = {}
    for step in range(40):  # picking: the best remaining item, O(m) per pick
        best = max((j for j in range(len(values)) if j not in taken), key=lambda j: (values[j], -j))
        taken[best] = step % 5
    for owner in range(3**5):  # enumeration: owner vectors as tuples
        vec = tuple((owner // 3**k) % 3 for k in range(5))
        check += max(vec) + sum(values[k] for k in vec)
    return check + sum(taken.values())


EXPECTED = kernel()


def measure(repeats: int = 1) -> tuple[float, float]:
    """Median (wall s, process CPU s) of ``repeats`` timed runs of the kernel.

    The garbage collector is paused meanwhile, so a collection owed to the
    program's allocations is not charged to the kernel.
    """
    walls, cpus = [], []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            wall, cpu = time.perf_counter(), time.process_time()
            check = kernel()
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
            if check != EXPECTED:
                raise RuntimeError("calibration kernel gave another checksum")
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(walls), statistics.median(cpus)

