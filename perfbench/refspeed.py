"""Reference kernels that track the machine's current speed.

The small VMs this benchmark was built on change speed by up to 40% for
seconds to minutes at a time (a 50 ms solve takes 50 ms in one phase and
90 ms in the next). A median of wall times over a 30 s run moves by about
20% between runs, so wall time alone cannot hold a bound of a tenth.

The benchmark therefore runs a fixed kernel next to every timed call and
reports the call's time divided by the kernel's current slowness (its time
over its nominal time), that is, in seconds on a machine where the kernel
takes its nominal time. No kernel calls the program, so a change to the
program shows in full.

Two kernels, because the phases do not slow all kinds of work alike:

- "python" does the kind of work the compiler does (dict and integer
  operations, sorting, exact fractions) and needs no import beyond the
  standard library, so it can also bracket the program's imports;
- "array" does the kind of work the Monte Carlo estimator does (numpy draws,
  masks and XORs over arrays of a few tens of thousands of entries). Against
  a fidelity estimate over ten minutes of phases, 35 s-window medians
  rescaled by "python" spread by 0.11, by this kernel by 0.03.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Runs per probe. Single runs of a kernel occasionally take three times
# their usual time, so a probe reports the median of a few short runs.
RUNS = 3


def _python_kernel() -> int:
    table: dict = {}
    acc = 0
    for i in range(7000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        acc += k & 15
    f = Fraction(0)
    for i in range(1, 110):
        f += Fraction(1, i % 17 + 1)
    return acc + len(sorted(table.values())) + f.denominator % 7


def _array_kernel() -> int:
    import numpy as np  # here, not at the top: refspeed brackets the import of numpy

    rng = np.random.default_rng(7)
    frame = np.zeros((20000, 6), dtype=np.uint8)
    for j in range(12):
        idx = np.where(rng.random(20000) < 0.1, rng.integers(0, 4, size=20000), 0)
        frame[:, j % 6] ^= (idx & 1).astype(np.uint8)
    return int(frame.sum())


# kind -> (kernel, seconds it is taken to last on the nominal machine). The
# nominal times are about what one run takes on the 2-core VM the benchmark
# was built on.
KERNELS = {"python": (_python_kernel, 0.0025), "array": (_array_kernel, 0.004)}


def probe(kind: str = "python") -> float:
    """Current slowness of the machine for this kind of work: the median of
    RUNS kernel runs over the kernel's nominal time."""
    kernel, nominal_s = KERNELS[kind]
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[RUNS // 2] / nominal_s


def scale(wall_s: float, slow_before: float, slow_after: float) -> float:
    """Wall time of a call, rescaled to the nominal machine speed using the
    slowness measured just before and just after it."""
    return wall_s / ((slow_before + slow_after) / 2.0)
