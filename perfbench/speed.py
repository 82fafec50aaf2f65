"""Machine-speed references: a kernel in the sweep worker, and a process.

Run as a script (``python perfbench/speed.py``) this file is the
reference process: interpreter start, the numpy import, the SciPy
modules gravent imports, and PROCESS_REPEATS kernels.

On a shared machine the speed of the same code drifts by 15-30% over
tens of seconds (neighbours come and go), which is as large as the
regressions the benchmark must catch.  So the sweep worker also times a
fixed kernel of the benchmark's own right before each sweep, in the
same warm process (and once after the last), and each sweep's time is
scaled by NOMINAL_MS over the mean of the kernel timings right before
and right after it: the sweep rate, p50 and tail read as if the machine
ran the kernel in NOMINAL_MS.  The kernel mixes small numpy calls with
Python arithmetic, as gravent's hot paths do, and never calls the
program.  It does share the process with it, so a change to gravent
that leaves the heap, the caches or the BLAS threads in another state
could move it and hide part of its own cost.  Injected regressions did
not: 400 short-lived lists and two kept ones per row, three 400x400
matrix products at the end of each sweep, and a Python loop per row
slowed the sweeps by 4-42%, while the kernel's mean time moved by 5% at
most, in either direction (by up to 3% with no change at all).  Full
20 s sweep-z runs with the allocation regression lost 17-24% of scaled
throughput on every seed tried, while the unscaled rate moved by 3-31%.
A run whose mean factor (factor()) falls outside FACTOR_RANGE is
flagged.

Set-up and the cold commands are fresh processes, and so is their
reference: the reference process runs right before each set-up probe
and every fifth timed command, and their times are scaled by
PROCESS_NOMINAL_S over its mean time.  It never imports gravent, so
nothing gravent does can move it.  It imports what gravent's import
costs most, numpy and SciPy, because a cold command is mostly imports:
over ten 30 s windows in which `gravent validate` drifted by 36%, its
window medians correlated with this reference at 0.94, against 0.60
for a numpy-only one, and dividing by it cut the spread from 0.11 to
0.07.  (A kernel timed in the idle parent between commands did not
work: it measured the parent waking up, not the machine; its time rose
by 60% while the commands slowed by 5%.)
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's typical time on the 2-core x86-64 box the baseline was
# taken on; only the ratio to it matters when comparing two commits.
NOMINAL_MS = 2.5
# The factors seen in 140 runs of the sweep workloads on that box; a run
# outside this range is flagged (``speed_factor_in_range``).
FACTOR_RANGE = (0.62, 1.21)
# The reference process's typical time on the same box.
PROCESS_NOMINAL_S = 0.8
PROCESS_REPEATS = 20

_X = np.linspace(-3.0, 3.0, 128)
_W = np.exp(-_X * _X)


def _kernel() -> float:
    acc = 0.0
    for k in range(300):
        theta = 0.01 * k * _X + math.sqrt(k + 1.0)
        acc += float(np.cos(theta) @ _W) + float(np.sin(theta) @ _W)
    return acc


def sample(into: list[float]) -> None:
    """Append one timing of the kernel, in ms."""
    start = time.perf_counter()
    _kernel()
    into.append((time.perf_counter() - start) * 1e3)


def factor(samples: list[float]) -> float:
    """Scale for timings so they read at nominal machine speed.

    The mean, not the median: the machine flips between fast and slow
    phases, and the mean follows the share of slow phases smoothly.
    """
    return NOMINAL_MS / statistics.mean(samples)


def scale_each(times_ms: list[float], samples: list[float]) -> list[float]:
    """Each time at nominal speed, by the kernel timed around it.

    samples[i] and samples[i + 1] are the kernel timings right before and
    right after times_ms[i].  The phases last about as long as a sweep,
    so the timings next to a sweep follow its phase far better than the
    run's mean does.
    """
    return [t * 2.0 * NOMINAL_MS / (samples[i] + samples[i + 1])
            for i, t in enumerate(times_ms)]


def process_factor(seconds: list[float]) -> float:
    """Scale for process timings, from the reference process's times."""
    return PROCESS_NOMINAL_S / statistics.mean(seconds)


if __name__ == "__main__":
    import scipy.linalg  # noqa: F401  (the modules gravent imports)
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    for _ in range(PROCESS_REPEATS):
        _kernel()
