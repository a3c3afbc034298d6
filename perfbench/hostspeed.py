"""Host-speed calibration for the end-to-end timings.

On a shared host, the speed of the whole machine drifts by a quarter or
more over minutes, with the program unchanged. A fixed kernel timed next
to every run tracks that drift. It is interpreter-bound Python plus NumPy
sorting, like the PARED round. ``run_s``, ``setup_s`` and ``round_s`` are
reported as wall seconds scaled by ``REFERENCE_S / kernel seconds``, the
run's time on a host where the kernel takes ``REFERENCE_S``. The raw wall
seconds are printed beside them.

The kernel lives in the benchmark, so no change to the program can move
it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: kernel seconds that define the reference speed (about this kernel's
#: median on the 2-vCPU Xeon host the bounds were set on)
REFERENCE_S = 0.008

_REPEATS = 3


def _kernel() -> int:
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    values = np.random.default_rng(0).random(50_000)
    for _ in range(5):
        np.sort(values)
    return acc


def kernel_seconds() -> float:
    """Best of a few timings of the kernel on this core, right now."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best
