"""Host speed, measured alongside the program by fixed reference work.

The reference machine is a virtual machine on a shared host, and its
speed drifts: a fixed request can take half as long again in one minute
as in the next.  No window short enough for a sandbox averages that
out, so every timing the benchmark reports is scaled by the host's speed
at the moment it was taken.

Requests: between two requests, at most every :data:`INTERVAL` seconds
of a workload's window, its client runs :func:`kernel`
:data:`KERNEL_RUNS` times, outside the requests' timing.  Each
request's latency is divided by the mean kernel time over the
:data:`SLOT` in which it finished, and multiplied by
:data:`REFERENCE_SECONDS`.  The kernel mixes what the program spends its
time on: interpreted Python over dicts, strings and small tuples, a
sparse LU factorisation and solve, and numpy vector arithmetic.

Cold starts: the program's cold starts are timed between two cold starts
of an interpreter that imports :data:`REFERENCE_IMPORTS`; their median
is divided by the mean of those two and multiplied by
:data:`REFERENCE_START_SECONDS`.  A cold start is
mostly file reads, unmarshalling and module code, which the compute
kernel does not track.

Timings are therefore in *reference seconds*: seconds on a machine that
runs the reference work in exactly the reference time.  The reference
work uses numpy and scipy only, never ``repro``, so no change to the
program changes the yardstick.  The raw wall-clock figures are kept next
to the scaled ones in the results.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "INTERVAL",
    "KERNEL_RUNS",
    "REFERENCE_IMPORTS",
    "REFERENCE_SECONDS",
    "REFERENCE_START_SECONDS",
    "SLOT",
    "host_factors",
    "kernel",
    "timed_kernel",
]

#: Kernel time, in seconds, of the machine timings are scaled to (about
#: what the reference machine takes while its host is quiet).
REFERENCE_SECONDS = 0.005

#: What the reference cold start imports.
REFERENCE_IMPORTS = ("numpy", "scipy.sparse.linalg", "scipy.linalg")

#: Reference cold-start time, in seconds, of the machine set-up times
#: are scaled to (about what the reference machine takes while its host
#: is quiet).
REFERENCE_START_SECONDS = 0.4

#: Seconds between calibrations, and kernel runs per calibration.
INTERVAL = 0.3
KERNEL_RUNS = 3

#: Latencies are scaled by the mean kernel time over slots this long.
SLOT = 2.0


def _grid_laplacian(side: int = 20):
    """The 5-point Laplacian on a ``side x side`` grid, shifted to be
    strictly diagonally dominant: a fixed sparse system with LU fill."""
    one = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(side, side))
    eye = sp.identity(side)
    return (sp.kron(one, eye) + sp.kron(eye, one)).tocsc()


_MATRIX = _grid_laplacian()
_RHS = np.ones(_MATRIX.shape[0])
_VECTOR = np.arange(2000.0)


def kernel() -> float:
    """One run of the reference work; returns a value so none of it is
    optimised away."""
    table: dict = {}
    words = []
    for i in range(3000):
        key = ("s", i % 61)
        table[key] = table.get(key, 0) + i
        words.append(f"{i}:{table[key]}".split(":")[0])
    solution = spla.splu(_MATRIX).solve(_RHS)
    x = _VECTOR
    for _ in range(50):
        x = np.sqrt(x * x + 1.0) - 0.5
    return len(words) + float(solution[0]) + float(x[-1])


def timed_kernel() -> float:
    """Seconds one :func:`kernel` run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def host_factors(calibrations, start: float, end: float):
    """``factor(t)``: how much slower than the reference the host ran at
    ``time.monotonic()`` ``t`` in the window ``[start, end)``.

    ``calibrations`` is ``[[monotonic time, kernel seconds], ...]``.
    The factor is the mean kernel time over ``t``'s :data:`SLOT`,
    divided by :data:`REFERENCE_SECONDS`.  A slot without a calibration
    borrows the nearest slot that has one.
    """
    slots: dict[int, list[float]] = {}
    for at, seconds in calibrations:
        if start <= at < end:
            slots.setdefault(int((at - start) // SLOT), []).append(seconds)
    if not slots:
        raise RuntimeError("no calibration ran inside the window")
    means = {k: statistics.fmean(v) / REFERENCE_SECONDS for k, v in slots.items()}
    keys = sorted(means)

    def factor(t: float) -> float:
        slot = int((t - start) // SLOT)
        nearest = min(keys, key=lambda k: (abs(k - slot), k))
        return means[nearest]

    return factor
