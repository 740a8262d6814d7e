"""Machine-speed reference for the end-to-end timings.

On a shared machine a core's speed can change by up to 2x for seconds
to minutes at a time (another tenant on the same physical core, or
frequency changes), in CPU time as much as in wall time.  Runs of a
benchmark that last tens of seconds cannot average that out.  So while
an untraced run times anything, a sampler process pinned to the same
core runs a short fixed kernel every ``PERIOD_S`` and logs how long it
took; a timed interval is then scaled by ``REFERENCE_S`` over the mean
kernel time inside it.  The kernel uses only numpy and the interpreter,
never ``hypnet``, so a change to the program cannot move it, and it
mixes the same kinds of work as the pipeline: small dense linear
algebra, array arithmetic and float formatting.  The sampler takes
about 3% of the core.

Usage as the sampler: ``python3 bench/calibrate.py LOG`` (runs until
terminated; each line is ``end_time kernel_seconds`` on the monotonic
clock).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

#: Kernel repetitions per sample.
ROUNDS = 40

#: Pause between samples.
PERIOD_S = 0.05

#: Sampled kernel time on an unloaded core of the reference machine
#: (x86_64, 2 vCPUs, 300 MB last-level cache) next to a running workload;
#: scaled timings read in seconds of that core.
REFERENCE_S = 1.3e-3

_MATRIX = np.random.default_rng(0).normal(size=(8, 4))


def kernel_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    for i in range(ROUNDS):
        _, s, vt = np.linalg.svd(_MATRIX + i * 1e-9)
        "%.17g" % float(s[-1] + vt[0] @ vt[1])
    return time.perf_counter() - start


def sample_forever(log_path) -> None:
    """Log kernel times until terminated or orphaned."""
    parent = os.getppid()
    with open(log_path, "w", encoding="utf-8") as log:
        while os.getppid() == parent:
            seconds = kernel_seconds()
            log.write(f"{time.monotonic():.6f} {seconds:.9f}\n")
            log.flush()
            time.sleep(PERIOD_S)


def load(log_path) -> np.ndarray:
    """Rows ``(mid_time, kernel_seconds)`` from a sampler log."""
    rows = np.loadtxt(log_path, ndmin=2)
    return np.column_stack([rows[:, 0] - 0.5 * rows[:, 1], rows[:, 1]])


def scaled(samples: np.ndarray, start: float, end: float) -> float:
    """Interval ``[start, end]`` (monotonic clock) in seconds of the
    reference core: its length times ``REFERENCE_S`` over the mean
    kernel time inside it, or at the nearest sample if none is inside."""
    inside = (samples[:, 0] >= start) & (samples[:, 0] <= end)
    if inside.any():
        kernel = samples[inside, 1].mean()
    else:
        kernel = samples[np.argmin(np.abs(samples[:, 0] - start)), 1]
    return (end - start) * REFERENCE_S / kernel


if __name__ == "__main__":
    sample_forever(sys.argv[1])
