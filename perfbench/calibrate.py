"""Fixed reference work that tracks how fast the machine runs right now.

On a shared machine the same pass can take 1.8 s in one minute and 3.4 s
in the next.  Each workload has a calibration loop that does the same
kind of work as its jobs (interpreter-bound small numpy calls, streaming
noise and reductions, or text parsing plus matrix-vector products) with
nothing from vpmerge, so no change to the package can alter it.  The
benchmark runs it between passes and divides each pass's time by the
mean of the loops on either side.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Seconds each loop takes on an unloaded 2-core x86-64 machine; set-up
# times are rescaled to this speed (see run.py).
NOMINAL_S = {"many-classes": 0.31, "large-n": 0.38, "empirical-csv": 0.31}


@functools.cache
def _inputs(workload: str) -> tuple:
    rng = np.random.default_rng([20251100, len(workload)])
    if workload == "many-classes":
        return (rng.standard_normal((32, 400, 16)),)
    if workload == "large-n":
        return (rng.standard_normal((64, 64)),)
    text = ",".join(map(repr, rng.standard_normal(150000).tolist()))
    return text, rng.standard_normal((1400, 289)), (rng.random(1400) > 0.5).astype(np.float64)


def interpreter() -> None:
    """Per-pair small moments and eigensolves, as in the analytic merger scan."""
    (blocks,) = _inputs("many-classes")
    for i in range(4000):
        a = blocks[i % 32]
        dev = a - a.mean(axis=0)
        cov = dev.T @ dev / 400.0
        np.linalg.eigvalsh(cov)[-1]
        float(np.sum(cov * cov))
        np.exp(-0.5 * np.arange(4.0))


def streaming() -> None:
    """Philox noise, projections and power sums, as in the normality battery."""
    (proj,) = _inputs("large-n")
    for step in range(8):
        x = np.random.Generator(np.random.Philox(key=step)).standard_normal((10000, 64))
        views = np.hstack([x, x @ proj])
        dev = views - views.mean(axis=0)
        dev2 = dev * dev
        dev2.mean(axis=0), (dev2 * dev).mean(axis=0), (dev2 * dev2).mean(axis=0)


def mixed() -> None:
    """Float parsing, noise and gradient steps, as in the CSV and probe path."""
    text, design, target = _inputs("empirical-csv")
    np.array([float(v) for v in text.split(",")])
    np.random.Generator(np.random.Philox(key=7)).standard_normal((2100, 288))
    w = np.zeros(design.shape[1])
    rows = np.arange(1100)
    for _ in range(220):
        z = design[rows] @ w
        w -= 0.1 * (design[rows].T @ (1.0 / (1.0 + np.exp(-z)) - target[rows])) / len(rows)


LOOPS = {"many-classes": interpreter, "large-n": streaming, "empirical-csv": mixed}


def timed(workload: str) -> float:
    """Seconds one calibration loop of the workload takes now."""
    _inputs(workload)
    start = time.perf_counter()
    LOOPS[workload]()
    return time.perf_counter() - start
