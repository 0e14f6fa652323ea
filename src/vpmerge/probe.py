"""Linear probes through the forward chain, and step-weight laws.

A probe is a bias-augmented linear logistic classifier trained by
full-batch gradient descent (fixed 500 iterations, step 0.1) on inputs
standardized with train-split statistics.  Probing stops at the pair's
merge step: beyond it the two events are statistically
indistinguishable and accuracy is undefined.

Weight laws distribute unit mass over a step window: uniform,
proportional to 1/SNR(t) = (1 - J(t)^2) / J(t)^2 (zero weight at t = 0,
where SNR is infinite), or the truncated variant that additionally
zeroes steps below TRUNCATION_FLOOR (20).
"""

from __future__ import annotations

import numpy as np

from .data import philox
from .errors import DataError, DomainError
from .forward import TrajectorySweep
from .schedule import NoiseSchedule, j_values

__all__ = [
    "train_linear_probe",
    "probe_through_time",
    "weight_law",
]

GD_ITERATIONS = 500
GD_STEP = 0.1
TRUNCATION_FLOOR = 20


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def train_linear_probe(feats_a: np.ndarray, feats_b: np.ndarray,
                       split: float = 0.8, seed: int = 0) -> float:
    """Held-out accuracy of a logistic probe separating the two samples."""
    feats_a = np.asarray(feats_a, dtype=np.float64)
    feats_b = np.asarray(feats_b, dtype=np.float64)
    if feats_a.shape[0] < 10 or feats_b.shape[0] < 10:
        raise DataError("each class needs at least 10 samples")
    if not 0.0 < split < 1.0:
        raise DomainError(f"split fraction must lie in (0, 1), got {split}")

    x = np.vstack([feats_a, feats_b])
    y = np.concatenate([np.zeros(len(feats_a)), np.ones(len(feats_b))])
    order = philox(seed, 0xB0BE).permutation(len(x))
    n_train = int(round(split * len(x)))
    if n_train < 1 or n_train >= len(x):
        raise DomainError("split leaves an empty train or test set")
    tr, te = order[:n_train], order[n_train:]

    mu = x[tr].mean(axis=0)
    sd = x[tr].std(axis=0)
    sd[sd == 0.0] = 1.0
    xs = (x - mu) / sd
    xa = np.hstack([xs, np.ones((len(xs), 1))])

    x_tr, y_tr = xa[tr], y[tr]
    w = np.zeros(xa.shape[1])
    for _ in range(GD_ITERATIONS):
        p = _sigmoid(x_tr @ w)
        w -= GD_STEP * (x_tr.T @ (p - y_tr)) / len(tr)
    pred = (xa[te] @ w) > 0.0
    return float(np.mean(pred == y[te]))


def probe_through_time(sweep: TrajectorySweep, a, b, merge_step: int,
                       split: float = 0.8, seed: int = 0) -> list:
    """Held-out probe accuracy at each sweep step, NaN from the merge step on."""
    if not 0 <= merge_step <= sweep.horizon:
        raise DomainError(f"merge_step {merge_step} outside [0, {sweep.horizon}]")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.intersect1d(a, b).size:
        raise DomainError("events must be disjoint")
    accs = []
    for t in sweep.steps:
        if t < merge_step:
            snap = sweep.snapshot(t)
            accs.append(train_linear_probe(snap[a], snap[b], split=split, seed=seed))
        else:
            accs.append(float("nan"))
    return accs


def weight_law(kind: str, schedule: NoiseSchedule, t_start: int, t_stop: int) -> np.ndarray:
    """Normalized weights of the steps t_start..t_stop for the given law."""
    if t_start > t_stop:
        raise DomainError(f"empty window [{t_start}, {t_stop}]")
    if t_start < 0 or t_stop > schedule.horizon_T:
        raise DomainError("window outside [0, horizon_T]")
    steps = np.arange(t_start, t_stop + 1)
    if kind == "uniform":
        w = np.ones(len(steps))
    elif kind in ("inverse_snr", "truncated_inverse_snr"):
        j = j_values(schedule, steps)
        j2 = j * j
        with np.errstate(divide="ignore", over="ignore"):  # J = 1 (t = 0): SNR = inf, weight 0
            w = 1.0 / (j2 / (1.0 - j2))
        if kind == "truncated_inverse_snr":
            w[steps < TRUNCATION_FLOOR] = 0.0
    else:
        raise DomainError(f"unknown weight law {kind!r}")
    total = w.sum()
    if total <= 0.0:
        raise DomainError("weight law has empty support on this window")
    if total == np.inf:  # J^2 underflows to 0 on the window
        raise DomainError("weight law has an infinite weight on this window")
    return w / total
