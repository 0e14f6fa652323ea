"""Linear probes through the forward chain, and step-weight laws.

A probe is a bias-augmented linear logistic classifier trained by
full-batch gradient descent (fixed 500 iterations, step 0.1) on inputs
standardized with train-split statistics.  Probing stops at the pair's
merge step: beyond it the two events are statistically
indistinguishable and accuracy is undefined.  The steps below it are
fitted on forward.step_results' worker threads.  Each worker owns one
design matrix, allocated by the calling thread.  The train/test split
is drawn once per call, and each step's rows of the two classes are
drawn into the design in split order (TrajectorySweep.snapshot of those
rows only, which stops at the block of the last); the fit standardizes
them in place.  Every product a fit runs releases the GIL (the gradient
goes through np.dot, not a transposed matmul, which holds it), so the
workers' fits overlap.  Accuracies do not depend on the number of workers.

Weight laws distribute unit mass over a step window: uniform,
proportional to 1/SNR(t) = (1 - J(t)^2) / J(t)^2 (zero weight at t = 0,
where SNR is infinite), or the truncated variant that additionally
zeroes steps below TRUNCATION_FLOOR (20).
"""

from __future__ import annotations

import numpy as np

from .data import philox
from .errors import DataError, DomainError
from .forward import TrajectorySweep, step_results
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


def train_linear_probe(x: np.ndarray, y, n_train: int) -> float:
    """Held-out accuracy of a logistic probe fitted in the design matrix x.

    x is a float64 n x (d + 1) array whose first d columns hold the samples
    in split order: the first n_train rows train and the rest test.  y holds
    their classes, 0 or 1.  The fit standardizes those columns in place with
    the training rows' mean and std and sets the last column to ones, so it
    allocates nothing larger than a few values per sample.
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64):
        raise DataError("the design matrix must be a 2-D float64 array")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x),):
        raise DataError("the design matrix needs one class label per row")
    n, n_b = len(x), int(np.count_nonzero(y))
    if n - n_b < 10 or n_b < 10:
        raise DataError("each class needs at least 10 samples")
    if n_train < 1 or n_train >= n:
        raise DomainError("split leaves an empty train or test set")

    feats = x[:, :-1]
    feats -= feats[:n_train].mean(axis=0)
    # np.var's column sums of squares of the centred training rows: einsum adds
    # down each column as np.var does, but np.var adds one column pairwise and
    # einsum reports no overflow, so np.var's own ufuncs take those cases
    tr = feats[:n_train]
    sq = np.einsum("ij,ij->j", tr, tr)
    if feats.shape[1] == 1 or np.isinf(sq).any():
        sq = np.add.reduce(tr * tr, axis=0)
    sd = np.sqrt(sq / n_train)
    sd[sd == 0.0] = 1.0
    feats /= sd
    x[:, -1] = 1.0

    x_tr, y_tr = x[:n_train], y[:n_train]
    w = np.zeros(x.shape[1])
    for _ in range(GD_ITERATIONS):
        p = _sigmoid(x_tr @ w)
        # np.dot releases the GIL in the same dgemv that x_tr.T @ r runs holding
        # it, so the pool's fits overlap
        w -= GD_STEP * np.dot(p - y_tr, x_tr) / n_train
    pred = (x[n_train:] @ w) > 0.0
    return float(np.mean(pred == y[n_train:]))


def probe_through_time(sweep: TrajectorySweep, a, b, merge_step: int,
                       split: float = 0.8, seed: int = 0) -> list:
    """Held-out probe accuracy at each sweep step, NaN from the merge step on."""
    if not 0 <= merge_step <= sweep.horizon:
        raise DomainError(f"merge_step {merge_step} outside [0, {sweep.horizon}]")
    if not 0.0 < split < 1.0:
        raise DomainError(f"split fraction must lie in (0, 1), got {split}")
    a, b = sweep.dataset.rows(a), sweep.dataset.rows(b)
    if np.intersect1d(a, b).size:
        raise DomainError("events must be disjoint")
    # the split is drawn once: the design's rows are the two classes' rows in
    # split order, so each step's training rows are its first n_train
    order = philox(seed, 0xB0BE).permutation(len(a) + len(b))
    n_train = int(round(split * len(order)))
    rows = np.concatenate([a, b])[order]
    y = (order >= len(a)).astype(np.float64)
    d = sweep.dataset.features.shape[1]
    fitted = [t for t in sweep.steps if t < merge_step]

    def slot() -> np.ndarray:  # the design matrix, its first d columns the drawn rows
        return np.empty((len(rows), d + 1))

    def fit(i: int, design: np.ndarray) -> float:
        sweep.snapshot(fitted[i], rows, out=design[:, :-1])
        return train_linear_probe(design, y, n_train)

    accs = list(step_results(len(fitted), slot, fit))
    return accs + [float("nan")] * (len(sweep.steps) - len(fitted))


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
