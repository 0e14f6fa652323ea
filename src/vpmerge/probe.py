"""Linear probes through the forward chain, and step-weight laws.

A probe is a bias-augmented linear logistic classifier trained by
full-batch gradient descent (fixed 500 iterations, step 0.1) on inputs
standardized with train-split statistics.  Probing stops at the pair's
merge step: beyond it the two events are statistically
indistinguishable and accuracy is undefined.  The steps below it are
fitted on forward.step_results' worker threads.  Each worker owns one
design matrix, allocated by the calling thread: the two classes' rows
are drawn into it (TrajectorySweep.snapshot of those rows only, which
stops at the block of the last) and the fit permutes and standardizes
them in place.
Accuracies do not depend on the number of workers.

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


def train_linear_probe(feats_a: np.ndarray, feats_b: np.ndarray,
                       split: float = 0.8, seed: int = 0, *,
                       out: np.ndarray | None = None) -> float:
    """Held-out accuracy of a logistic probe separating the two samples.

    The design matrix is built in out, a float64 (n_a + n_b) x (d + 1)
    array, when given.  The samples may be out's own first d columns,
    stacked a over b (out[:n_a, :-1] and out[n_a:, :-1]); the fit then
    allocates nothing larger than a few values per sample.
    """
    feats_a = np.asarray(feats_a, dtype=np.float64)
    feats_b = np.asarray(feats_b, dtype=np.float64)
    if feats_a.ndim != 2 or feats_b.shape[1:] != feats_a.shape[1:]:
        raise DataError("the two samples must be 2-D with the same number of columns")
    if feats_a.shape[0] < 10 or feats_b.shape[0] < 10:
        raise DataError("each class needs at least 10 samples")
    _check_split(split)

    n_a, n = len(feats_a), len(feats_a) + len(feats_b)
    order = philox(seed, 0xB0BE).permutation(n)
    n_train = int(round(split * n))
    if n_train < 1 or n_train >= n:
        raise DomainError("split leaves an empty train or test set")

    # the bias-augmented design matrix holds the stacked samples in the
    # split's order, so the training rows are its first n_train; the values
    # are, bit for bit, those of stacking, standardizing with the training
    # rows' mean and std and appending ones
    xa = np.empty((n, feats_a.shape[1] + 1)) if out is None else out
    x = xa[:, :-1]
    x[:n_a] = feats_a  # no copy when the samples already sit there
    x[n_a:] = feats_b
    _permute_rows(x, order)
    x -= x[:n_train].mean(axis=0)
    # np.var's column sums of squares of the centred training rows: einsum adds
    # down each column as np.var does, but np.var adds one column pairwise and
    # einsum reports no overflow, so np.var's own ufuncs take those cases
    tr = x[:n_train]
    sq = np.einsum("ij,ij->j", tr, tr)
    if x.shape[1] == 1 or np.isinf(sq).any():
        sq = np.add.reduce(tr * tr, axis=0)
    sd = np.sqrt(sq / n_train)
    sd[sd == 0.0] = 1.0
    x /= sd
    xa[:, -1] = 1.0

    y = (order >= n_a).astype(np.float64)
    x_tr, y_tr = xa[:n_train], y[:n_train]
    w = np.zeros(xa.shape[1])
    for _ in range(GD_ITERATIONS):
        p = _sigmoid(x_tr @ w)
        w -= GD_STEP * (x_tr.T @ (p - y_tr)) / n_train
    pred = (xa[n_train:] @ w) > 0.0
    return float(np.mean(pred == y[n_train:]))


def _permute_rows(x: np.ndarray, order: np.ndarray) -> None:
    """x[:] = x[order] in place, one cycle of the permutation at a time."""
    order = order.tolist()
    done = bytearray(len(order))
    for start in range(len(order)):
        if done[start]:
            continue
        first = x[start].copy()
        k = start
        while order[k] != start:
            done[k] = 1
            x[k] = x[order[k]]
            k = order[k]
        done[k] = 1
        x[k] = first


def _check_split(split: float) -> None:
    if not 0.0 < split < 1.0:
        raise DomainError(f"split fraction must lie in (0, 1), got {split}")


def probe_through_time(sweep: TrajectorySweep, a, b, merge_step: int,
                       split: float = 0.8, seed: int = 0) -> list:
    """Held-out probe accuracy at each sweep step, NaN from the merge step on."""
    if not 0 <= merge_step <= sweep.horizon:
        raise DomainError(f"merge_step {merge_step} outside [0, {sweep.horizon}]")
    _check_split(split)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.intersect1d(a, b).size:
        raise DomainError("events must be disjoint")
    rows = np.concatenate([a, b])
    d = sweep.dataset.features.shape[1]
    fitted = [t for t in sweep.steps if t < merge_step]

    def slot() -> np.ndarray:  # the design matrix, its first d columns the two classes' rows
        return np.empty((len(rows), d + 1))

    def fit(i: int, design: np.ndarray) -> float:
        feats = sweep.snapshot(fitted[i], rows, out=design[:, :-1])
        return train_linear_probe(feats[:len(a)], feats[len(a):], split=split, seed=seed,
                                  out=design)

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
