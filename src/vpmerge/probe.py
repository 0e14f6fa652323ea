"""Linear probes through the forward chain, and step-weight laws.

A probe is a bias-augmented linear logistic classifier trained by
full-batch gradient descent (fixed 500 iterations, step 0.1) on inputs
standardized with train-split statistics.  Probing stops at the pair's
merge step: beyond it the two events are statistically
indistinguishable and accuracy is undefined.

Weight laws distribute unit mass over a step window: uniform,
proportional to 1/SNR(t) = (1 - J(t)^2) / J(t)^2 (zero weight at t = 0,
where SNR is infinite), or the truncated variant that additionally
zeroes steps below TRUNCATION_FLOOR (20).  Aggregation averages per-step
class softmaxes under a law; the per-step scores come from an external
file, no model runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import integer_column, philox, read_csv
from .errors import DataError, DomainError
from .forward import TrajectorySweep
from .schedule import NoiseSchedule, j_values

__all__ = [
    "WeightLaw",
    "train_linear_probe",
    "probe_through_time",
    "weight_law",
    "weighted_score_aggregate",
    "load_logits_csv",
]

GD_ITERATIONS = 500
GD_STEP = 0.1
TRUNCATION_FLOOR = 20


@dataclass(frozen=True)
class WeightLaw:
    steps: tuple
    weights: np.ndarray


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def weight_law(kind: str, schedule: NoiseSchedule, t_start: int, t_stop: int) -> WeightLaw:
    """Normalized step weights on [t_start, t_stop] for the given law."""
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
    return WeightLaw(steps=tuple(int(t) for t in steps), weights=w / total)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    ez = np.exp(z)
    return ez / ez.sum()


def weighted_score_aggregate(per_step_scores, law: WeightLaw) -> np.ndarray:
    """Weight-averaged softmax over steps: sum_t w(t) softmax(scores_t).

    per_step_scores maps step -> length-K logit vector; every step with
    positive weight must be present.
    """
    out = None
    for t, w in zip(law.steps, law.weights):
        if w == 0.0:
            continue
        if t not in per_step_scores:
            raise DomainError(f"missing scores for step {t} (weight {w})")
        probs = _softmax(np.asarray(per_step_scores[t], dtype=np.float64))
        out = w * probs if out is None else out + w * probs
    return out


def load_logits_csv(path) -> dict:
    """Read step,class,logit rows into {step: length-K logit vector}."""
    arr = read_csv(path, width=3)
    steps = integer_column(arr[:, 0], "steps").tolist()
    classes = integer_column(arr[:, 1], "class ids").tolist()
    if min(classes) < 0:
        raise DataError(f"{path}: class ids must be >= 0, got {min(classes)}")
    if len(set(zip(steps, classes))) < len(steps):
        raise DataError(f"{path}: a (step, class) row appears twice")
    n_classes = max(classes) + 1
    out: dict = {}
    for t, c, v in zip(steps, classes, arr[:, 2].tolist()):
        vec = out.setdefault(t, np.full(n_classes, np.nan))
        vec[c] = v
    for t, vec in out.items():
        if np.any(np.isnan(vec)):
            raise DataError(f"step {t} is missing some class logits")
    return out
