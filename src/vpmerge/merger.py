"""Merger detection, cascades, guidance windows, and related observables.

Two class events merge at the first step where the distance between
their conditional moment statistics falls to a threshold eps; from that
step on the thresholded similarity is pinned to exactly 1 (a first
merger is sticky).  Distances:

* top_eigen_abs: |lambda_max(Sigma_a) - lambda_max(Sigma_b)|, the
  eigenvalue proxy (covariance spectra collapse toward identity under
  the VP flow, so the top eigenvalues govern the merger).
* trace_l1: |F_a - F_b| with F the squared Hilbert norm of the
  conditional tensor, i.e. the trace Tr(Sigma^T Sigma).

In the default analytic mode, step-0 moments are pushed through the
marginal law (lambda(t) = lambda(0) J^2 + 1 - J^2 and its trace
analogue), which makes the first-merge step exact at integer resolution
whatever step grid the sweep carries; one integer scan finds the first t
in 0..T at which each pair's distance is <= eps, and one broadcast over
(pairs x grid steps) gives every pair's series.  mode="empirical", the
stochastic oracle, walks the grid once: one snapshot per step, from it
the moments of each class still in an unmerged pair, and every unmerged
pair compared.  Tensors are covariances (order 2).

pairwise_merge_times, pairwise_series, detect_series (the two-event case)
and phase_spectrum (for its whole eps grid) share one step-0 pass, one
conditional_fluctuation per class, in either mode (phase_spectrum is
analytic only).  The default threshold eps = max_k lambda_k_max(0) / 400
is resolved over all classes in the first two (so they agree), over the
two events alone in detect_series.

Cascades are single linkage over merge times; ties go to the pair of
clusters whose smallest class ids (lo, hi) are lexicographically first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .data import EventPartition
from .errors import DataError, DegenerateError, DomainError
from .fluctuation import (ConditionalMoments, _check_order, conditional_fluctuation,
                          moments_from_rows, normalized_M, propagated_frobenius)
from .forward import TrajectorySweep
from .schedule import NoiseSchedule, betas, j_values

__all__ = [
    "MergerSeries",
    "default_epsilon",
    "detect_series",
    "pairwise_series",
    "pairwise_merge_times",
    "build_cascade",
    "guidance_windows",
    "interpolation_schedule",
    "lattice_jump",
    "phase_spectrum",
]


@dataclass(frozen=True)
class MergerSeries:
    """Thresholded similarity per step for one event pair, plus i*."""

    steps: tuple
    values: np.ndarray
    first_merge_step: int
    epsilon: float


def default_epsilon(moments0) -> float:
    """eps = max over classes of lambda_max at step 0, divided by 400."""
    tops = [m.top_eigenvalue for m in moments0]
    if not tops or max(tops) <= 0.0:
        raise DegenerateError("all step-0 covariances are degenerate")
    return max(tops) / 400.0


def _metric_stat(metric: str) -> str:
    """Name of the ConditionalMoments field a metric compares."""
    stats = {"top_eigen_abs": "top_eigenvalue", "trace_l1": "frobenius_sq"}
    if metric not in stats:
        raise DomainError(f"unknown metric {metric!r}")
    return stats[metric]


def _step0(sweep: TrajectorySweep, events, metric: str, mode: str) -> tuple:
    """(step-0 moments of the events, scan); scan(eps) is (first-merge
    matrix, P x len(steps) empirical similarities or None).  Analytic scan: the
    first step in 0..horizon where a pair's distance is <= eps (the horizon if
    none), one row of pairs at a time over a J^2 table built once."""
    events = [np.asarray(ev, dtype=np.int64) for ev in events]
    if len(events) < 2:
        raise DataError("need at least two events")
    # empty events raise here
    moments0 = [conditional_fluctuation(sweep, ev, 0, propagate=True) for ev in events]
    if mode == "empirical":
        stat = _metric_stat(metric)
        return moments0, lambda eps: _empirical_walk(sweep, events, eps, stat)
    if mode != "analytic":
        raise DomainError(f"unknown mode {mode!r}")
    horizon, k = sweep.horizon, len(events)
    j2 = j_values(sweep.schedule, np.arange(0, horizon + 1))[:, None] ** 2
    stat = np.array([getattr(m, _metric_stat(metric)) for m in moments0])
    if metric == "trace_l1":
        trace = np.array([np.trace(m.tensor) for m in moments0])
        stat = propagated_frobenius(j2, stat, trace, moments0[0].dim)

    def scan(epsilon):
        out = np.zeros((k, k), dtype=np.int64)
        for i in range(k - 1):
            if stat.ndim == 1:  # an eigenvalue gap shrinks by J^2
                dist = j2 * np.abs(stat[i] - stat[i + 1:])
            else:
                dist = np.abs(stat[:, i:i + 1] - stat[:, i + 1:])
            merged = dist <= epsilon
            first = np.where(merged.any(axis=0), merged.argmax(axis=0), horizon)
            out[i, i + 1:] = out[i + 1:, i] = first
        return out, None

    return moments0, scan


def _analytic_series(schedule: NoiseSchedule, grid: np.ndarray, moments0: list,
                     merge: np.ndarray) -> np.ndarray:
    """P x len(grid) CKA under the marginal law of every pair i < j (row-major) in
    one broadcast of step-0 traces, ||S||_F^2 and <S_a, S_b>; 1 from each i* on."""
    ia, ib = np.triu_indices(len(moments0), 1)
    j2 = j_values(schedule, grid)[None, :] ** 2
    d = moments0[0].dim
    trace = np.array([[np.trace(m.tensor)] for m in moments0])
    g0 = np.array([[np.sum(moments0[a].tensor * moments0[b].tensor)] for a, b in zip(ia, ib)])
    f = propagated_frobenius(j2, np.array([[m.frobenius_sq] for m in moments0]), trace, d)
    before = grid < merge[ia, ib][:, None]
    bad = np.argwhere(before & ((f[ia] <= 0) | (f[ib] <= 0)))
    if bad.size:
        raise DegenerateError(f"zero-norm tensor at step {grid[bad[0, 1]]}")
    den = f[ia] * f[ib]
    # g = J^4 g0 + J^2 (1-J^2) (tr_a + tr_b) + d (1-J^2)^2, in place, added left to right
    g = j2**2 * g0
    g += j2 * (1 - j2) * (trace[ia] + trace[ib])
    g += d * (1 - j2) ** 2
    values = np.divide(np.abs(g, out=g), np.sqrt(den, out=den), out=den, where=before)
    values[~before] = 1.0
    return np.minimum(values, 1.0, out=values)


def detect_series(sweep: TrajectorySweep, a, b, n: int = 2,
                  epsilon: float | None = None, metric: str = "top_eigen_abs",
                  mode: str = "analytic") -> MergerSeries:
    """Thresholded similarity series and first merger step for events a, b.

    Per step: the normalized cross-fluctuation while the metric distance
    exceeds epsilon, exactly 1 otherwise; i* is the first step of the 1
    branch and is sticky.  Events merge no later than the horizon, so the
    last value is 1 when the grid ends there.
    """
    if np.intersect1d(a, b).size:
        raise DomainError("events must be disjoint")
    _check_order(n)  # n is the tensor order, always 2
    merge, values, epsilon = _all_pairs(sweep, [a, b], epsilon, metric, mode, series=True)
    return MergerSeries(steps=sweep.steps, values=values[0],
                        first_merge_step=int(merge[0, 1]), epsilon=float(epsilon))


def pairwise_series(sweep: TrajectorySweep, partition: EventPartition,
                    epsilon: float | None = None,
                    metric: str = "top_eigen_abs", mode: str = "analytic") -> tuple:
    """(K x K first-merge matrix, P x len(steps) thresholded similarities with
    one row per pair i < j, row-major) from one step-0 pass and one epsilon
    over all classes."""
    return _all_pairs(sweep, partition.events, epsilon, metric, mode, series=True)[:2]


def pairwise_merge_times(sweep: TrajectorySweep, partition: EventPartition,
                         epsilon: float | None = None,
                         metric: str = "top_eigen_abs",
                         mode: str = "analytic") -> np.ndarray:
    """K x K symmetric matrix of first merger steps; zero diagonal."""
    return _all_pairs(sweep, partition.events, epsilon, metric, mode, series=False)[0]


def _all_pairs(sweep: TrajectorySweep, events, epsilon: float | None,
               metric: str, mode: str, series: bool) -> tuple:
    """(K x K first-merge matrix, P x len(steps) similarities of the pairs
    i < j row-major or None, epsilon) from one step-0 pass and one epsilon
    over the events; the analytic similarities are computed only for series."""
    moments0, scan = _step0(sweep, events, metric, mode)
    if epsilon is None:
        epsilon = default_epsilon(moments0)
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    merge, values = scan(epsilon)
    if series and values is None:
        values = _analytic_series(sweep.schedule, np.asarray(sweep.steps), moments0, merge)
    return merge, values, epsilon


def _empirical_walk(sweep: TrajectorySweep, events: list, epsilon: float, stat: str):
    """First-merge matrix and P x len(steps) thresholded similarities (pairs
    i < j row-major) from one snapshot per grid step; a pair is 1 from its
    first step with a distance <= epsilon (sticky) and from the horizon on."""
    k = len(events)
    merge = np.full((k, k), sweep.horizon, dtype=np.int64)
    np.fill_diagonal(merge, 0)
    pairs = list(enumerate(combinations(range(k), 2)))
    sims = np.ones((len(pairs), len(sweep.steps)))
    for s, t in enumerate(sweep.steps):
        if t >= sweep.horizon or not pairs:
            break
        live = {c for _, pair in pairs for c in pair}
        xt = sweep.snapshot(t)
        moments = {c: ConditionalMoments.from_tensor(moments_from_rows(xt[events[c]], 2)[1])
                   for c in live}
        for p, (i, j) in pairs:
            if abs(getattr(moments[i], stat) - getattr(moments[j], stat)) <= epsilon:
                merge[i, j] = merge[j, i] = t
            else:
                sims[p, s] = normalized_M(moments[i], moments[j])
        pairs = [(p, (i, j)) for p, (i, j) in pairs if merge[i, j] == sweep.horizon]
        del xt, moments  # neither is held while the next snapshot is drawn
    return merge, sims


def _single_linkage(merge_times: np.ndarray):
    """Yield (lo, hi, height) for each of the K - 1 single-linkage merges,
    with merge times as the dissimilarity; heights are non-decreasing
    (single linkage is ultrametric-safe).

    Row i of the distance matrix stands for the cluster whose smallest
    member is i; a merge folds row hi into row lo by a minimum.  The first
    row-major argmin is the smallest (lo, hi), which is the tie-break, so
    the merges are deterministic.
    """
    mt = np.asarray(merge_times, dtype=np.float64)
    if mt.ndim != 2 or mt.shape[0] != mt.shape[1]:
        raise DomainError("merge_times must be a square matrix")
    if not np.allclose(mt, mt.T):
        raise DomainError("merge_times must be symmetric")
    if np.any(mt < 0):
        raise DomainError("merge_times must be non-negative")
    k = mt.shape[0]
    dist = mt.copy()
    np.fill_diagonal(dist, np.inf)
    for _ in range(k - 1):
        lo, hi = divmod(int(np.argmin(dist)), k)
        yield lo, hi, int(round(dist[lo, hi]))
        dist[lo, :] = dist[:, lo] = np.minimum(dist[lo], dist[hi])
        dist[lo, lo] = np.inf
        dist[hi, :] = dist[:, hi] = np.inf


def build_cascade(merge_times: np.ndarray) -> dict:
    """Single-linkage dendrogram over class events as its JSON tree:
    {"class": c} leaves, {"step": h, "children": [left, right]} nodes with
    the merge step as height; the root is the cluster of class 0."""
    tree = {}  # smallest member -> subtree, for the clusters merged so far
    for lo, hi, step in _single_linkage(merge_times):
        tree[lo] = {"step": step, "children": [tree.pop(lo, {"class": lo}),
                                               tree.pop(hi, {"class": hi})]}
    return tree.get(0, {"class": 0})


def guidance_windows(merge_times: np.ndarray, istar: int, horizon: int) -> list:
    """Per-class guidance windows as the dicts `windows` writes: t_end (also
    written as t_merge) is the class's first merge step, t_start (also t_conv)
    the convergence index i*.  A class whose first merge falls after i* gets the
    empty window [i*, i*] and never_merged."""
    if not 0 <= istar <= horizon:
        raise DomainError(f"istar {istar} outside [0, {horizon}]")
    out = []
    for c, row in enumerate(np.asarray(merge_times).tolist()):
        t_merge = int(min(row[:c] + row[c + 1:], default=horizon))
        t_end = min(t_merge, istar)
        out.append({"class": c, "t_end": t_end, "t_start": istar, "never_merged": t_merge > istar,
                    "t_merge": t_end, "t_conv": istar})
    return out


_ETA_BAND = (1e-4, 1e-2)


def interpolation_schedule(schedule: NoiseSchedule, s: float) -> dict:
    """{"scale", "eta", "warning"}: eta_t = s * beta_t / max_u beta_u for t = 1..T,
    and a warning (or None) when s lies outside the search band."""
    if not 0.0 < s <= 1.0:
        raise DomainError(f"scale s must lie in (0, 1], got {s}")
    warning = None
    if not _ETA_BAND[0] <= s <= _ETA_BAND[1]:
        warning = (
            f"scale {s} outside the search band [{_ETA_BAND[0]}, {_ETA_BAND[1]}]; "
            "larger values degrade sharpness"
        )
    b = betas(schedule)
    return {"scale": float(s), "eta": (s * b / b.max()).tolist(), "warning": warning}


def lattice_jump(series, tau: int = 1, order: int = 1,
                 eps_disc: float = 1e-3) -> list:
    """Interior indices where left/right order-n finite differences split.

    Left difference at t spans [t - n tau, t], right spans [t, t + n tau];
    both are normalized by tau^n.  An ideal unit step therefore flags the
    jump index and the index tau before it (both windows straddle it).
    """
    phi = np.asarray(series, dtype=np.float64)
    if tau < 1 or order < 1:
        raise DomainError("tau and order must be >= 1")
    if eps_disc <= 0.0:
        raise DomainError("eps_disc must be positive")
    L = phi.shape[0]
    if L < 2 * order * tau + 1:
        raise DomainError(
            f"sequence of length {L} too short for order {order}, tau {tau}"
        )
    coeff = np.array([(-1) ** j * comb(order, j) for j in range(order + 1)])
    out = []
    for t in range(order * tau, L - order * tau):
        left = sum(coeff[j] * phi[t - j * tau] for j in range(order + 1))
        right = sum(coeff[j] * phi[t + (order - j) * tau] for j in range(order + 1))
        if abs(left - right) / tau**order >= eps_disc:
            out.append(t)
    return out


def phase_spectrum(sweep: TrajectorySweep, partition: EventPartition, epsilon_grid,
                   metric: str = "top_eigen_abs") -> list:
    """Count of positive-step merger events in the cascade, per epsilon."""
    eps_grid = [float(e) for e in epsilon_grid]
    if not eps_grid:
        raise DomainError("epsilon grid is empty")
    if any(e <= 0 for e in eps_grid) or any(
        b <= a for a, b in zip(eps_grid, eps_grid[1:])
    ):
        raise DomainError("epsilon grid must be positive and increasing")
    scan = _step0(sweep, partition.events, metric, "analytic")[1]
    return [sum(step > 0 for _, _, step in _single_linkage(scan(eps)[0])) for eps in eps_grid]
