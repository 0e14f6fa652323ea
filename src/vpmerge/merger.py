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
analogue), so a pair's distance at u = J(t)^2 is |A u^2 + B u|: A = 0 and
B = |gap|, or A = dF - 2 dtr and B = 2 dtr from the step-0 differences.
A pair merges at step 0 when its float step-0 gap |s_a - s_b| is <= eps,
else at the first integer t in 1..T (T if none) whose u lies in the band
|A u^2 + B u| <= eps, in real arithmetic.  _merge_steps takes it for both
metrics from the closed-form roots of one band (_band_steps), one ceil per
pair with no step tested and no table over 0..T, in O(K^2) time and memory.
Where eps is within the rounding of a pair's float distance at some step, a
float scan of 0..T can stop at another step (one off where eps sits on a
distance; many off where a tiny eps is below the rounding of the cancelling
trace difference).

One broadcast over (pairs x grid steps) gives every pair's series, its
squared norms and cross inner products both from propagated_inner.
mode="empirical", the stochastic oracle, walks the grid once: one snapshot
per step after 0, all into one buffer, then the moments of each class in
an unmerged pair and every unmerged pair compared (covariances, order 2).
Either mode reads ||S||_F^2 and <S_a, S_b> only for a series.

detect_series (the merge matrix and every pair's series),
pairwise_merge_times (the matrix alone) and phase_spectrum (for its whole
eps grid) share one step-0 pass (_moments0, one conditional_fluctuation of
the dataset rows per class) in either mode (phase_spectrum is analytic
only).  As J(0) = 1 exactly, a pair merges at step 0 if and only if its
step-0 gap is <= eps, so the phase spectrum's count of positive-step
cascade merges is the number of gaps between consecutive sorted step-0
statistics that exceed eps: it needs no merge step and no cascade, and
does not read the schedule.  The default
threshold eps = max_k lambda_k_max(0) / 400 is resolved over the events
passed (so the first two agree).  An event is any set of dataset rows, read
by LabeledDataset.rows, so any sequence of events may be passed, overlapping
ones included.

Cascades are single linkage over merge times, O(K^2) with a cached
minimum per row; ties go to the pair of clusters whose smallest class ids
(lo, hi) are lexicographically first.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .errors import DataError, DegenerateError, DomainError
from .fluctuation import (conditional_fluctuation, cross_fluctuation_G, moments_from_rows,
                          normalized_M, propagated_inner)
from .forward import TrajectorySweep
from .schedule import NoiseSchedule, _beta_integral_inverse, betas, j_values

__all__ = [
    "default_epsilon",
    "detect_series",
    "pairwise_merge_times",
    "build_cascade",
    "guidance_windows",
    "interpolation_schedule",
    "lattice_jump",
    "phase_spectrum",
]


_PAIR_BLOCK = 2**14  # pairs per block of _merge_steps: bounds its working arrays


def default_epsilon(moments0) -> float:
    """eps = max over classes of lambda_max at step 0, divided by 400."""
    tops = [m.top_eigenvalue for m in moments0]
    if not tops or max(tops) <= 0.0:
        raise DegenerateError("all step-0 covariances are degenerate")
    return max(tops) / 400.0


def _metric_stat(metric: str) -> str:
    """Name of the ConditionalMoments statistic a metric compares."""
    stats = {"top_eigen_abs": "top_eigenvalue", "trace_l1": "frobenius_sq"}
    if metric not in stats:
        raise DomainError(f"unknown metric {metric!r}")
    return stats[metric]


def _moments0(sweep: TrajectorySweep, events) -> list:
    """Step-0 moments of the events, one conditional_fluctuation each."""
    if len(events) < 2:
        raise DataError("need at least two events")
    # empty events raise here
    return [conditional_fluctuation(sweep, ev, 0) for ev in events]


def _merge_steps(schedule: NoiseSchedule, moments0: list, epsilon: float,
                 metric: str) -> np.ndarray:
    """K x K first-merge matrix under the marginal law (module docstring), from
    the closed form over blocks of _PAIR_BLOCK pairs i < j."""
    k = len(moments0)
    stat = np.array([getattr(m, _metric_stat(metric)) for m in moments0])
    trace = np.array([m.trace for m in moments0]) if metric == "trace_l1" else None
    out = np.zeros((k, k), dtype=np.int64)
    ia, ib = np.triu_indices(k, 1)
    with np.errstate(all="ignore"):  # absent roots and the logs of zero gaps are nan or inf
        for lo in range(0, len(ia), _PAIR_BLOCK):
            a, b = ia[lo:lo + _PAIR_BLOCK], ib[lo:lo + _PAIR_BLOCK]
            gap = stat[a] - stat[b]
            lin = gap if trace is None else 2.0 * (trace[a] - trace[b])  # top-eigen: A = 0
            first = _band_steps(schedule, gap, lin, epsilon)
            # an absent step (nan) is the horizon
            first = np.where(np.abs(gap) <= epsilon, 0, np.fmin(first, schedule.horizon_T))
            out[a, b] = out[b, a] = first
    return out


def _first_step(schedule: NoiseSchedule, x) -> np.ndarray:
    """The first step t >= 1 with int_0^t beta >= x, i.e. J(t)^2 <= exp(-x)."""
    return np.maximum(np.ceil(_beta_integral_inverse(schedule, np.maximum(x, 0.0))), 1.0)


def _band_steps(schedule: NoiseSchedule, gap: np.ndarray, lin: np.ndarray,
                epsilon: float) -> np.ndarray:
    """First step t >= 1 (uncapped; nan if none) with u = J(t)^2 in the band
    |quad u^2 + lin u| <= eps, quad = gap - lin (lin = gap: u |gap| <= eps).
    With the signs flipped so that lin >= 0, the band is [0, r1] u [r2, r3]:
    r1 <= r2 the roots at +eps (r2 only when quad < 0) and r3 the positive
    root at -eps.  The step is the upper piece's first step if that lands in
    it, else the lower piece's.  Each root r enters as x = -ln r, a
    difference of the logs of the stable root's factors; the discriminants
    lin^2 +- c^2, c^2 = 4 |quad| eps, are taken at half scale (h = lin / 2,
    s = c / 2: the same bits above the subnormals) as a hypot and a product
    of square roots, so no root or sum overflows before the statistics do."""
    # lin >= 0, and quad >= 0 where lin = 0, so (a, b) and (b, a) compute alike
    quad = np.where((lin < 0) | (lin == 0) & (gap < 0), lin - gap, gap - lin)
    lin = np.abs(lin)
    h, s = 0.5 * lin, np.sqrt(np.abs(quad)) * np.sqrt(epsilon)
    hyp = np.hypot(h, s)  # at +eps where quad >= 0, at -eps where < 0
    root = np.where(quad < 0, np.sqrt(2 * (h - s)) * np.sqrt((h + s) / 2), hyp)  # nan: no r1, r2
    ln_q = np.log(lin - h + root)  # lin - h is h, but exact where halving a subnormal rounds
    first = _first_step(schedule, ln_q - np.log(epsilon))  # r1 = eps / q
    ln_quad = np.log(-quad)  # r2 = q / -quad, r3 = q3 / -quad
    upper = _first_step(schedule, ln_quad - np.log(h + hyp))
    lands = ~(_beta_integral_inverse(schedule, np.maximum(ln_quad - ln_q, 0.0)) < upper)
    return np.where((quad < 0) & lands, upper, first)  # lands: u(upper) >= r2, or no r2


def _analytic_series(schedule: NoiseSchedule, grid: np.ndarray, moments0: list,
                     merge: np.ndarray) -> np.ndarray:
    """P x len(grid) CKA under the marginal law of every pair i < j (row-major) in
    one broadcast of step-0 traces, ||S||_F^2 and <S_a, S_b>; 1 from each i* on."""
    ia, ib = np.triu_indices(len(moments0), 1)
    j2 = j_values(schedule, grid)[None, :] ** 2
    d = moments0[0].dim
    trace = np.array([[m.trace] for m in moments0])
    f = propagated_inner(j2, np.array([[m.frobenius_sq] for m in moments0]), trace, trace, d)
    before = grid < merge[ia, ib][:, None]
    bad = np.argwhere(before & ((f[ia] <= 0) | (f[ib] <= 0)))
    if bad.size:
        raise DegenerateError(f"zero-norm tensor at step {grid[bad[0, 1]]}")
    den = f[ia] * f[ib]
    g0 = np.array([[cross_fluctuation_G(moments0[a], moments0[b])] for a, b in zip(ia, ib)])
    g = propagated_inner(j2, g0, trace[ia], trace[ib], d)
    values = np.divide(np.abs(g, out=g), np.sqrt(den, out=den), out=den, where=before)
    values[~before] = 1.0
    return np.minimum(values, 1.0, out=values)


def detect_series(sweep: TrajectorySweep, events, epsilon: float | None = None,
                  metric: str = "top_eigen_abs", mode: str = "analytic") -> tuple:
    """(K x K first-merge matrix, P x len(steps) thresholded similarities with
    one row per pair i < j, row-major) of any K events, from one step-0 pass
    and one epsilon over all of them.

    Per step: the normalized cross-fluctuation while the metric distance
    exceeds epsilon, exactly 1 otherwise; i* is the first step of the 1
    branch and is sticky.  Events merge no later than the horizon, so the
    last value is 1 when the grid ends there.
    """
    return _all_pairs(sweep, events, epsilon, metric, mode, series=True)


def pairwise_merge_times(sweep: TrajectorySweep, events, epsilon: float | None = None,
                         metric: str = "top_eigen_abs", mode: str = "analytic") -> np.ndarray:
    """K x K symmetric matrix of first merger steps of any K events; zero
    diagonal."""
    return _all_pairs(sweep, events, epsilon, metric, mode, series=False)[0]


def _all_pairs(sweep: TrajectorySweep, events, epsilon: float | None,
               metric: str, mode: str, series: bool) -> tuple:
    """(K x K first-merge matrix, P x len(steps) similarities of the pairs
    i < j row-major or None) from one step-0 pass and one epsilon over the
    events; the similarities are computed only for series."""
    events = [sweep.dataset.rows(ev) for ev in events]
    moments0 = _moments0(sweep, events)
    if epsilon is None:
        epsilon = default_epsilon(moments0)
    if not epsilon > 0.0:
        raise DomainError("epsilon must be positive")
    if mode == "empirical":
        merge, values = _empirical_walk(sweep, events, epsilon, _metric_stat(metric), moments0,
                                        series)
    elif mode == "analytic":
        merge = _merge_steps(sweep.schedule, moments0, epsilon, metric)
        values = (_analytic_series(sweep.schedule, np.asarray(sweep.steps), moments0, merge)
                  if series else None)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return merge, values


def _empirical_walk(sweep: TrajectorySweep, events: list, epsilon: float, stat: str,
                    moments0: list, series: bool):
    """First-merge matrix and, for series, P x len(steps) thresholded
    similarities (pairs i < j row-major; else None) from one snapshot per grid
    step after 0 (step 0 reads moments0, the events' step-0 moments); a pair
    is 1 from its first step with a distance <= epsilon (sticky) and from the
    horizon on."""
    k = len(events)
    merge = np.full((k, k), sweep.horizon, dtype=np.int64)
    np.fill_diagonal(merge, 0)
    pairs = list(enumerate(combinations(range(k), 2)))
    sims = np.ones((len(pairs), len(sweep.steps))) if series else None
    xt = np.empty(sweep.dataset.features.shape)  # every step's snapshot, drawn in place
    for s, t in enumerate(sweep.steps):
        if t >= sweep.horizon or not pairs:
            break
        if t == 0:  # the same rows through the same code as a snapshot at 0
            moments = dict(enumerate(moments0))
        else:
            live = {c for _, pair in pairs for c in pair}
            sweep.snapshot(t, out=xt)
            moments = {c: moments_from_rows(xt[events[c]]) for c in live}
        for p, (i, j) in pairs:
            if abs(getattr(moments[i], stat) - getattr(moments[j], stat)) <= epsilon:
                merge[i, j] = merge[j, i] = t
            elif series:
                sims[p, s] = normalized_M(moments[i], moments[j])
        pairs = [(p, (i, j)) for p, (i, j) in pairs if merge[i, j] == sweep.horizon]
        del moments  # not held while the next snapshot is drawn
    return merge, sims


def _single_linkage(merge_times: np.ndarray):
    """Yield (lo, hi, height) for each of the K - 1 single-linkage merges,
    with merge times as the dissimilarity; heights are non-decreasing
    (single linkage is ultrametric-safe).

    Row i of the distance matrix stands for the cluster whose smallest
    member is i; a merge folds row hi into row lo by a minimum.  Each merge
    is the first row-major minimum, the smallest (lo, hi), which is the
    tie-break, so the merges are deterministic.  Every row caches only its
    minimum, so a merge costs O(K): lo is the first row with the least
    minimum and hi the first column of row lo holding it; only row lo is
    rescanned.  Every other row's column lo takes the lesser of its columns
    lo and hi and its column hi leaves, so its minimum does not change.
    """
    mt = np.asarray(merge_times, dtype=np.float64)
    if mt.ndim != 2 or mt.shape[0] != mt.shape[1]:
        raise DomainError("merge_times must be a square matrix")
    if not np.all(np.isfinite(mt) & (mt >= 0) & (mt == np.floor(mt))):
        raise DomainError("merge_times must be finite, non-negative whole steps")
    if not np.array_equal(mt, mt.T):
        raise DomainError("merge_times must be symmetric")
    k = mt.shape[0]
    if k < 2:
        return
    dist = mt.copy()
    np.fill_diagonal(dist, np.inf)
    low = dist.min(axis=1)
    for _ in range(k - 1):
        lo = int(np.argmin(low))
        hi = int(np.argmin(dist[lo]))
        yield lo, hi, int(dist[lo, hi])
        row = np.minimum(dist[lo], dist[hi])
        row[lo] = row[hi] = np.inf
        dist[lo, :] = dist[:, lo] = row
        dist[hi, :] = dist[:, hi] = np.inf
        low[lo], low[hi] = row.min(), np.inf


def build_cascade(merge_times: np.ndarray) -> dict:
    """Single-linkage dendrogram over class events as its JSON tree:
    {"class": c} leaves, {"step": h, "children": [left, right]} nodes with
    the merge step as height; the root is the cluster of class 0."""
    if np.shape(merge_times) == (0, 0):
        raise DomainError("merge_times has no classes")
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
    if not eps_disc > 0.0:  # nan fails too
        raise DomainError("eps_disc must be positive")
    L = phi.shape[0]
    if L < 2 * order * tau + 1:
        raise DomainError(
            f"sequence of length {L} too short for order {order}, tau {tau}"
        )
    coeff = np.array([(-1) ** j * comb(order, j) for j in range(order + 1)])
    lo, hi = order * tau, L - order * tau  # t runs over lo..hi-1, each sum in j order
    left = sum(coeff[j] * phi[lo - j * tau:hi - j * tau] for j in range(order + 1))
    right = sum(coeff[j] * phi[lo + (order - j) * tau:hi + (order - j) * tau]
                for j in range(order + 1))
    return (np.flatnonzero(np.abs(left - right) / tau**order >= eps_disc) + lo).tolist()


def phase_spectrum(sweep: TrajectorySweep, events, epsilon_grid,
                   metric: str = "top_eigen_abs") -> list:
    """Count of positive-step merger events in the cascade, per epsilon: the
    number of gaps between consecutive sorted step-0 statistics (lambda_max
    or ||S||_F^2) above epsilon.

    This is exact.  A pair's merge step is 0 if and only if the float gap
    |s_a - s_b| is <= eps (_merge_steps' step-0 test).  If C0 is the
    number of connected components of the graph of those pairs, single
    linkage makes K - C0 merges at step 0 and every other merge at a
    positive step: C0 - 1 of them.  On one axis the components are the runs of sorted s whose
    consecutive gaps are <= eps, since float subtraction is monotone: no
    consecutive gap inside [s_a, s_b] exceeds fl(s_b - s_a).
    """
    eps_grid = [float(e) for e in epsilon_grid]
    if not eps_grid:
        raise DomainError("epsilon grid is empty")
    # a nan fails both comparisons
    if not (eps_grid[0] > 0 and all(b > a for a, b in zip(eps_grid, eps_grid[1:]))):
        raise DomainError("epsilon grid must be positive and increasing")
    stat = _metric_stat(metric)
    gaps = np.diff(np.sort([getattr(m, stat) for m in _moments0(sweep, events)]))
    return [int(np.count_nonzero(gaps > eps)) for eps in eps_grid]
