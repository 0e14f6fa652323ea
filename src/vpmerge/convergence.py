"""Convergence-to-Gaussianity detection and distribution-distance checks.

Convergence of the forward process is read off a battery of 1-D
D'Agostino-Pearson omnibus tests over the d coordinates and P seeded
random projections (convergence_step's projections and seed; P = 0 leaves
the coordinates alone): the detected step is the first at which the
fraction of rejecting views drops to 1.5 * alpha (the slack absorbs false
positives at the nominal level).  Per step the battery makes one chunked
pass over the snapshot: each block of rows is centred by the column mean,
projected into the same buffer, and its centred power sums give m2, m3
and m4 of every view (one-pass moments after Pebay, SAND2008-6212), from
which K^2 follows.  The N x (d + P) view matrix is never built.

Steps run on forward.step_results' pool of one worker thread per usable
core (at most one per step): each step draws its own Philox stream, so
the report is bit-identical for any worker count, and results are read
in step order, so the decisions, early stop and errors are those of a
serial scan.  Each worker reuses one snapshot buffer and two block
buffers, allocated by the calling thread.  The projection matmul is
issued in row slices small enough that OpenBLAS runs it on the calling
thread: a larger call wakes OpenBLAS's own threads, which then compete
with the workers for the cores.  Slicing can move the moments in the last bits, as OpenBLAS may
sum a smaller product in another order: with OpenBLAS 0.3.31 the slices
give the whole block's products bit for bit at d = 64 with P = 64 or 200
and at d = 6 with P = 16, but not at every shape.  The moments never
depend on the worker count.

Also here: 1-D total-variation distance on grid densities, the
moment-based TV bound d_TV <= C_n (M^2 + B) with C_n = c0 (1+n!) (2^n+48),
and an empirical characteristic-function distance over seeded Gaussian
frequency probes (a Monte-Carlo stand-in for the L2 frequency norm, which
is intractable on a dense grid in high dimension).  The bound check returns
{"d_tv", "moment_bound", "second_moment_bound", "constant", "bound_value",
"holds"} and the CF distance {"delta", "freq_count", "freq_scale"}: the
dicts the CLI writes.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .data import philox
from .errors import DataError, DegenerateError, DomainError
from .forward import TrajectorySweep, step_results

__all__ = [
    "NormalityReport",
    "dagostino_pearson",
    "convergence_step",
    "tv_distance_1d",
    "moment_tv_check",
    "empirical_cf_distance",
]

REJECTION_SLACK = 1.5
# rows per block of the one-pass view moments: at d + P = 128 views on a 2-core
# x86-64, 512 to 4096 rows time within 16 % of each other; one 10000-row block
# is 1.5x slower
BLOCK_ROWS = 1024
# most multiply-adds in one projection matmul, so that OpenBLAS keeps it on the
# calling thread: OpenBLAS 0.3.31 wakes a second thread, which then competes
# with the battery's workers, for a (rows x 64) @ (64 x 64) dgemm from 256 rows
MATMUL_MADDS = 1 << 18


@dataclass(frozen=True)
class NormalityReport:
    alpha: float
    detected_step: int
    steps: tuple  # (step, rejection fraction) pairs
    decisions: tuple
    degenerate_views: tuple = ()

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "detected_step": self.detected_step,
            "steps": [{"t": int(t), "reject_frac": float(r)} for t, r in self.steps],
        }


def _k2_from_moments(n: int, m2: np.ndarray, m3: np.ndarray, m4: np.ndarray) -> np.ndarray:
    """K^2 = Z_skew^2 + Z_kurt^2 per view (D'Agostino & Pearson omnibus) from
    the central moments m2, m3, m4 of n samples."""
    if np.any(m2 == 0.0):
        raise DegenerateError("zero-variance view")

    # transformed skewness (D'Agostino 1970)
    g1 = m3 / m2**1.5
    y = g1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / (
        (n - 2.0) * (n + 5) * (n + 7) * (n + 9)
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha) ** 2 + 1.0))

    # transformed kurtosis (Anscombe & Glynn 1983)
    b2 = m4 / m2**2
    e_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    x = (b2 - e_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (
        2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1**2)
    )
    z_kurt = (
        (1.0 - 2.0 / (9.0 * a))
        - np.cbrt((1.0 - 2.0 / a) / (1.0 + x * np.sqrt(2.0 / (a - 4.0))))
    ) / math.sqrt(2.0 / (9.0 * a))

    return z_skew**2 + z_kurt**2


def _block_buffers(n: int, width: int) -> tuple:
    """The two (min(BLOCK_ROWS, n), width) block buffers of _view_moments."""
    block = np.empty((min(BLOCK_ROWS, n), width))
    return block, np.empty_like(block)


def _view_moments(x: np.ndarray, proj: np.ndarray, buffers: tuple | None = None) -> tuple:
    """(m2, m3, m4, r) of the views [x | x @ proj] from one chunked pass over x.

    Views are linear, so the projection of a centred block is centred too;
    both share one reused (BLOCK_ROWS, d + P) buffer, taken from buffers
    (as _block_buffers makes them) when given.  The projection is issued
    MATMUL_MADDS multiply-adds at a time.  r is each view's |mean| (taken
    through |proj|), which bounds its centring rounding error.  Data whose
    first centred block is below 2^-200 in magnitude, where m4 or the
    degenerate-view cut would underflow, has every centred block and r
    scaled up by the power of two that brings it near 1: exact, and K^2 and
    the cut are scale-free.
    """
    n, d = x.shape
    if n < 20:
        raise DataError(f"need at least 20 samples, got {n}")
    width = d + proj.shape[1]
    mean = x.mean(axis=0)
    block, sq = buffers if buffers is not None else _block_buffers(n, width)
    span = max(1, MATMUL_MADDS // max(1, d * (width - d)))  # rows per matmul
    s2, s3, s4 = np.zeros(width), np.zeros(width), np.zeros(width)
    for lo in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - lo)
        b, q = block[:rows], sq[:rows]
        np.subtract(x[lo:lo + rows], mean, out=b[:, :d])
        if lo == 0:  # the data's magnitude, from its first centred block
            top = np.abs(b[:, :d], out=q[:, :d]).max(initial=0.0)
            scale = 2.0 ** min(-math.frexp(top)[1], 1000) if 0.0 < top < 2.0**-200 else 1.0
        if scale != 1.0:
            b[:, :d] *= scale
        for at in range(0, rows, span):
            np.matmul(b[at:at + span, :d], proj, out=b[at:at + span, d:])
        np.multiply(b, b, out=q)  # multiplication chains; float pow is several x slower
        s2 += q.sum(axis=0)
        s3 += np.einsum("ij,ij->j", q, b)
        s4 += np.einsum("ij,ij->j", q, q)
    r = np.concatenate([abs(mean), abs(mean) @ abs(proj)]) * scale
    return s2 / n, s3 / n, s4 / n, r


def dagostino_pearson(sample):
    """(K^2, p) for a 1-D sample, or arrays of both for a (N, V) batch.

    p is the chi-square(2) upper tail of K^2, i.e. exp(-K^2 / 2).
    """
    arr = np.asarray(sample, dtype=np.float64)
    one_d = arr.ndim == 1
    if one_d:
        arr = arr[:, None]
    k2 = _k2_from_moments(arr.shape[0], *_view_moments(arr, np.empty((arr.shape[1], 0)))[:3])
    p = np.exp(-0.5 * k2)
    if one_d:
        return float(k2[0]), float(p[0])
    return k2, p


def _projections(count: int, seed: int, d: int) -> np.ndarray:
    """The (d, count) matrix of seeded unit-column projections."""
    if count < 0:
        raise DomainError(f"projection count must be >= 0, got {count}")
    proj = philox(seed, 0xC0DE).standard_normal((d, count))
    proj /= np.linalg.norm(proj, axis=0)
    return proj


def convergence_step(sweep: TrajectorySweep, alpha: float = 0.05,
                     projections: int = 0, seed: int = 0,
                     stop_at_detection: bool = False) -> NormalityReport:
    """First sweep step at which the view battery looks Gaussian.

    The views are the d coordinates and `projections` unit-vector
    projections drawn from seed (none by default).  Scans steps upward;
    per step the rejection fraction at level alpha is compared to
    REJECTION_SLACK * alpha.  Degenerate views are recorded and excluded
    from the fraction, never fatal.  If no step passes, the detected step
    is reported as the horizon.
    stop_at_detection skips the remaining steps once the decision fires
    (the detected step is unaffected; the per-step series just ends there).

    The steps' snapshots and view moments run on min(usable cores, steps)
    worker threads, at most that many steps in flight; results are read
    in step order, and the steps still pending are cancelled on detection
    (with stop_at_detection) or on an error.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    steps = sweep.steps
    if len(steps) < 1:
        raise DomainError("sweep has no steps")
    n, d = sweep.dataset.features.shape
    proj = _projections(projections, seed, d)
    width = d + proj.shape[1]

    def slot() -> tuple:
        return np.empty((n, d)), _block_buffers(n, width)

    def moments(i: int, slot: tuple) -> tuple:
        snapshot, blocks = slot
        return _view_moments(sweep.snapshot(steps[i], out=snapshot), proj, blocks)

    fractions, decisions, degenerate = [], [], []
    detected = None
    with closing(step_results(len(steps), slot, moments)) as results:
        for t, (m2, m3, m4, r) in zip(steps, results):
            # a constant view centres to rounding noise within n ulps of its mean
            live = m2 > (n * np.finfo(np.float64).eps * r) ** 2
            n_deg = int(np.sum(~live))
            if not np.any(live):
                raise DegenerateError(f"all views degenerate at step {t}")
            k2 = _k2_from_moments(n, m2[live], m3[live], m4[live])
            frac = float(np.mean(np.exp(-0.5 * k2) < alpha))
            ok = frac <= REJECTION_SLACK * alpha
            fractions.append((int(t), frac))
            decisions.append(ok)
            degenerate.append(n_deg)
            if ok and detected is None:
                detected = int(t)
                if stop_at_detection:
                    break
    return NormalityReport(
        alpha=alpha,
        detected_step=detected if detected is not None else sweep.horizon,
        steps=tuple(fractions),
        decisions=tuple(decisions),
        degenerate_views=tuple(degenerate),
    )


def _check_density(p: np.ndarray, grid: np.ndarray, name: str) -> None:
    if p.shape != grid.shape:
        raise DomainError(f"{name} and grid shapes differ")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(grid))):
        raise DomainError(f"{name} or its grid has a non-finite value")
    if np.any(p < 0):
        raise DomainError(f"{name} has negative mass")
    total = np.trapezoid(p, grid)
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"{name} integrates to {total}, not 1")


def tv_distance_1d(p, q, grid) -> float:
    """Total-variation distance (1/2) int |p - q| on a shared grid."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    _check_density(p, grid, "p")
    _check_density(q, grid, "q")
    return float(0.5 * np.trapezoid(np.abs(p - q), grid))


def _grid_central_moments(p: np.ndarray, grid: np.ndarray, up_to: int) -> np.ndarray:
    mean = np.trapezoid(grid * p, grid)
    dev = grid - mean
    moments = np.empty(up_to + 1)
    moments[0] = mean  # slot 0 carries the raw mean for the B bound
    for k in range(1, up_to + 1):
        moments[k] = np.trapezoid(dev**k * p, grid)
    return moments


def moment_tv_check(p, q, grid, n: int, c0: float = 1.0) -> dict:
    """Check d_TV(p, q) <= C_n (M^2 + B) with C_n = c0 (1 + n!) (2^n + 48).

    M is the largest gap between centered moments up to order n; B bounds
    |mean| and the variance of both densities.  C_n and the bound must be
    finite floats, which needs n <= 170 (171! overflows a float).  Returns
    {"d_tv", "moment_bound": M, "second_moment_bound": B, "constant": C_n,
    "bound_value": C_n (M^2 + B), "holds": d_tv <= bound_value}.
    """
    if not 2 <= n <= 170:
        raise DomainError(f"moment order n must lie in [2, 170], got {n}")
    if not (math.isfinite(c0) and c0 > 0):
        raise DomainError(f"c0 must be finite and > 0, got {c0}")
    c_n = c0 * (1.0 + math.factorial(n)) * (2.0**n + 48.0)
    if not math.isfinite(c_n):
        raise DomainError(f"C_n overflows a float at n = {n}, c0 = {c0}")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    d_tv = tv_distance_1d(p, q, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mp = _grid_central_moments(p, grid, n)
        mq = _grid_central_moments(q, grid, n)
        m_bound = np.max(np.abs(mp[1:] - mq[1:]))
        b_bound = max(abs(mp[0]), abs(mq[0]), mp[2], mq[2])
        bound = c_n * (m_bound**2 + b_bound)
    if not np.isfinite(bound):
        raise DomainError(f"the bound C_n (M^2 + B) is not finite at n = {n}, c0 = {c0}")
    return {"d_tv": d_tv, "moment_bound": float(m_bound),
            "second_moment_bound": float(b_bound), "constant": c_n,
            "bound_value": float(bound), "holds": bool(d_tv <= bound)}


def empirical_cf_distance(a: np.ndarray, b: np.ndarray, freq_count: int = 64,
                          freq_scale: float | None = None,
                          seed: int = 0) -> dict:
    """RMS gap between the empirical characteristic functions of the rows of
    a and of b at seeded probes, as {"delta", "freq_count", "freq_scale"}.

    Probes are freq_scale * N(0, I_d) draws; freq_scale defaults to
    1/sqrt(d) so probe energy matches unit-variance data.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.shape[1] != xb.shape[1]:
        raise DomainError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if freq_count < 1:
        raise DomainError("freq_count must be >= 1")
    if freq_scale is not None and not (math.isfinite(freq_scale) and freq_scale > 0):
        raise DomainError(f"freq_scale must be finite and > 0, got {freq_scale}")
    d = xa.shape[1]
    scale = freq_scale if freq_scale is not None else 1.0 / math.sqrt(d)
    freqs = scale * philox(seed, 0xF0F0).standard_normal((freq_count, d))
    phi_a = np.exp(1j * xa @ freqs.T).mean(axis=0)
    phi_b = np.exp(1j * xb @ freqs.T).mean(axis=0)
    delta = float(np.sqrt(np.mean(np.abs(phi_a - phi_b) ** 2)))
    return {"delta": delta, "freq_count": freq_count, "freq_scale": float(scale)}
