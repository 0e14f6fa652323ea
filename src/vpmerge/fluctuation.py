"""Conditional fluctuation tensors and their alignment statistics.

For an event Omega and order n, the conditional moment tensor is
    (1/|Omega|) sum over event rows of (x - center)^(x n),
with the center either the event mean (conditional_mean) or the full
dataset mean at that step (global_mean).  Alignment of two events'
tensors is the Hilbert inner product G; the normalized form
    M = |G| / sqrt(F_a F_b),   F = ||tensor||^2,
is the cosine similarity, which for n = 2 is the centred kernel
alignment between conditional covariance matrices.

Moments at a noised step can be obtained two ways:

* propagate=True (exact): the law of J x0 + sigma eps conditioned on a
  step-0 event has mean J m0 and covariance J^2 S0 + (1 - J^2) I, so the
  step-0 estimate is pushed forward analytically with no extra MC noise.
* propagate=False (empirical): recompute from the sweep's stochastic
  snapshot at t.

Tensor order is capped at 2; higher orders go through the scalar moment
identity mu_n(t) = J^n mu_n(0) + (1 - J^n) mu_n(N(0,1)) for unit-variance
components, with Gaussian central moments (n-1)!! from Isserlis' theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .forward import TrajectorySweep
from .schedule import NoiseSchedule, j_values

__all__ = [
    "ConditionalMoments",
    "conditional_fluctuation",
    "moments_from_rows",
    "cross_fluctuation_G",
    "normalized_M",
    "top_eigenvalue",
    "scalar_moment_trajectory",
    "gaussian_central_moment",
]


@dataclass(frozen=True)
class ConditionalMoments:
    """Mean and order-n centered moment tensor of one event at one step."""

    event_id: object
    step: float
    order: int
    centering: str
    mean_vector: np.ndarray
    tensor: np.ndarray  # (d,) for n=1, (d,d) for n=2
    top_eigenvalue: float
    frobenius_sq: float

    @property
    def dim(self) -> int:
        return self.mean_vector.shape[0]

    @classmethod
    def from_tensor(cls, tensor, order=None, step=0.0, event_id=None,
                    centering="conditional_mean", mean_vector=None):
        """Moments of a vector/matrix; one top-eigenvalue solve (norm at order 1)."""
        tensor = np.asarray(tensor, dtype=np.float64)
        n = order if order is not None else tensor.ndim
        if n == 2 and tensor.ndim != 2:
            raise DomainError("order-2 tensor must be a matrix")
        if mean_vector is None:
            mean_vector = np.zeros(tensor.shape[0])
        top = top_eigenvalue(tensor) if n == 2 else float(np.linalg.norm(tensor))
        return cls(
            event_id=event_id, step=float(step), order=n, centering=centering,
            mean_vector=np.asarray(mean_vector, dtype=np.float64),
            tensor=tensor, top_eigenvalue=top,
            frobenius_sq=float(np.sum(tensor * tensor)),
        )


def moments_from_rows(rows: np.ndarray, n: int, centering: str = "conditional_mean",
                      global_mean=None, denom: float | None = None):
    """(mean_vector, tensor) of the rows; denom overrides |event| in the
    tensor average (the known-probability ratio estimator uses N * p_k)."""
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    if m == 0:
        raise DomainError("event is empty")
    if n not in (1, 2):
        raise DomainError(f"tensor order must be 1 or 2, got {n}")
    if n == 2 and m < 2 and denom is None:
        raise DegenerateError("order-2 tensor needs an event with >= 2 rows")
    mean = rows.mean(axis=0)
    if centering == "conditional_mean":
        center = mean
    elif centering == "global_mean":
        if global_mean is None:
            raise DomainError("global_mean centering requires the dataset mean")
        center = np.asarray(global_mean, dtype=np.float64)
    else:
        raise DomainError(f"unknown centering {centering!r}")
    dev = rows - center
    scale = m if denom is None else denom
    if n == 1:
        if centering == "conditional_mean":
            tensor = np.zeros(rows.shape[1])  # identically zero, keep it exact
        else:
            tensor = dev.sum(axis=0) / scale
    else:
        tensor = dev.T @ dev / scale
    return mean, tensor


def conditional_fluctuation(sweep: TrajectorySweep, event, t: int, n: int = 2,
                            centering: str = "conditional_mean",
                            propagate: bool = True,
                            known_prob: float | None = None) -> ConditionalMoments:
    """Order-n conditional moment tensor of one event at step t of a sweep.

    With known_prob the tensor average divides by N * p_k (the one-sweep
    ratio estimator) instead of the realized event count.
    """
    event = np.asarray(event, dtype=np.int64)
    if event.size == 0:
        raise DomainError("event is empty")
    if t not in sweep.steps and not (propagate and 0 in sweep.steps):
        raise DomainError(f"step {t} not in sweep steps")
    denom = None
    if known_prob is not None:
        if not 0.0 < known_prob <= 1.0:
            raise DomainError("known_prob must lie in (0, 1]")
        denom = sweep.dataset.count * known_prob

    if propagate:
        x0 = sweep.dataset.features
        gmean0 = x0.mean(axis=0) if centering == "global_mean" else None
        mean0, tensor0 = moments_from_rows(
            x0[event], n, centering, global_mean=gmean0, denom=denom
        )
        return propagate_moments(
            ConditionalMoments.from_tensor(tensor0, n, 0, None, centering, mean0),
            sweep.schedule, t, event_id=_event_key(event),
        )

    xt = sweep.snapshot(t)
    gmean = xt.mean(axis=0) if centering == "global_mean" else None
    mean, tensor = moments_from_rows(
        xt[event], n, centering, global_mean=gmean, denom=denom
    )
    return ConditionalMoments.from_tensor(tensor, n, t, _event_key(event), centering, mean)


def _event_key(event: np.ndarray):
    return (int(event[0]), int(event.size))


def propagate_moments(m0: ConditionalMoments, schedule: NoiseSchedule, t: int,
                      event_id=None) -> ConditionalMoments:
    """Push step-0 moments through the marginal law to step t (exact)."""
    j = float(j_values(schedule, t))
    if m0.order == 1:
        tensor = j * m0.tensor
        top = float(np.linalg.norm(tensor))
    else:
        j2 = j * j
        tensor = j2 * m0.tensor + (1.0 - j2) * np.eye(m0.dim)
        # eigenvectors are preserved by a J^2 A + (1-J^2) I map, so the top
        # eigenvalue propagates exactly, with no eigensolve
        top = j2 * m0.top_eigenvalue + (1.0 - j2)
    return ConditionalMoments(
        event_id=event_id or m0.event_id, step=float(t), order=m0.order,
        centering=m0.centering, mean_vector=j * m0.mean_vector, tensor=tensor,
        top_eigenvalue=top, frobenius_sq=float(np.sum(tensor * tensor)),
    )


def cross_fluctuation_G(a: ConditionalMoments, b: ConditionalMoments) -> float:
    """Hilbert inner product of two conditional moment tensors."""
    if a.order != b.order:
        raise DomainError(f"order mismatch: {a.order} vs {b.order}")
    if a.tensor.shape != b.tensor.shape:
        raise DomainError(f"dimension mismatch: {a.tensor.shape} vs {b.tensor.shape}")
    return float(np.sum(a.tensor * b.tensor))


def normalized_M(a: ConditionalMoments, b: ConditionalMoments) -> float:
    """|G| / sqrt(F_a F_b) in [0, 1]; the CKA for n = 2."""
    if a.frobenius_sq <= 0.0 or b.frobenius_sq <= 0.0:
        raise DegenerateError("normalized_M undefined for a zero-norm tensor")
    g = cross_fluctuation_G(a, b)
    val = abs(g) / np.sqrt(a.frobenius_sq * b.frobenius_sq)
    return float(min(val, 1.0))  # Cauchy-Schwarz; excess is rounding only


def top_eigenvalue(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, from one dense symmetric
    eigensolve (exact at every dimension)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"need a square matrix, got shape {matrix.shape}")
    return float(np.linalg.eigvalsh(matrix)[-1])


def gaussian_central_moment(n: int) -> float:
    """Central moment of N(0,1): 0 for odd n, (n-1)!! for even n."""
    if n < 0:
        raise DomainError("moment order must be >= 0")
    if n % 2 == 1:
        return 0.0
    out = 1.0
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def scalar_moment_trajectory(mu0: float, n: int, schedule: NoiseSchedule, t) -> float:
    """mu_n(t) = J^n mu_n(0) + (1 - J^n) (n-1)!! for a unit-variance component."""
    if n < 2:
        raise DomainError("scalar moment identity needs order >= 2")
    jn = float(j_values(schedule, t)) ** n
    return jn * mu0 + (1.0 - jn) * gaussian_central_moment(n)
