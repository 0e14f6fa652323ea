"""Conditional fluctuation tensors and their alignment statistics.

For an event Omega the conditional fluctuation tensor is the covariance
    (1/|Omega|) sum over event rows of (x - m)(x - m)^T,
centred on the event's own mean m and divided by the realised event
count.  Alignment of two events' tensors is the Hilbert inner product G;
the normalized form
    M = |G| / sqrt(F_a F_b),   F = ||tensor||^2,
is the cosine similarity, i.e. the centred kernel alignment between the
two conditional covariance matrices.

Moments come from one of two sources:

* propagate=True: the step-0 moments of the dataset rows (only t = 0).
  Later steps follow from them in closed form: the law of J x0 + sigma eps
  conditioned on a step-0 event has covariance J^2 S0 + (1 - J^2) I, whose
  squared norm is propagated_frobenius, the one copy of that law (the
  merger reads it with J^2 directly).
* propagate=False (empirical): recompute from the sweep's stochastic
  snapshot at t.

Only order 2 is computed: order-1 tensors under own-mean centring are
identically zero.  The n / order parameters accept 2 and raise
DomainError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError
from .forward import TrajectorySweep
# unused here; perfbench's schedule.j_calls counter patches j_values by this name
from .schedule import j_values  # noqa: F401

__all__ = [
    "ConditionalMoments",
    "conditional_fluctuation",
    "moments_from_rows",
    "cross_fluctuation_G",
    "normalized_M",
    "propagated_frobenius",
    "top_eigenvalue",
]


@dataclass(frozen=True)
class ConditionalMoments:
    """Order-2 centered moment tensor (a d x d covariance) of one event at one step."""

    tensor: np.ndarray
    top_eigenvalue: float
    frobenius_sq: float

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    @classmethod
    def from_tensor(cls, tensor, order: int = 2):
        """Moments of a covariance matrix; one top-eigenvalue solve."""
        _check_order(order)
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 2:
            raise DomainError("order-2 tensor must be a matrix")
        return cls(tensor=tensor, top_eigenvalue=top_eigenvalue(tensor),
                   frobenius_sq=float(np.sum(tensor * tensor)))


def _check_order(n: int) -> None:
    if n != 2:
        raise DomainError(f"tensor order must be 2, got {n}")


def moments_from_rows(rows: np.ndarray, n: int):
    """(mean, covariance) of the rows, centred on their own mean and
    divided by the row count."""
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    if m == 0:
        raise DomainError("event is empty")
    _check_order(n)
    if m < 2:
        raise DegenerateError("order-2 tensor needs an event with >= 2 rows")
    mean = rows.mean(axis=0)
    dev = rows - mean
    return mean, dev.T @ dev / m


def conditional_fluctuation(sweep: TrajectorySweep, event, t: int, n: int = 2,
                            propagate: bool = True) -> ConditionalMoments:
    """Conditional covariance of one event at step t of a sweep.  Propagated
    moments read the dataset rows, so t must be 0 and the grid need not hold
    it; empirical ones read the snapshot, so t must be a sweep step."""
    event = np.asarray(event, dtype=np.int64)
    if not propagate:
        return ConditionalMoments.from_tensor(moments_from_rows(sweep.snapshot(t)[event], n)[1])
    if t != 0:
        raise DomainError(f"propagated moments are step-0 moments, got step {t}")
    return ConditionalMoments.from_tensor(moments_from_rows(sweep.dataset.features[event], n)[1])


def propagated_frobenius(j2, frobenius_sq, trace, d):
    """||J^2 A + (1-J^2) I||_F^2 = J^4 ||A||^2 + 2 J^2 (1-J^2) tr A + d (1-J^2)^2."""
    return j2**2 * frobenius_sq + 2 * j2 * (1 - j2) * trace + d * (1 - j2) ** 2


def cross_fluctuation_G(a: ConditionalMoments, b: ConditionalMoments) -> float:
    """Hilbert inner product of two conditional moment tensors."""
    if a.tensor.shape != b.tensor.shape:
        raise DomainError(f"dimension mismatch: {a.tensor.shape} vs {b.tensor.shape}")
    return float(np.sum(a.tensor * b.tensor))


def normalized_M(a: ConditionalMoments, b: ConditionalMoments) -> float:
    """|G| / sqrt(F_a F_b) in [0, 1]: the CKA of two covariances."""
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
