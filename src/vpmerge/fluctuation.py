"""Conditional fluctuation tensors and their alignment statistics.

For an event Omega the conditional fluctuation tensor is the covariance
    (1/|Omega|) sum over event rows of (x - m)(x - m)^T,
centred on the event's own mean m and divided by the realised event
count.  Alignment of two events' tensors is the Hilbert inner product G;
the normalized form
    M = |G| / sqrt(F_a F_b),   F = ||tensor||^2,
is the cosine similarity, i.e. the centred kernel alignment between the
two conditional covariance matrices.

ConditionalMoments (lambda_max, tr S, ||S||_F^2) and cross_fluctuation_G
are the only readers of a tensor; other modules read only their numbers.

Step 0 reads the dataset rows, so the grid need not hold it; later steps
follow from it in closed form.  The law of J x0 + sigma eps conditioned on a
step-0 event has covariance J^2 S0 + (1 - J^2) I; the inner product of two
such covariances (a squared norm when both are one) is propagated_inner, the
one copy of that law (the merger reads it with J^2 directly).  Any other
step, the empirical oracle, reads the sweep's stochastic snapshot there.

Only order 2 is computed: order-1 tensors under own-mean centring are
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    "propagated_inner",
    "top_eigenvalue",
]


@dataclass(frozen=True)
class ConditionalMoments:
    """Order-2 centered moment tensor (a d x d covariance) of one event at one
    step.  Its statistics are computed on first read, so a run that never reads
    ||S||_F^2 cannot overflow on it."""

    tensor: np.ndarray

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    @cached_property
    def top_eigenvalue(self) -> float:
        """lambda_max, from one top_eigenvalue solve."""
        return top_eigenvalue(self.tensor)

    @cached_property
    def trace(self) -> float:
        """tr S."""
        return float(np.trace(self.tensor))

    @cached_property
    def frobenius_sq(self) -> float:
        """||S||_F^2, the squared Hilbert norm F."""
        return float(np.sum(self.tensor * self.tensor))


def moments_from_rows(rows: np.ndarray) -> ConditionalMoments:
    """Moments of the rows' covariance, centred on their own mean and divided
    by the row count."""
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    if m == 0:
        raise DomainError("event is empty")
    if m < 2:
        raise DegenerateError("order-2 tensor needs an event with >= 2 rows")
    dev = rows - rows.mean(axis=0)
    return ConditionalMoments(dev.T @ dev / m)


def conditional_fluctuation(sweep: TrajectorySweep, event, t: int) -> ConditionalMoments:
    """Conditional covariance of one event at step t of a sweep.  Step 0 reads
    the dataset rows, so the grid need not hold it; any other t reads the
    snapshot, so it must be a sweep step.  The two agree at 0, where the
    snapshot is an exact copy of the rows."""
    event = sweep.dataset.rows(event)
    return moments_from_rows(sweep.dataset.features[event] if t == 0
                             else sweep.snapshot(t, event))


def propagated_inner(j2, inner, trace_a, trace_b, d):
    """<J^2 A + (1-J^2) I, J^2 B + (1-J^2) I>
    = J^4 <A, B> + J^2 (1-J^2) (tr A + tr B) + d (1-J^2)^2, added left to right."""
    return j2**2 * inner + j2 * (1 - j2) * (trace_a + trace_b) + d * (1 - j2) ** 2


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
