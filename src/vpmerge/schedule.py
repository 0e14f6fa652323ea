"""Variance-preserving noise schedules.

A linear schedule beta(t) drives the forward process
    dx = -1/2 beta(t) x dt + sqrt(beta(t)) dW,
whose marginal is N(J(t) x0, (1 - J(t)^2) I) with the signal-attenuation
factor J(t) = exp(-1/2 int_0^t beta).  For a linear beta the integral is
closed form, so J and the mixing-time prediction are analytic.

Conventions: t = 0 is clean data, t = horizon_T is (near) white noise.
The discrete DDPM schedule puts beta_t on steps 1..T with
beta_t = beta0 + (betaT - beta0) (t - 1) / (T - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "NoiseSchedule",
    "betas",
    "j_values",
    "predict_mixing_step",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with discrete horizon T; the defaults are DDPM's."""

    beta0: float = 1e-4
    betaT: float = 0.02
    horizon_T: int = 1000

    def __post_init__(self) -> None:
        if not (0.0 < self.beta0 <= self.betaT < 1.0):
            raise DomainError(
                f"need 0 < beta0 <= betaT < 1, got ({self.beta0}, {self.betaT})"
            )
        if self.horizon_T < 1:
            raise DomainError(f"horizon_T must be >= 1, got {self.horizon_T}")

    def to_dict(self) -> dict:
        return {"beta0": self.beta0, "betaT": self.betaT, "T": self.horizon_T}


def betas(schedule: NoiseSchedule) -> np.ndarray:
    """All discrete beta_t for t = 1..T as an array."""
    T = schedule.horizon_T
    if T == 1:
        return np.array([schedule.beta0])
    steps = np.arange(1, T + 1, dtype=np.float64)
    return schedule.beta0 + (schedule.betaT - schedule.beta0) * (steps - 1) / (T - 1)


def _beta_integral(schedule: NoiseSchedule, t) -> np.ndarray:
    """int_0^t beta(s) ds for the continuous linear schedule."""
    t = np.asarray(t, dtype=np.float64)
    dbeta = schedule.betaT - schedule.beta0
    return schedule.beta0 * t + 0.5 * dbeta * t * t / schedule.horizon_T


def _beta_integral_inverse(schedule: NoiseSchedule, x) -> np.ndarray:
    """The t >= 0 with int_0^t beta = x for x >= 0, vectorized: the stable
    positive root x / (b + sqrt(b^2 + 2 a x)) of a t^2 + b t = x / 2, with
    a = (betaT - beta0) / (4 T) and b = beta0 / 2 (linear in t when a = 0)."""
    a = (schedule.betaT - schedule.beta0) / (4.0 * schedule.horizon_T)
    b = 0.5 * schedule.beta0
    return x / (b + np.sqrt(b * b + 2.0 * a * x))


def j_values(schedule: NoiseSchedule, t) -> np.ndarray:
    """Attenuation J(t) = exp(-1/2 int_0^t beta), vectorized over t; exact
    for the linear schedule."""
    return np.exp(-0.5 * _beta_integral(schedule, t))


def predict_mixing_step(schedule: NoiseSchedule, dim: int) -> dict:
    """Analytic epsilon-mixing step for sub-Gaussian data in dimension d, as
    {"t_mix_steps", "t_mix_fraction" (of the horizon T), "dim"}.

    Solves (beta0/2) t + (betaT - beta0) t^2 / (4 T) = log(d/2) / 4,
    the quadratic whose DDPM-default form is t + 0.0995 t^2 = 5000 log(d/2).
    """
    if dim < 3:
        raise DomainError(f"dim must be >= 3 so that log(d/2) > 0, got {dim}")
    rhs = 0.25 * math.log(dim / 2.0)
    a = (schedule.betaT - schedule.beta0) / (4.0 * schedule.horizon_T)
    b = 0.5 * schedule.beta0
    t = float(_beta_integral_inverse(schedule, 2.0 * rhs))  # int_0^t beta = 2 rhs
    for _ in range(3):  # Newton polish to push the residual below 1e-9
        f = a * t * t + b * t - rhs
        t -= f / (2.0 * a * t + b)
    return {"t_mix_steps": t, "t_mix_fraction": t / schedule.horizon_T, "dim": dim}
