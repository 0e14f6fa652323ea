"""Empirical forward diffusion: marginal noising and one-sweep trajectories.

A snapshot at step t is the closed-form marginal
    x_t = J(t) x_0 + sqrt(1 - J(t)^2) eps,
which is exact and O(1) per (sample, step).  Noise is counter-based:
every step draws from the Philox stream ``data.philox(base_seed, step)``,
so a sweep regenerates bit-identically from (dataset, schedule, steps,
seed) and is independent of how work is scheduled across steps.

One-sweep property: all snapshots of a TrajectorySweep come from the same
x_0 rows, so event membership fixed at step 0 indexes the same
trajectories at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, philox
from .errors import DomainError
from .schedule import NoiseSchedule, j_values

__all__ = ["SeedPolicy", "TrajectorySweep", "sweep"]

_BLOCK_VALUES = 1 << 15  # floats in one block of j * x0 (256 KiB)


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based noise derivation from a single 64-bit base seed;
    fresh noise per (sample, step)."""

    base_seed: int

    def noise(self, n: int, d: int, step: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (n, d) standard-normal draw of this step, written into out when
        given (the same stream bit for bit)."""
        return philox(self.base_seed, step).standard_normal((n, d), out=out)


@dataclass(frozen=True)
class TrajectorySweep:
    """One coherent set of forward trajectories, snapshots by step.

    Snapshots are regenerated on demand from the counter-based seeds
    rather than held resident, so memory stays bounded at one N x d
    matrix per worker that draws them, regardless of len(steps);
    regeneration is bit-identical.
    """

    dataset: LabeledDataset
    schedule: NoiseSchedule
    steps: tuple
    seeds: SeedPolicy

    def snapshot(self, t: int, out: np.ndarray | None = None) -> np.ndarray:
        """Closed-form marginal snapshot J(t) x0 + sqrt(1 - J^2) eps at sweep
        step t, written into out (a C-contiguous N x d float64 array) when given."""
        if t not in self.steps:
            raise DomainError(f"step {t} not in sweep steps")
        x0 = self.dataset.features
        if t == 0:
            if out is None:
                return x0.copy()
            np.copyto(out, x0)
            return out
        j = float(j_values(self.schedule, t))
        sigma = np.sqrt(1.0 - j * j)
        # built inside the noise buffer, j * x0 added a block of rows at a
        # time: bit-identical to j * x0 + sigma * eps
        n, d = x0.shape
        eps = self.seeds.noise(n, d, t, out=out)
        eps *= sigma
        rows = max(1, _BLOCK_VALUES // d)
        for lo in range(0, n, rows):
            eps[lo:lo + rows] += j * x0[lo:lo + rows]
        return eps

    @property
    def horizon(self) -> int:
        return self.schedule.horizon_T


def sweep(ds: LabeledDataset, schedule: NoiseSchedule, steps, seeds: SeedPolicy) -> TrajectorySweep:
    steps = tuple(int(s) for s in steps)
    if not steps:
        raise DomainError("step list is empty")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise DomainError("steps must be strictly increasing")
    if steps[0] < 0 or steps[-1] > schedule.horizon_T:
        raise DomainError(f"steps must lie in [0, {schedule.horizon_T}]")
    return TrajectorySweep(dataset=ds, schedule=schedule, steps=steps, seeds=seeds)
