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

Per-step work that draws its own stream can therefore run on a pool of
threads (step_results): numpy releases the GIL in the draw, the ufuncs
and BLAS, so the steps overlap, and reading their results in step order
keeps the output, early stops and errors those of a serial loop.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, philox
from .errors import DomainError
from .schedule import NoiseSchedule, j_values

__all__ = ["SeedPolicy", "TrajectorySweep", "step_results", "sweep"]

_BLOCK_VALUES = 1 << 15  # floats in one block of j * x0 (256 KiB)


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based noise derivation from a single 64-bit base seed;
    fresh noise per (sample, step)."""

    base_seed: int

    def stream(self, step: int) -> np.random.Generator:
        """The Philox generator of this step; noise() is its first draw."""
        return philox(self.base_seed, step)

    def noise(self, n: int, d: int, step: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (n, d) standard-normal draw of this step, written into out when
        given (the same stream bit for bit)."""
        return self.stream(step).standard_normal((n, d), out=out)


@dataclass(frozen=True)
class TrajectorySweep:
    """One coherent set of forward trajectories, snapshots by step.

    Snapshots are regenerated on demand from the counter-based seeds
    rather than held resident, so memory stays bounded at one N x d
    matrix per worker that draws them (snapshot_rows needs only the rows
    it keeps), regardless of len(steps); regeneration is bit-identical.
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

    def snapshot_rows(self, t: int, rows, out: np.ndarray | None = None) -> np.ndarray:
        """snapshot(t)[rows] bit for bit, written into out (a len(rows) x d
        float64 array, contiguous or not) when given.

        The step's noise is drawn a block of rows at a time, the same stream
        as one N x d draw, and only the block's requested rows are kept, so
        nothing larger than a block or one index per row is allocated.
        """
        if t not in self.steps:
            raise DomainError(f"step {t} not in sweep steps")
        x0 = self.dataset.features
        n, d = x0.shape
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or (rows.size and not (0 <= rows.min() and rows.max() < n)):
            raise DomainError(f"rows must be a 1-D index array into [0, {n})")
        if out is None:
            out = np.empty((len(rows), d))
        block = max(1, _BLOCK_VALUES // d)
        if t == 0:
            for lo in range(0, len(rows), block):
                out[lo:lo + block] = x0[rows[lo:lo + block]]
            return out
        j = float(j_values(self.schedule, t))
        sigma = np.sqrt(1.0 - j * j)
        stream = self.seeds.stream(t)
        eps = np.empty((min(block, n), d))
        order = np.argsort(rows, kind="stable")  # out positions, by row
        ordered = rows[order]
        cuts = np.searchsorted(ordered, np.arange(0, n + block, block))
        for k, lo in enumerate(range(0, n, block)):
            e = eps[:min(block, n - lo)]
            stream.standard_normal(e.shape, out=e)
            first, stop = cuts[k], cuts[k + 1]
            if first < stop:  # snapshot's arithmetic on the kept rows only
                kept = ordered[first:stop]
                picked = e[kept - lo]
                picked *= sigma
                picked += j * x0[kept]
                out[order[first:stop]] = picked
        return out

    @property
    def horizon(self) -> int:
        return self.schedule.horizon_T


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def step_results(count: int, make_slot, work):
    """Yield work(i, slot) for i = 0 .. count - 1, in order of i.

    The calls run on min(usable cores, count) worker threads, at most that
    many in flight.  make_slot() builds one slot of buffers per worker on
    the calling thread, so no worker allocates them: step i gets slot
    i % workers and is submitted only once step i - workers, the slot's last
    user, has been read.  An error in a step is raised when its result is
    read; closing the generator early (or that error) cancels the steps
    still pending and waits for the running ones.
    """
    workers = min(_usable_cores(), count)
    if workers < 1:
        return
    slots = [make_slot() for _ in range(workers)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque(pool.submit(work, i, slots[i]) for i in range(workers))
        for i in range(count):
            yield pending.popleft().result()
            if i + workers < count:
                pending.append(pool.submit(work, i + workers, slots[i % workers]))
    finally:
        pool.shutdown(cancel_futures=True)


def sweep(ds: LabeledDataset, schedule: NoiseSchedule, steps, seeds: SeedPolicy) -> TrajectorySweep:
    steps = tuple(int(s) for s in steps)
    if not steps:
        raise DomainError("step list is empty")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise DomainError("steps must be strictly increasing")
    if steps[0] < 0 or steps[-1] > schedule.horizon_T:
        raise DomainError(f"steps must lie in [0, {schedule.horizon_T}]")
    return TrajectorySweep(dataset=ds, schedule=schedule, steps=steps, seeds=seeds)
