"""Empirical forward diffusion: marginal noising and one-sweep trajectories.

A snapshot at step t is the closed-form marginal
    x_t = J(t) x_0 + sqrt(1 - J(t)^2) eps,
which is exact and O(1) per (sample, step).  Noise is counter-based:
every step draws from the Philox stream ``data.philox(base_seed, step)``,
so a sweep regenerates bit-identically from (dataset, schedule, steps,
seed) and is independent of how work is scheduled across steps.  Every
draw is TrajectorySweep.snapshot's, a block of rows at a time: whole
snapshots for the battery and the empirical walk, some rows for the probe.

One-sweep property: all snapshots of a TrajectorySweep come from the same
x_0 rows, so event membership fixed at step 0 indexes the same
trajectories at every step.

Per-step work that draws its own stream can therefore run on a pool of
threads (step_results): numpy releases the GIL in the draw, the ufuncs
and BLAS, so the steps overlap, and reading their results in step order
keeps the output, early stops and errors those of a serial loop.  Each
step runs in a copy of the caller's context, numpy's error state included.
"""

from __future__ import annotations

import contextvars
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, philox
from .errors import DomainError
from .schedule import NoiseSchedule, j_values

__all__ = ["SeedPolicy", "TrajectorySweep", "step_results", "sweep"]

_BLOCK_VALUES = 1 << 15  # floats in one block of a step's noise draw (256 KiB)


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based noise derivation from a single 64-bit base seed;
    fresh noise per (sample, step)."""

    base_seed: int

    def stream(self, step: int) -> np.random.Generator:
        """The Philox generator of this step's forward noise."""
        return philox(self.base_seed, step)


@dataclass(frozen=True)
class TrajectorySweep:
    """One coherent set of forward trajectories, snapshots by step.

    Snapshots are regenerated on demand from the counter-based seeds
    rather than held resident, so memory stays bounded at one N x d
    matrix per worker that draws whole snapshots, regardless of
    len(steps); regeneration is bit-identical.
    """

    dataset: LabeledDataset
    schedule: NoiseSchedule
    steps: tuple
    seeds: SeedPolicy

    def snapshot(self, t: int, rows=None, out: np.ndarray | None = None) -> np.ndarray:
        """The marginal J(t) x0 + sqrt(1 - J^2) eps at sweep step t, or its
        rows (an event, read by LabeledDataset.rows; any order, repeats allowed),
        written into out when given: float64, C-contiguous N x d or any len(rows) x d.

        The step's stream is drawn a block of rows at a time, the values of
        one N x d draw.  A whole snapshot is scaled and shifted in out block
        by block; a draw of rows keeps each block's requested rows and stops
        after the block of the largest.  Both are j * x0 + sigma * eps bit
        for bit."""
        if t not in self.steps:
            raise DomainError(f"step {t} not in sweep steps")
        x0 = self.dataset.features
        n, d = x0.shape
        block = max(1, _BLOCK_VALUES // d)
        if rows is not None:
            rows = self.dataset.rows(rows)
        if out is None:
            out = np.empty((n if rows is None else len(rows), d))
        if t == 0:
            if rows is None:
                np.copyto(out, x0)
            else:  # a block of rows at a time, so no len(rows) x d copy is made
                for lo in range(0, len(rows), block):
                    out[lo:lo + block] = x0[rows[lo:lo + block]]
            return out
        j = float(j_values(self.schedule, t))
        sigma = np.sqrt(1.0 - j * j)
        stream = self.seeds.stream(t)
        if rows is None:
            for lo in range(0, n, block):
                eps = out[lo:lo + block]
                stream.standard_normal(eps.shape, out=eps)
                eps *= sigma
                eps += j * x0[lo:lo + block]
            return out
        order = np.argsort(rows, kind="stable")  # out positions, by row
        ordered = rows[order]
        cuts = np.searchsorted(ordered, np.arange(0, n + block, block))
        buf = np.empty((min(block, n), d))
        for lo in range(0, ordered[-1] + 1 if rows.size else 0, block):
            eps = buf[:min(block, n - lo)]
            stream.standard_normal(eps.shape, out=eps)
            first, stop = cuts[lo // block], cuts[lo // block + 1]
            if first < stop:  # the same arithmetic on the kept rows only
                kept = ordered[first:stop]
                picked = eps[kept - lo]
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
        def submit(i: int):  # in its own copy of the caller's context
            return pool.submit(contextvars.copy_context().run, work, i, slots[i % workers])

        pending = deque(submit(i) for i in range(workers))
        for i in range(count):
            yield pending.popleft().result()
            if i + workers < count:
                pending.append(submit(i + workers))
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
