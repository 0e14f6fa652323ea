#!/usr/bin/env python3
"""Scan the merger-count spectrum over a threshold grid.

For a K-class Gaussian fixture, counts the cascade's positive-step
merger events at each threshold; the staircase down to zero as the
threshold grows is the phase spectrum of the detector.
"""

import argparse

import numpy as np

from vpmerge import (
    NoiseSchedule,
    SeedPolicy,
    SyntheticSpec,
    partition_by_label,
    phase_spectrum,
    synth_gaussian_mixture,
    sweep,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tops", default="10,4,2",
                    help="comma list of per-class leading eigenvalues")
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--n-per-class", type=int, default=20000)
    ap.add_argument("--eps-min", type=float, default=1e-4)
    ap.add_argument("--eps-max", type=float, default=20.0)
    ap.add_argument("--grid-points", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tops = [float(v) for v in args.tops.split(",")]
    spec = SyntheticSpec(
        means=np.zeros((len(tops), args.dim)),
        spectra=np.vstack([np.r_[t, np.ones(args.dim - 1)] for t in tops]),
        samples_per_class=(args.n_per_class,) * len(tops),
    )
    ds = synth_gaussian_mixture(spec, seed=args.seed)
    sched = NoiseSchedule()
    sw = sweep(ds, sched, [0, sched.horizon_T], SeedPolicy(base_seed=args.seed))
    grid = np.geomspace(args.eps_min, args.eps_max, args.grid_points)
    counts = phase_spectrum(sw, partition_by_label(ds), epsilon_grid=grid)

    print(f"{'epsilon':>12} | positive-step mergers")
    print("-" * 36)
    for eps, cnt in zip(grid, counts):
        print(f"{eps:>12.5g} | {cnt}")


if __name__ == "__main__":
    main()
