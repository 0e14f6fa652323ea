#!/usr/bin/env python3
"""Two-Gaussian merger experiment: detected step vs closed-form solve.

Builds a two-class zero-mean Gaussian fixture with chosen leading
eigenvalues, runs the merger detector over the forward process, and
compares the detected first-merge step with the analytic inversion of
the eigenvalue contraction law, J(t)^2 |lam_a - lam_b| = eps.
Optionally writes the thresholded similarity series as CSV.
"""

import argparse
import math

import numpy as np

from vpmerge import (
    NoiseSchedule,
    SeedPolicy,
    SyntheticSpec,
    detect_series,
    partition_by_label,
    synth_gaussian_mixture,
    sweep,
)


def closed_form(sched, delta, eps):
    target = math.log(delta / eps)
    a = 0.5 * (sched.betaT - sched.beta0) / sched.horizon_T
    b = sched.beta0
    return (-b + math.sqrt(b * b + 4 * a * target)) / (2 * a)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam-a", type=float, default=10.0)
    ap.add_argument("--lam-b", type=float, default=4.0)
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--n-per-class", type=int, default=20000)
    ap.add_argument("--epsilon", type=float, default=0.06)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--series-out", default=None,
                    help="write step,value rows for the first seed")
    args = ap.parse_args()

    sched = NoiseSchedule()
    oracle = closed_form(sched, abs(args.lam_a - args.lam_b), args.epsilon)
    print(f"closed-form merge step: {oracle:.2f}")

    for seed in range(args.seeds):
        spec = SyntheticSpec(
            means=np.zeros((2, args.dim)),
            spectra=np.vstack([
                np.r_[args.lam_a, np.ones(args.dim - 1)],
                np.r_[args.lam_b, np.ones(args.dim - 1)],
            ]),
            samples_per_class=(args.n_per_class,) * 2,
        )
        ds = synth_gaussian_mixture(spec, seed=seed)
        sw = sweep(ds, sched, range(0, sched.horizon_T + 1),
                   SeedPolicy(base_seed=seed))
        part = partition_by_label(ds)
        merge_times, values = detect_series(sw, part, epsilon=args.epsilon)
        step = int(merge_times[0, 1])
        print(f"seed {seed}: detected {step} (deviation {step - oracle:+.2f})")
        if seed == 0 and args.series_out:
            with open(args.series_out, "w") as fh:
                fh.write("step,value\n")
                for t, v in zip(sw.steps, values[0]):
                    fh.write(f"{t},{float(v)!r}\n")
            print(f"series written to {args.series_out}")


if __name__ == "__main__":
    main()
