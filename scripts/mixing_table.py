#!/usr/bin/env python3
"""Print the analytic mixing-step prediction across data dimensions.

Defaults reproduce the reference rows (d = 784, 3072, 4096) for the
standard DDPM schedule.
"""

import argparse

from vpmerge import NoiseSchedule, predict_mixing_step


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="784,3072,4096",
                    help="comma-separated data dimensions")
    ap.add_argument("--beta0", type=float, default=1e-4)
    ap.add_argument("--betaT", type=float, default=0.02)
    ap.add_argument("--T", type=int, default=1000)
    args = ap.parse_args()

    sched = NoiseSchedule(beta0=args.beta0, betaT=args.betaT, horizon_T=args.T)
    print(f"{'dim':>8} | {'t_mix (steps)':>14} | {'t_mix / T':>10}")
    print("-" * 40)
    for dim in (int(v) for v in args.dims.split(",")):
        pred = predict_mixing_step(sched, dim)
        print(f"{dim:>8} | {pred['t_mix_steps']:>14.1f} | {pred['t_mix_fraction']:>10.3f}")


if __name__ == "__main__":
    main()
