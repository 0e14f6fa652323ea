"""Command-line pipeline: datasets in, plot-ready JSON/CSV out.

Subcommands:
  mixing    analytic mixing-step prediction for a dimension
  analyze   pairwise merge times, cascade JSON, per-pair series CSV
  windows   analyze + convergence detection -> guidance windows + eta
  converge  normality report over a forward sweep
  simulate  synthetic Gaussian mixture to a dataset file
  probe     linear-probe accuracy through the forward chain (CSV)
  cf        empirical characteristic-function distance of two datasets
  tvcheck   moment-TV bound report for two grid densities

Every JSON payload embeds the config echo, tool version, and seed;
re-running a config reproduces outputs byte-identically (no timestamps).
Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .convergence import convergence_step, empirical_cf_distance, moment_tv_check
from .data import (
    SyntheticSpec,
    load_dataset,
    partition_by_label,
    read_csv,
    save_dataset,
    synth_gaussian_mixture,
)
from .errors import DataError, DomainError, VpmergeError
from .forward import SeedPolicy, sweep
from .merger import (
    build_cascade,
    detect_series,
    guidance_windows,
    interpolation_schedule,
    pairwise_merge_times,
)
from .probe import probe_through_time
from .reprtext import write_series_csv
from .schedule import NoiseSchedule, predict_mixing_step

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _UsageError(Exception):
    """An argv that the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """error() raises _UsageError instead of printing usage; subparsers inherit it."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _schedule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta0", type=float, default=NoiseSchedule.beta0)
    p.add_argument("--betaT", type=float, default=NoiseSchedule.betaT)
    p.add_argument("--T", type=int, default=NoiseSchedule.horizon_T, help="horizon step count")


def _steps_list(spec: str, horizon: int) -> list:
    """A step count means an even subsample of [0, T] including endpoints."""
    if "," in spec:
        return sorted({int(s) for s in spec.split(",")})
    count = min(int(spec), horizon + 1)  # T + 1 or more already gives every step
    if count < 1:
        raise DomainError("step count must be >= 1")
    if count == 1:
        return [0]
    return sorted({int(round(i * horizon / (count - 1))) for i in range(count)})


def _json_text(payload: dict, args) -> str:
    """The JSON document of a payload: the config echo, version and seed, then
    the payload, as json.dumps(sort_keys=True, indent=2) writes it; DataError
    for a cascade too deep to encode.

    json.dumps runs its pure-Python encoder when it indents, so a payload's
    merge_times (K x K ints, K >= 1) are joined row by row in that encoder's
    layout and spliced in where it wrote an empty list: the same string."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {"config": config, "version": __version__, "seed": args.seed}
    doc.update(payload)
    merge_times = doc.get("merge_times")
    if merge_times is not None:
        doc["merge_times"] = []
    try:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except RecursionError:  # only a cascade nests this deep: a chain of K - 1 merges
        raise DataError(f"the cascade of {payload['classes']} classes nests too deeply "
                        "to write as JSON") from None
    if merge_times is None:
        return text
    # a newline and two spaces before a quote open a top-level key, never a string
    head, _, tail = text.partition('\n  "merge_times": []')
    rows = "\n    ],\n    [\n      ".join(",\n      ".join(map(str, row)) for row in merge_times)
    return f'{head}\n  "merge_times": [\n    [\n      {rows}\n    ]\n  ]{tail}'


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mixing(args) -> dict:
    sched = NoiseSchedule(beta0=args.beta0, betaT=args.betaT, horizon_T=args.T)
    return {"schedule": sched.to_dict(), **predict_mixing_step(sched, args.dim)}


def _sweep(args):
    """The forward sweep of --input over --steps of the flags' schedule."""
    ds = load_dataset(args.input)
    sched = NoiseSchedule(beta0=args.beta0, betaT=args.betaT, horizon_T=args.T)
    steps = _steps_list(args.steps, sched.horizon_T)
    return sweep(ds, sched, steps, SeedPolicy(base_seed=args.seed))


def _analysis_inputs(args):
    sw = _sweep(args)
    part = partition_by_label(sw.dataset)
    # None: merge_times and the series CSV share the merger's all-class default
    eps = None if args.epsilon == "auto" else float(args.epsilon)
    metric = {"top-eigen": "top_eigen_abs", "trace": "trace_l1"}[args.metric]
    return sw, part, eps, metric


def _cmd_analyze(args) -> None:
    sw, part, eps, metric = _analysis_inputs(args)
    if args.series_out:
        mt, values = detect_series(sw, part, epsilon=eps, metric=metric, mode=args.mode)
    else:
        mt = pairwise_merge_times(sw, part, epsilon=eps, metric=metric, mode=args.mode)
    # encoded before either file is written, so a refused document leaves neither
    text = _json_text({
        "schedule": sw.schedule.to_dict(),
        "classes": len(part),
        "merge_times": mt.tolist(),
        "cascade": build_cascade(mt),
    }, args)
    if args.series_out:
        write_series_csv(args.series_out, sw.steps, mt, values)
    _emit(text, args)


def _cmd_windows(args) -> dict:
    sw, part, eps, metric = _analysis_inputs(args)
    mt = pairwise_merge_times(sw, part, epsilon=eps, metric=metric, mode=args.mode)
    # only detected_step is read
    istar = convergence_step(sw, args.alpha, args.projections, args.seed,
                             stop_at_detection=True).detected_step
    return {
        "schedule": sw.schedule.to_dict(),
        "istar": istar,
        "classes": guidance_windows(mt, istar, sw.horizon),
        "eta_schedule": interpolation_schedule(sw.schedule, args.eta_scale),
    }


def _cmd_converge(args) -> dict:
    return convergence_step(_sweep(args), args.alpha, args.projections, args.seed).to_dict()


def _cmd_simulate(args) -> None:
    chunks = args.spectra.split("/")
    if len(chunks) != args.classes:
        raise DomainError(f"--spectra gives {len(chunks)} classes, --classes {args.classes}")
    spectra = []
    for chunk in chunks:
        vals = [float(v) for v in chunk.split(",")]
        if len(vals) < args.dim:
            vals = vals + [vals[-1]] * (args.dim - len(vals))
        spectra.append(sorted(vals[: args.dim], reverse=True))
    k = args.classes
    if args.means:
        means = [[float(v) for v in chunk.split(",")] for chunk in args.means.split("/")]
        if len(means) != k or any(len(m) != args.dim for m in means):
            raise DomainError("--means must give one length-d vector per class")
    else:
        means = [[0.0] * args.dim for _ in range(k)]
    spec = SyntheticSpec(
        means=np.array(means), spectra=np.array(spectra),
        samples_per_class=(args.n_per_class,) * k,
    )
    save_dataset(synth_gaussian_mixture(spec, seed=args.seed), args.out)


def _cmd_probe(args) -> None:
    sw = _sweep(args)
    part = partition_by_label(sw.dataset)
    if not (0 <= args.class_a < len(part) and 0 <= args.class_b < len(part)):
        raise DomainError(f"classes must lie in [0, {len(part)})")
    a, b = part[args.class_a], part[args.class_b]
    if args.merge_step == "auto":
        # refused before the merger, which takes overlapping events and may fail on them
        if args.class_a == args.class_b:
            raise DomainError("events must be disjoint")
        merge_step = int(detect_series(sw, [a, b])[0][0, 1])
    else:
        merge_step = int(args.merge_step)
    accs = probe_through_time(sw, a, b, merge_step, split=args.split, seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("step,accuracy,defined\n")
        for t, acc in zip(sw.steps, accs):
            fh.write(f"{t},{acc!r},{int(t < merge_step)}\n")


def _cmd_cf(args) -> dict:
    a = load_dataset(args.input_a).features
    b = load_dataset(args.input_b).features
    return empirical_cf_distance(a, b, freq_count=args.freqs,
                                 freq_scale=args.scale, seed=args.seed)


def _cmd_tvcheck(args) -> dict:
    arr = read_csv(args.input, width=3)
    return moment_tv_check(arr[:, 1], arr[:, 2], arr[:, 0], n=args.order, c0=args.c0)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vpmerge",
        description="Merger analysis for VP diffusion forward processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mixing", help="analytic mixing-step prediction")
    p.add_argument("--dim", type=int, required=True)
    _schedule_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mixing, seed=0)

    for name, fn in (("analyze", _cmd_analyze), ("windows", _cmd_windows)):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        _schedule_args(p)
        p.add_argument("--steps", default="101",
                       help="step count (even subsample) or comma list")
        p.add_argument("--metric", default="top-eigen", choices=("top-eigen", "trace"))
        p.add_argument("--epsilon", default="auto")
        p.add_argument("--mode", default="analytic", choices=("analytic", "empirical"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if name == "analyze":
            p.add_argument("--series-out", default=None)
        else:
            p.add_argument("--alpha", type=float, default=0.05)
            p.add_argument("--projections", type=int, default=64)
            p.add_argument("--eta-scale", type=float, default=1e-3)
        p.set_defaults(func=fn)

    p = sub.add_parser("converge", help="normality report over a sweep")
    p.add_argument("--input", required=True)
    _schedule_args(p)
    p.add_argument("--steps", default="101")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--projections", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("simulate", help="synthetic Gaussian mixture to file")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--spectra", required=True,
                   help="per-class comma lists joined by '/'; short lists pad")
    p.add_argument("--means", default=None)
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("probe", help="linear-probe accuracy through time")
    p.add_argument("--input", required=True)
    _schedule_args(p)
    p.add_argument("--steps", default="21")
    p.add_argument("--class-a", type=int, default=0)
    p.add_argument("--class-b", type=int, default=1)
    p.add_argument("--merge-step", default="auto")
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("cf", help="empirical CF distance of two datasets")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--freqs", type=int, default=64)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("tvcheck", help="moment-TV bound for grid densities")
    p.add_argument("--input", required=True, help="CSV with x,p,q columns")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tvcheck, seed=0)
    return parser


def execute(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _error_record("usage", exc)
        return EXIT_USAGE
    except SystemExit:  # --help, printed to stdout
        return EXIT_OK
    try:  # an overflow, invalid operation or division by zero raises FloatingPointError
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            payload = args.func(args)  # None for the commands that write their own outputs
            if payload is not None:
                _emit(_json_text(payload, args), args)
        return EXIT_OK
    except (np.linalg.LinAlgError, FloatingPointError) as exc:  # a ValueError, so caught first
        _error_record("numeric", exc)
        return EXIT_NUMERIC
    except (DomainError, ValueError, IndexError, OverflowError) as exc:  # an int flag too big
        _error_record("domain", exc)
        return EXIT_USAGE
    except (DataError, OSError, MemoryError) as exc:  # an unmet size comes from the input
        _error_record("data", exc)
        return EXIT_DATA
    except VpmergeError as exc:
        _error_record("error", exc)
        return EXIT_DATA


def _error_record(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
