"""vpmerge benchmark: seeded fixtures, three CLI workloads, traced layers.

    python3 perfbench/run.py --workload many-classes --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One closed-loop client runs the workload's job list (a pass) again and
again, one job after the other, for about ``--seconds``; every pass's
outputs are checked (``jobs.py``).  Set-up (interpreter start, import,
fixture synthesis and write, and a warm-up pass on a shrunken fixture)
runs in a fresh child process ``SETUP_REPS`` times.  The warm-up fixture
has a fixed seed, so set-up does the same work for every seed.  BLAS
threads are capped at the number of usable cores.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_rel``: median over passes of the pass's wall time divided by the
  time of the workload's calibration loop run next to it
  (``calibrate.py``).  The machine's speed drifts by tens of percent
  from minute to minute; the ratio cancels that drift.  Raw wall times
  of passes and of each job kind are in the report.
* ``peak_rss_mb``: peak resident memory of this process.
* ``setup_s``: median set-up time, each rescaled to a machine on which
  the calibration loop takes ``calibrate.NOMINAL_S``, by the loop timed
  in the same child right after its set-up; raw set-up times are in the
  report.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are per-layer self times and counts from the traced passes
(``spans.py``), plus the tracing overhead.  A traced ``large-n`` run also
times one pass in a child process with BLAS limited to one thread, for
reference.

A human-readable report goes to standard output; its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--small`` runs the shrunken fixtures (the quick test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
WARM_UP_SEED = 0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("many-classes", "large-n", "empirical-csv")
POWER_METHOD_DIM = 256  # vpmerge's DENSE_EIG_LIMIT at the time the benchmark was written
LAYERS = ("data", "forward", "fluctuation", "merger", "convergence", "probe", "cli")


def cap_blas_threads(threads: int) -> None:
    # must run before numpy is first imported in this process
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def import_vpmerge():
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import vpmerge
    import vpmerge.cli  # noqa: F401
    return vpmerge


# ------------------------------------------------------------- passes


def run_pass(vpmerge, workload, fixture, out, tracer=None, tag="") -> dict:
    """Run the job list once; per-job exit codes and wall times."""
    import jobs

    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    codes, kind_times = {}, dict.fromkeys(jobs.KINDS, 0.0)
    start = time.perf_counter()
    for job in jobs.job_list(workload, fixture, out):
        if tracer is not None:
            tracer.job = f"{tag}{job.name}"
        t0 = time.perf_counter()
        codes[job.name] = jobs.run_job(vpmerge, job, fixture, out)
        kind_times[job.kind] += time.perf_counter() - t0
    wall = time.perf_counter() - start
    return {"codes": codes, "kind_times": kind_times, "wall": wall}


def _warm_up(vpmerge, workload, work: Path) -> None:
    """One pass on the shrunken fixture: lazy imports and first-call costs."""
    import fixtures

    fixture = fixtures.write_fixture(workload, WARM_UP_SEED, work / "warm", small=True)
    run_pass(vpmerge, workload, fixture, work / "warm" / "out")


def _child(args) -> int:
    """Entry point of the set-up and single-thread child processes."""
    vpmerge = import_vpmerge()
    import fixtures

    work = Path(args.work)
    if args.child == "setup":
        import calibrate

        fixtures.write_fixture(args.workload, args.seed, work, args.small)
        _warm_up(vpmerge, args.workload, work)
        # timed in the set-up's own process, so under the conditions it ran in
        print(json.dumps({"cal_s": calibrate.timed(args.workload)}))
        return 0
    # single-thread: one warm-up and one timed pass over the parent's fixture
    _warm_up(vpmerge, args.workload, work)
    fixture = fixtures.fixture_path(Path(args.fixture_dir), args.workload, args.small)
    res = run_pass(vpmerge, args.workload, fixture, work / "out")
    print(json.dumps({"wall_s": res["wall"]}))
    return 0 if not any(res["codes"].values()) else 1


def _child_cmd(args, mode: str, work: Path) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work", str(work)]
    return cmd + (["--small"] if args.small else [])


def _setup(args, work: Path) -> tuple:
    """Raw and rescaled set-up times of SETUP_REPS set-up children, and
    their fixtures."""
    import calibrate
    import fixtures

    raw, scaled, digests = [], [], []
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        t0 = time.perf_counter()
        proc = subprocess.run(_child_cmd(args, "setup", rep_dir), check=True, timeout=50,
                              stdout=subprocess.PIPE, text=True)
        cal = json.loads(proc.stdout.strip().splitlines()[-1])["cal_s"]
        raw.append(time.perf_counter() - t0 - cal)
        scaled.append(raw[-1] * calibrate.NOMINAL_S[args.workload] / cal)
        path = fixtures.fixture_path(rep_dir, args.workload, args.small)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return raw, scaled, digests, fixtures.fixture_path(work / "setup0", args.workload, args.small)


def _single_thread_pass(args, work: Path, fixture_dir: Path):
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    cmd = _child_cmd(args, "single-thread", work / "single") + ["--fixture-dir", str(fixture_dir)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


# ------------------------------------------------------------- tracing


def make_tracer(vpmerge):
    import numpy as np

    from spans import Tracer

    cli, merger = vpmerge.cli, vpmerge.merger

    def file_size(args, kwargs, out):
        return os.path.getsize(args[0])

    def snapshot(args, kwargs, out):
        t = int(args[1])
        return t, (out.size * 8 if t > 0 else 0)

    def moments(args, kwargs, out):
        event = args[1]
        propagate = kwargs.get("propagate", args[5] if len(args) > 5 else True)
        return int(event[0]), len(event), int(args[2]), bool(propagate)

    def eig_dim(args, kwargs, out):
        return int(np.shape(args[0])[0])

    def view_values(args, kwargs, out):
        return int(np.prod(np.shape(args[0])))

    def scan(args, kwargs, out):
        return len(out.steps), sum(1 for t, _ in out.steps if t <= out.detected_step)

    targets = [
        (cli, "execute", "cli.execute", None),
        (cli, "load_dataset", "data.load", file_size),
        (vpmerge, "load_dataset", "data.load", file_size),
        (cli, "partition_by_label", "data.partition", None),
        (vpmerge, "partition_by_label", "data.partition", None),
        (cli, "sweep", "forward.sweep", None),
        (vpmerge, "sweep", "forward.sweep", None),
        (vpmerge.forward.TrajectorySweep, "snapshot", "forward.snapshot", snapshot),
        (merger, "conditional_fluctuation", "fluctuation.moments", moments),
        (vpmerge.fluctuation, "top_eigenvalue", "fluctuation.eig", eig_dim),
        (cli, "pairwise_merge_times", "merger.merge_times", None),
        (merger, "pairwise_merge_times", "merger.merge_times", None),
        (cli, "detect_series", "merger.series", None),
        (merger, "detect_series", "merger.series", None),
        (cli, "build_cascade", "merger.cascade", None),
        (merger, "build_cascade", "merger.cascade", None),
        (vpmerge, "phase_spectrum", "merger.phase", None),
        (cli, "convergence_step", "convergence.step", scan),
        (vpmerge.convergence, "dagostino_pearson", "convergence.dp", view_values),
        (cli, "probe_through_time", "probe.through_time", None),
        (vpmerge.probe, "train_linear_probe", "probe.fit", None),
    ]
    counters = [(mod, "j_values", "schedule.j_calls")
                for mod in (vpmerge.schedule, merger, vpmerge.fluctuation, vpmerge.forward)]
    return Tracer(targets, counters)


def layer_metrics(spans, base, counts, wall, notes, out_bytes) -> tuple:
    """Per-layer metrics of one traced pass (all times are self times),
    and the self time of each layer."""
    from spans import END, PARENT, START, summarize

    summary = summarize(spans, base)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def infos(name):
        return summary.get(name, {}).get("infos", [])

    def frac(num, den):
        return num / den if den else 0.0

    snaps = infos("forward.snapshot")
    moments = infos("fluctuation.moments")
    eig_dims = [d for _, d in infos("fluctuation.eig")]
    scans = [s for _, s in infos("convergence.step")]
    scanned = sum(s[0] for s in scans)
    top_level = sum((s[END] - s[START]) / 1e9 for s in spans if s[PARENT] < 0)
    m = {
        "data.load_s": self_s("data.load"),
        "data.load_calls": calls("data.load"),
        "data.bytes_read": sum(b for _, b in infos("data.load")),
        "forward.snapshot_s": self_s("forward.snapshot"),
        "forward.snapshots": len(snaps),
        "forward.snapshot_unique_frac": frac(len({(job, t) for job, (t, _) in snaps}), len(snaps)),
        "forward.noise_bytes": sum(b for _, (_, b) in snaps),
        "fluctuation.moments_s": self_s("fluctuation.moments"),
        "fluctuation.moment_calls": len(moments),
        "fluctuation.moment_unique_frac": frac(len(set(moments)), len(moments)),
        "fluctuation.eig_s": self_s("fluctuation.eig"),
        "fluctuation.eig_calls": len(eig_dims),
        "fluctuation.eig_power_frac": frac(sum(d > POWER_METHOD_DIM for d in eig_dims),
                                           len(eig_dims)),
        "merger.merge_times_s": self_s("merger.merge_times"),
        "merger.series_s": self_s("merger.series"),
        "merger.series_calls": calls("merger.series"),
        "merger.cascade_s": self_s("merger.cascade"),
        "merger.cascade_calls": calls("merger.cascade"),
        "merger.phase_s": self_s("merger.phase"),
        "merger.series_eps_mismatch": notes.get("series_eps_mismatch", 0),
        "schedule.j_calls": counts.get("schedule.j_calls", 0),
        "convergence.step_s": self_s("convergence.step"),
        "convergence.dp_s": self_s("convergence.dp"),
        "convergence.dp_calls": calls("convergence.dp"),
        "convergence.view_values": sum(v for _, v in infos("convergence.dp")),
        "convergence.steps_scanned": scanned,
        "convergence.scan_useful_frac": frac(sum(s[1] for s in scans), scanned),
        "probe.fit_s": self_s("probe.fit"),
        "probe.fits": calls("probe.fit"),
        "cli.self_s": self_s("cli.execute"),
        "cli.out_bytes": out_bytes,
        "trace.unattributed_s": wall - top_level,
        "trace.spans": len(spans),
    }
    layer_self = {layer: sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    return m, layer_self


def _cli_out_bytes(out: Path) -> int:
    # phase.json is written by the benchmark, everything else by the CLI
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "phase.json")


# ------------------------------------------------------------- main


def _environment(blas_threads: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return (f"env: nproc {os.cpu_count()}, usable cores {len(os.sched_getaffinity(0))}, "
            f"BLAS thread cap {blas_threads} ({', '.join(BLAS_ENV)}), "
            f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas_text}")


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args, work: Path, reference) -> tuple:
    """Set up, warm up, run passes for args.seconds and check every pass.

    ``reference`` maps integer-output names to recorded values, or is None.
    Returns the result object and the report lines.
    """
    import calibrate
    import fixtures
    import jobs

    vpmerge = import_vpmerge()
    setup_raw, setup_times, digests, fixture = _setup(args, work)
    report = [f"vpmerge benchmark: workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}, run {args.seconds} s{' (small)' if args.small else ''}",
              _environment(args.blas_threads),
              f"fixture: {fixture.name}, {fixture.stat().st_size} bytes, "
              f"shape {fixtures.shape(args.workload, args.small)}"]
    setup_ok = len(set(digests)) == 1
    report.append(f"setup_s: median {_median(setup_times):.4f} s at nominal speed of "
                  f"{len(setup_times)} fresh processes {[round(t, 4) for t in setup_times]}; "
                  f"raw median {_median(setup_raw):.4f} s; fixture identical across "
                  f"set-ups: {setup_ok}")
    arrays = jobs.load_fixture_arrays(args.workload, args.seed, args.small)
    _warm_up(vpmerge, args.workload, work)

    tracer = make_tracer(vpmerge) if args.trace else None
    plain, traced = [], []  # per pass: (result, failed jobs, CheckLog, layer metrics or None)
    checks = {"run": 0, "failed": []}
    ints_seen = []
    cal_before = calibrate.timed(args.workload)
    start = time.perf_counter()
    i = 0
    round_times = []
    # stop before a round that would end after args.seconds, so a run lasts
    # about args.seconds whatever the pass length; at least one round
    while not round_times or (time.perf_counter() - start
                              + statistics.median(round_times) <= args.seconds):
        t_round = time.perf_counter()
        order = [False] if not args.trace else ([False, True] if i % 2 == 0 else [True, False])
        for use_trace in order:
            out = work / "out"
            if use_trace:
                lo = len(tracer.spans)
                before = dict(tracer.counts)
                tracer.install()
                try:
                    res = run_pass(vpmerge, args.workload, fixture, out, tracer, f"{i}:")
                finally:
                    tracer.uninstall()
            else:
                res = run_pass(vpmerge, args.workload, fixture, out)
            cal_after = calibrate.timed(args.workload)
            res["cal"] = 0.5 * (cal_before + cal_after)
            res["rel"] = res["wall"] / res["cal"]
            cal_before = cal_after
            log, ints = jobs.check_pass(args.workload, out, arrays, reference)
            ints_seen.append(json.dumps(ints, sort_keys=True))
            checks["run"] += len(log.results)
            checks["failed"] += log.failures()
            failed = log.failed_jobs() | {n for n, c in res["codes"].items() if c != 0}
            layers = None
            if use_trace:
                counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                layers = layer_metrics(tracer.spans[lo:], lo, counts, res["wall"], log.notes,
                                       _cli_out_bytes(out))
            (traced if use_trace else plain).append((res, failed, log, layers))
        round_times.append(time.perf_counter() - t_round)
        i += 1

    passes = plain + traced
    attempted = sum(len(p[0]["codes"]) for p in passes)
    failed = sum(len(p[1]) for p in passes)
    stable = len(set(ints_seen)) == 1
    # a trace target that is gone would read as a layer taking no time
    traced_all = tracer is None or not tracer.missing
    correct = failed == 0 and setup_ok and stable and traced_all
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [p[0]["wall"] for p in plain]
    report.append(f"passes: {len(plain)} untraced, {len(traced)} traced; "
                  f"wall_s median {_median(walls):.4f} s (n={len(walls)}, "
                  f"min {min(walls):.4f}, max {max(walls):.4f})")
    rels = [p[0]["rel"] for p in plain]
    report.append(f"wall_rel: median {_median(rels):.4f} (n={len(rels)}); calibration loop "
                  f"median {_median([p[0]['cal'] for p in plain]):.4f} s")
    for kind in jobs.KINDS:
        per_pass = [p[0]["kind_times"][kind] for p in plain]
        if any(per_pass):
            report.append(f"  {kind}_s: median {_median(per_pass):.4f} s (n={len(per_pass)})")
    report.append(f"checks: {checks['run']} run, {len(checks['failed'])} failed; "
                  f"integer outputs identical across passes: {stable}; reference "
                  f"{'checked' if reference else 'not recorded for this seed'}")
    for job, name, _, detail in checks["failed"][:10]:
        report.append(f"  FAILED {job}: {name} ({detail})")
    report.append(f"error_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    if plain[0][2].notes:
        report.append(f"notes (not gated): {plain[0][2].notes}")

    if not args.trace:
        report.append(f"peak_rss_mb: {rss_mb:.1f}")
        metrics = {
            "wall_rel": {"value": _median(rels), "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": _median(setup_times), "unit": "s"},
        }
    else:
        metrics = _trace_metrics(args, work, fixture, traced, plain, report, tracer)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def _trace_metrics(args, work, fixture, traced, plain, report, tracer) -> dict:
    units = _per_layer_units()
    per_pass = [p[3][0] for p in traced]
    metrics = {name: {"value": _median([m[name] for m in per_pass]), "unit": units[name]}
               for name in per_pass[0]}
    # compare calibrated pass times, so that machine drift between the
    # traced and untraced passes does not read as tracing cost
    wall = _median([p[0]["wall"] for p in traced])
    ratio = _median([p[0]["rel"] for p in traced]) / _median([p[0]["rel"] for p in plain])
    overhead = (ratio - 1.0) * _median([p[0]["wall"] for p in plain])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    report.append(f"traced wall_s median {wall:.4f} s (n={len(traced)}); "
                  f"trace.overhead_s {overhead:+.4f} s; "
                  f"spans per pass {metrics['trace.spans']['value']:.0f}")
    if tracer.missing:
        report.append(f"  FAILED: trace targets not found: {tracer.missing}")
    report.append("layer self time (median over traced passes) and share of traced wall_s:")
    layer_self = {layer: _median([p[3][1][layer] for p in traced]) for layer in LAYERS}
    layer_self["unattributed"] = metrics["trace.unattributed_s"]["value"]
    for layer, own in layer_self.items():
        report.append(f"  {layer:12s} {own:9.4f} s  {100 * own / wall:5.1f} %")
    report.append(_expected_split(args.workload, layer_self, wall))
    for name, m in sorted(metrics.items()):
        report.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.workload == "large-n":
        single = _single_thread_pass(args, work, fixture.parent)
        report.append("single-thread baseline (BLAS threads 1, one pass, not gated): "
                      + (f"{single:.4f} s" if single is not None else "failed"))
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics


# Where the baseline measurements put the time on each workload.  The
# report states whether the traced split agrees; it does not gate.
EXPECTED_LEADERS = {
    "many-classes": ("fluctuation", "merger"),
    "large-n": ("forward", "convergence"),
    "empirical-csv": ("probe", "data", "forward"),
}


def _expected_split(workload, layer_self, wall) -> str:
    leaders = EXPECTED_LEADERS[workload]
    share = sum(layer_self[layer] for layer in leaders) / wall
    top = sorted(layer_self, key=layer_self.get, reverse=True)[: len(leaders)]
    holds = share > 0.5 and set(top) == set(leaders)
    return (f"expected split: {' + '.join(leaders)} lead with most of wall_s; "
            f"measured {100 * share:.1f} %, largest layers {top}: "
            f"{'holds' if holds else 'CONTRADICTED'}")


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrunken fixtures (quick test)")
    parser.add_argument("--child", choices=("setup", "single-thread"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--fixture-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.blas_threads = len(os.sched_getaffinity(0))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return _child(args)
    if not (SRC / "vpmerge" / "cli.py").is_file():
        print(f"error: vpmerge sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads(args.blas_threads)
    # references are recorded for the full-size fixtures only
    references = json.loads((HERE / "references.json").read_text())
    reference = None if args.small else references.get(args.workload, {}).get(str(args.seed))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result, report = measure(args, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
