"""Job lists, output checks and reference values for each workload.

Jobs go through vpmerge's public entry points: ``vpmerge.cli.execute(argv)``
in-process, and ``vpmerge.phase_spectrum`` for the one job with no CLI.
Every vpmerge name is looked up on its module at call time, so the
tracer's wrappers (see ``spans.py``) see the calls.

Checks are independent of vpmerge where they can be: merge
steps are re-derived in closed form from ``numpy.linalg.eigvalsh`` of each
class's sample covariance, and the mixing step from its quadratic.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fixtures

BETA0, BETAT, HORIZON = 1e-4, 0.02, 1000
PHASE_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-3, 5.0, 4))
ANALYZE_STEPS = 101
CONVERGE_STEPS = 31
EMPIRICAL_STEPS = 11
PROBE_STEPS = 6
MIXING_TOLERANCE = 0.1 * HORIZON

KINDS = ("analyze", "phase", "windows", "converge", "probe")


@dataclass(frozen=True)
class Job:
    name: str      # unique within the workload; names the output files
    kind: str      # one of KINDS
    argv: tuple    # CLI argv, or () for the phase_spectrum job


@dataclass
class CheckLog:
    """Outcome of every check of one pass, attributed to jobs."""

    results: list = field(default_factory=list)  # (job, check, ok, detail)
    notes: dict = field(default_factory=dict)    # reported values that do not gate

    def expect(self, job: str, check: str, ok, detail="") -> bool:
        self.results.append((job, check, bool(ok), str(detail)))
        return bool(ok)

    def failed_jobs(self) -> set:
        return {job for job, _, ok, _ in self.results if not ok}

    def failures(self) -> list:
        return [r for r in self.results if not r[2]]


def grid(count: int) -> list:
    """The CLI's even subsample of [0, T] for a step count."""
    return sorted({int(round(i * HORIZON / (count - 1))) for i in range(count)})


def job_list(workload: str, fixture: Path, out: Path) -> list:
    f = str(fixture)
    if workload == "many-classes":
        return [
            Job("analyze-top", "analyze", (
                "analyze", "--input", f, "--steps", str(ANALYZE_STEPS),
                "--epsilon", "auto", "--out", str(out / "analyze-top.json"),
                "--series-out", str(out / "series.csv"))),
            Job("analyze-trace", "analyze", (
                "analyze", "--input", f, "--steps", str(ANALYZE_STEPS),
                "--metric", "trace", "--out", str(out / "analyze-trace.json"))),
            Job("phase", "phase", ()),
        ]
    if workload == "large-n":
        return [
            Job("windows", "windows", (
                "windows", "--input", f, "--projections", "64",
                "--steps", str(CONVERGE_STEPS), "--out", str(out / "windows.json"))),
            Job("converge", "converge", (
                "converge", "--input", f, "--projections", "64",
                "--steps", str(CONVERGE_STEPS), "--out", str(out / "converge.json"))),
        ]
    if workload == "empirical-csv":
        return [
            Job("analyze-empirical", "analyze", (
                "analyze", "--input", f, "--mode", "empirical",
                "--steps", str(EMPIRICAL_STEPS),
                "--out", str(out / "analyze-empirical.json"))),
            Job("probe", "probe", (
                "probe", "--input", f, "--steps", str(PROBE_STEPS),
                "--merge-step", "auto", "--out", str(out / "probe.csv"))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_job(vpmerge, job: Job, fixture: Path, out: Path) -> int:
    """Exit code of one job; an exception counts as a failure (code 1)."""
    try:
        if job.argv:
            return vpmerge.cli.execute(list(job.argv))
        ds = vpmerge.load_dataset(str(fixture))
        schedule = vpmerge.NoiseSchedule(beta0=BETA0, betaT=BETAT, horizon_T=HORIZON)
        sw = vpmerge.sweep(ds, schedule, grid(ANALYZE_STEPS),
                           vpmerge.SeedPolicy(base_seed=0))
        counts = vpmerge.phase_spectrum(sw, vpmerge.partition_by_label(ds),
                                        epsilon_grid=PHASE_EPS_GRID)
        (out / "phase.json").write_text(json.dumps([int(c) for c in counts]))
        return 0
    except Exception:  # a job boundary: record and go on with the pass
        traceback.print_exc()
        return 1


# ---------------------------------------------------------------- checks


def _merge_step_closed_form(gap: float, eps: float) -> float:
    """Real t solving J(t)^2 gap = eps, J^2 = exp(-int_0^t beta); 0 if gap <= eps."""
    if gap <= eps:
        return 0.0
    target = math.log(gap / eps)
    a = 0.5 * (BETAT - BETA0) / HORIZON
    b = BETA0
    t = 2.0 * target / (b + math.sqrt(b * b + 4.0 * a * target))
    return min(t, float(HORIZON))


def mixing_step(dim: int) -> float:
    """Positive root of (beta0/2) t + (betaT - beta0) t^2 / (4T) = log(d/2) / 4."""
    rhs = 0.25 * math.log(dim / 2.0)
    a = (BETAT - BETA0) / (4.0 * HORIZON)
    b = 0.5 * BETA0
    return 2.0 * rhs / (b + math.sqrt(b * b + 4.0 * a * rhs))


def class_top_eigenvalues(feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    tops = []
    for k in range(int(labels.max()) + 1):
        rows = feats[labels == k]
        dev = rows - rows.mean(axis=0)
        tops.append(np.linalg.eigvalsh(dev.T @ dev / rows.shape[0])[-1])
    return np.array(tops)


def _load_json(log: CheckLog, job: str, path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        log.expect(job, "output readable", False, exc)
        return None


def _check_matrix(log: CheckLog, job: str, mt, k: int) -> bool:
    mt = np.asarray(mt)
    return (log.expect(job, "merge_times shape", mt.shape == (k, k), mt.shape)
            and log.expect(job, "merge_times symmetric", np.array_equal(mt, mt.T))
            and log.expect(job, "merge_times zero diagonal", not np.any(np.diag(mt))))


def _check_cascade(log: CheckLog, job: str, node, k: int) -> None:
    leaves, ordered = [], True
    stack = [(node, math.inf)]
    while stack:
        cur, ceiling = stack.pop()
        if "class" in cur:
            leaves.append(cur["class"])
            continue
        ordered &= cur["step"] <= ceiling
        stack.extend((child, cur["step"]) for child in cur["children"])
    log.expect(job, "cascade leaves are the classes", sorted(leaves) == list(range(k)))
    log.expect(job, "cascade heights grow toward the root", ordered)


def _ceil_to_grid(t: int, steps: np.ndarray) -> int:
    return int(steps[np.searchsorted(steps, t)])


def check_many_classes(log, out, feats, labels) -> dict:
    k = int(labels.max()) + 1
    ints = {}
    top = _load_json(log, "analyze-top", out / "analyze-top.json")
    if top is not None and _check_matrix(log, "analyze-top", top["merge_times"], k):
        mt = np.asarray(top["merge_times"])
        lam = class_top_eigenvalues(feats, labels)
        eps = lam.max() / 400.0
        worst = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                t_ref = _merge_step_closed_form(abs(lam[i] - lam[j]), eps)
                worst = max(worst, abs(mt[i, j] - t_ref))
        log.expect("analyze-top", "merge_times within 1 step of closed form",
                   worst <= 1.0, f"worst gap {worst:.3f}")
        _check_cascade(log, "analyze-top", top["cascade"], k)
        ints["analyze-top:merge_times"] = top["merge_times"]
        ints["analyze-top:cascade"] = top["cascade"]
        log.notes["series_eps_mismatch"] = _series_mismatch(log, out / "series.csv", mt)
    trace = _load_json(log, "analyze-trace", out / "analyze-trace.json")
    if trace is not None and _check_matrix(log, "analyze-trace", trace["merge_times"], k):
        _check_cascade(log, "analyze-trace", trace["cascade"], k)
        ints["analyze-trace:merge_times"] = trace["merge_times"]
        ints["analyze-trace:cascade"] = trace["cascade"]
    counts = _load_json(log, "phase", out / "phase.json")
    if counts is not None:
        log.expect("phase", "one count per epsilon", len(counts) == len(PHASE_EPS_GRID))
        log.expect("phase", "counts do not increase with epsilon",
                   all(b <= a for a, b in zip(counts, counts[1:])), counts)
        ints["phase:counts"] = counts
    return ints


def _series_mismatch(log: CheckLog, path: Path, mt: np.ndarray) -> int:
    """Pairs whose first series value of 1.0 is not on merge_times' grid step.

    This is the known ``--epsilon auto`` defect (the series derives a
    pair-local epsilon); it is reported, never gated.
    """
    steps = np.asarray(grid(ANALYZE_STEPS))
    k = mt.shape[0]
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        log.expect("analyze-top", "series csv readable", False, exc)
        return -1
    rows = k * (k - 1) // 2 * len(steps)
    if not log.expect("analyze-top", "series csv has a row per pair and step",
                      table.shape == (rows, 4), table.shape):
        return -1
    values = table[:, 3].reshape(-1, len(steps))
    pairs = table[:: len(steps), :2].astype(int)
    first_one = steps[np.argmax(values == 1.0, axis=1)]
    expected = np.array([_ceil_to_grid(mt[i, j], steps) for i, j in pairs])
    return int(np.sum(first_one != expected))


def check_large_n(log, out, feats, labels) -> dict:
    ints = {}
    win = _load_json(log, "windows", out / "windows.json")
    conv = _load_json(log, "converge", out / "converge.json")
    predicted = mixing_step(feats.shape[1])
    if win is not None:
        log.expect("windows", "istar near the predicted mixing step",
                   abs(win["istar"] - predicted) <= MIXING_TOLERANCE,
                   f"istar {win['istar']} vs {predicted:.1f}")
        log.expect("windows", "one window per class",
                   len(win["classes"]) == int(labels.max()) + 1)
        log.expect("windows", "windows end before they start",
                   all(c["t_end"] <= c["t_start"] for c in win["classes"]))
        ints["windows:istar"] = win["istar"]
        ints["windows:windows"] = [[c["t_end"], c["t_start"]] for c in win["classes"]]
    if conv is not None:
        scanned = [s["t"] for s in conv["steps"]]
        log.expect("converge", "every grid step scanned", scanned == grid(CONVERGE_STEPS))
        log.expect("converge", "rejection fractions in [0, 1]",
                   all(0.0 <= s["reject_frac"] <= 1.0 for s in conv["steps"]))
        ints["converge:detected_step"] = conv["detected_step"]
    if win is not None and conv is not None:
        log.expect("converge", "windows istar equals converge detected_step",
                   win["istar"] == conv["detected_step"],
                   f"{win['istar']} vs {conv['detected_step']}")
    return ints


def check_empirical(log, out, feats, labels) -> dict:
    k = int(labels.max()) + 1
    ints = {}
    ana = _load_json(log, "analyze-empirical", out / "analyze-empirical.json")
    if ana is not None and _check_matrix(log, "analyze-empirical", ana["merge_times"], k):
        steps = set(grid(EMPIRICAL_STEPS))
        off = [t for i, row in enumerate(ana["merge_times"]) for j, t in enumerate(row) if i != j]
        log.expect("analyze-empirical", "every merge step is a grid step",
                   set(off) <= steps, sorted(set(off) - steps))
        _check_cascade(log, "analyze-empirical", ana["cascade"], k)
        ints["analyze-empirical:merge_times"] = ana["merge_times"]
        ints["analyze-empirical:cascade"] = ana["cascade"]
    try:
        table = np.genfromtxt(out / "probe.csv", delimiter=",", names=True, ndmin=1)
    except (OSError, ValueError) as exc:
        log.expect("probe", "output readable", False, exc)
        return ints
    steps, acc, defined = table["step"].astype(int), table["accuracy"], table["defined"] == 1
    log.expect("probe", "one row per grid step", list(steps) == grid(PROBE_STEPS))
    log.expect("probe", "accuracies in [0, 1] where defined",
               np.all((acc[defined] >= 0.0) & (acc[defined] <= 1.0)))
    log.expect("probe", "accuracy is NaN exactly where undefined",
               np.array_equal(np.isnan(acc), ~defined))
    # probe --merge-step auto uses the pair-local epsilon max(lam_a, lam_b) / 400
    lam = class_top_eigenvalues(feats, labels)[:2]
    t_ref = _merge_step_closed_form(abs(lam[0] - lam[1]), lam.max() / 400.0)
    ok = any(np.array_equal(defined, steps < m)
             for m in (math.floor(t_ref), math.ceil(t_ref), math.ceil(t_ref) + 1))
    log.expect("probe", "NaN exactly at steps >= the merge step", ok,
               f"closed-form merge step {t_ref:.2f}, defined {defined.astype(int).tolist()}")
    ints["probe:defined"] = defined.astype(int).tolist()
    return ints


CHECKS = {
    "many-classes": check_many_classes,
    "large-n": check_large_n,
    "empirical-csv": check_empirical,
}


def load_fixture_arrays(workload: str, seed: int, small: bool):
    """The fixture exactly as the program reads it (fvec1 stores float32)."""
    feats, labels = fixtures.synthesize(workload, seed, small)
    if fixtures.shape(workload, small)["format"] == "fvec1":
        feats = feats.astype(np.float32).astype(np.float64)
    return feats, labels


def check_pass(workload: str, out: Path, arrays, reference) -> tuple:
    """(CheckLog, integer outputs) for one pass's outputs.

    Integer outputs are named ``<job>:<output>``; one that differs from
    its recorded reference fails that job.
    """
    log = CheckLog()
    ints = CHECKS[workload](log, out, *arrays)
    if reference is not None:
        for name, value in sorted(ints.items()):
            want = reference.get(name)
            log.expect(name.split(":")[0], f"{name} matches the recorded reference",
                       want == reference_form(value), f"recorded {want!r}")
    return log, ints


def reference_form(value):
    """Short values are kept as they are, long ones as a sha256 prefix."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if len(text) <= 120:
        return value
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:24]
