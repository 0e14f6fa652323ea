"""Quick test of the benchmark itself, on shrunken fixtures.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload traced and untraced, and checks that the printed
metrics are exactly the ones BENCHMARK.json declares (with units), that
every layer that runs on a workload reports non-zero values, that the
output checks run and pass, that a corrupted reference value is reported
as a failed job, and that a trace target that is gone fails the run.
"""

import json
import subprocess
import sys

import pytest

import jobs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that read 0 on a workload's shrunken fixture because
# that layer (or that part of it) does not run there.
NOT_RUN = {
    "many-classes": ("forward.", "convergence.", "probe."),
    "large-n": ("probe.", "merger.cascade_", "merger.phase_s"),
    "empirical-csv": ("convergence.", "merger.phase_s"),
}
# 0 wherever they run: the known --epsilon auto defect once fixed, and the
# power-method share below its dimension (only the full empirical-csv
# fixture is above it).
MAY_BE_ZERO = ("merger.series_eps_mismatch", "fluctuation.eig_power_frac")


def _run_cli(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_match_benchmark_json(workload, trace):
    report, result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    checks = next(line for line in report if line.startswith("checks:"))
    assert int(checks.split()[1]) > 0, checks
    if trace:
        zero = {name for name, m in result["metrics"].items() if m["value"] == 0}
        expected = {name for name in result["metrics"]
                    if name.startswith(NOT_RUN[workload] + MAY_BE_ZERO)}
        assert zero - expected == set(), "layers that run report 0"
        assert expected - set(MAY_BE_ZERO) - zero == set(), "layers that should not run report time"


def test_workloads_named_in_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_fails_a_job(workload, tmp_path):
    vpmerge = run.import_vpmerge()
    import fixtures

    fixture = fixtures.write_fixture(workload, 5, tmp_path, small=True)
    run.run_pass(vpmerge, workload, fixture, tmp_path / "out")
    arrays = jobs.load_fixture_arrays(workload, 5, small=True)
    log, ints = jobs.check_pass(workload, tmp_path / "out", arrays, None)
    assert ints and not log.failures()

    reference = {name: jobs.reference_form(v) for name, v in ints.items()}
    log, _ = jobs.check_pass(workload, tmp_path / "out", arrays, reference)
    assert not log.failures()

    name = sorted(reference)[0]
    reference[name] = "corrupted"
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                           "--trace", "0", "--small"])
    result, report = run.measure(args, tmp_path / "measure", reference)
    assert result["failed"] > 0 and result["correct"] is False
    error_frac = next(line for line in report if line.startswith("error_frac"))
    assert float(error_frac.split()[1]) > 0.0, error_frac


def test_missing_trace_target_fails_the_run(tmp_path, monkeypatch):
    make_tracer = run.make_tracer

    def with_gone_target(vpmerge):
        tracer = make_tracer(vpmerge)
        tracer.targets.append((vpmerge.cli, "no_such_function", "cli.gone", None))
        return tracer

    monkeypatch.setattr(run, "make_tracer", with_gone_target)
    args = run.parse_args(["--workload", "many-classes", "--seed", "5", "--seconds", "0.2",
                           "--trace", "1", "--small"])
    result, report = run.measure(args, tmp_path, None)
    assert result["failed"] == 0 and result["correct"] is False
    assert any("trace targets not found" in line for line in report)
