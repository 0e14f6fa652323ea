"""Every checked-in perf record (BENCH_<pr>.json, written by
scripts/bench_record.py) covers the workloads and end-to-end metrics that
BENCHMARK.json declares, and every recorded run passed its output checks.

A workload holds its runs under "runs" and each metric's median, min and
max over them under "metrics"; BENCH_27.json and BENCH_28.json hold one
run each, as "result" beside the argv."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    assert path.name == f"BENCH_{record['pr']}.json"
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, workload in record["workloads"].items():
        assert workload["argv"][workload["argv"].index("--workload") + 1] == name
        runs = workload["runs"] if "runs" in workload else [workload]
        for run in runs:
            result = run["result"]
            assert {k: m["unit"] for k, m in result["metrics"].items()} == units, name
            assert result["correct"] is True and result["failed"] == 0, name
            assert result["attempted"] >= 1, name
        if "runs" in workload:
            assert len(runs) >= 3, name
            for metric, summary in workload["metrics"].items():
                values = [run["result"]["metrics"][metric]["value"] for run in runs]
                assert summary == {"median": statistics.median(values), "min": min(values),
                                   "max": max(values), "unit": units[metric]}, (name, metric)
            assert list(workload["metrics"]) == list(units), name


def test_the_one_run_records_stay():
    assert {"BENCH_27.json", "BENCH_28.json"} <= {p.name for p in RECORDS}
