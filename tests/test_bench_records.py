"""Every checked-in perf record (BENCH_<pr>.json, written by
scripts/bench_record.py) covers the workloads and end-to-end metrics that
BENCHMARK.json declares, and every recorded run passed its output checks."""

import json
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
    for name, run in record["workloads"].items():
        result = run["result"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units, name
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        assert run["argv"][run["argv"].index("--workload") + 1] == name
