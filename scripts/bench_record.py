#!/usr/bin/env python3
"""Record three untraced benchmark runs of every workload as BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N

Runs the command that BENCHMARK.json declares (perfbench/run.py) three times
per workload, in a subprocess from the root of the checkout, with seed 1, the
declared run length and tracing off.  The record holds, per workload, the argv,
every run (its final JSON line with correct, attempted, failed and the
end-to-end metrics, and the report's environment, wall_rel and per-kind lines)
and each end-to-end metric's median, min and max over the runs; and the commit
(git rev-parse HEAD) with a flag for uncommitted changes to tracked files.  One
run is too few to compare two records: the host's load moves a single run by
more than most changes do.  It changes nothing under perfbench/.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 3


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(argv: list, name: str) -> dict:
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    run = {"result": json.loads(last), "kinds": {}}
    for line in report:
        label, _, value = line.strip().partition(": ")
        if line.startswith("  "):  # the median time of one job kind
            run["kinds"][label] = value
        elif label in ("env", "wall_rel"):
            run[label] = value
    return run


def summary(runs: list) -> dict:
    """{metric: {median, min, max, unit}} of the runs' end-to-end metrics."""
    out = {}
    for metric, first in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][metric]["value"] for run in runs]
        out[metric] = {"median": statistics.median(values), "min": min(values),
                       "max": max(values), "unit": first["unit"]}
    return out


def run_workload(spec: dict, name: str) -> dict:
    argv = [*spec["command"], "--workload", name, "--seed", str(SEED),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    runs = [run_once(argv, name) for _ in range(RUNS)]
    return {"argv": argv, "runs": runs, "metrics": summary(runs)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "pr": args.pr,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "workloads": {w["name"]: run_workload(spec, w["name"]) for w in spec["workloads"]},
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
