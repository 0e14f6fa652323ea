#!/usr/bin/env python3
"""Record one untraced benchmark run of every workload as BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 27

Runs the command that BENCHMARK.json declares (perfbench/run.py) once per
workload, in a subprocess from the root of the checkout, with seed 1, the
declared run length and tracing off.  The record holds, per workload, the
argv, the final JSON line (correct, attempted, failed and the end-to-end
metrics) and the report's environment, wall_rel and per-kind lines; and the
commit (git rev-parse HEAD) with a flag for uncommitted changes to tracked
files.  It changes nothing under perfbench/.
"""

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_workload(spec: dict, name: str) -> dict:
    argv = [*spec["command"], "--workload", name, "--seed", str(SEED),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    record = {"argv": argv, "result": json.loads(last), "kinds": {}}
    for line in report:
        label, _, value = line.strip().partition(": ")
        if line.startswith("  "):  # the median time of one job kind
            record["kinds"][label] = value
        elif label in ("env", "wall_rel"):
            record[label] = value
    return record


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
