"""Record the integer outputs of every workload as reference values.

    python3 perfbench/record_references.py --first-seed 0 --last-seed 63

For each seed and workload this runs one pass on the full-size fixture,
requires every output check to pass, and stores the integer outputs
(merge times, cascades, phase counts, istar, probe pattern) in
``references.json``.  Later runs with a recorded seed compare their
outputs with these values, so a change that moves any of them is
reported as a failed job.  Re-record only for a deliberate change of
results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _dump(refs: dict) -> str:
    """One line per workload and seed, so a diff shows which seeds moved."""
    blocks = []
    for workload in sorted(refs):
        seeds = sorted(refs[workload], key=int)
        rows = [f"  {json.dumps(seed)}: {json.dumps(refs[workload][seed], sort_keys=True)}"
                for seed in seeds]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--last-seed", type=int, required=True)
    args = parser.parse_args(argv)
    run.cap_blas_threads(len(os.sched_getaffinity(0)))
    vpmerge = run.import_vpmerge()
    import fixtures
    import jobs

    path = run.HERE / "references.json"
    refs = json.loads(path.read_text())
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=run.ROOT / ".bench_work"))
    try:
        for seed in range(args.first_seed, args.last_seed + 1):
            for workload in run.WORKLOADS:
                fixture = fixtures.write_fixture(workload, seed, work)
                res = run.run_pass(vpmerge, workload, fixture, work / "out")
                arrays = jobs.load_fixture_arrays(workload, seed, small=False)
                log, ints = jobs.check_pass(workload, work / "out", arrays, None)
                if log.failures() or any(res["codes"].values()):
                    print(f"seed {seed} {workload}: {log.failures()} {res['codes']}",
                          file=sys.stderr)
                    return 1
                refs.setdefault(workload, {})[str(seed)] = {
                    name: jobs.reference_form(value) for name, value in sorted(ints.items())}
            print(f"seed {seed} recorded", flush=True)
            path.write_text(_dump(refs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
