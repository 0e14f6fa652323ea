"""The scripts in scripts/ run against the current package API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["two_class_merger.py", "--n-per-class", "300", "--seeds", "1"],
    ["phase_spectrum_scan.py", "--n-per-class", "300"],
    ["mixing_table.py"],
    # eps above the pair's eigenvalue gap: the closed form is step 0
    pytest.param(["two_class_merger.py", "--n-per-class", "300", "--seeds", "1", "--epsilon", "10"],
                 id="two_class_merger.py-epsilon-10"),
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    assert run_script(argv).stdout


def run_script(argv) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_two_class_merger_writes_the_series(tmp_path):
    # the script's grid is every step 0..T of the default schedule, T = 1000
    out = tmp_path / "s.csv"
    run_script(["two_class_merger.py", "--n-per-class", "300", "--seeds", "1",
                "--series-out", str(out)])
    header, *rows = out.read_text().splitlines()
    assert header == "step,value"
    assert [int(r.split(",")[0]) for r in rows] == list(range(1001))
    assert all(0.0 <= float(r.split(",")[1]) <= 1.0 for r in rows)
