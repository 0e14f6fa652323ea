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
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
