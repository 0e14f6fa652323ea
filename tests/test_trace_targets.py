"""The benchmark's tracer (perfbench/run.py) finds every function it wraps,
and its info hooks read vpmerge's real calls.

The tracer patches functions by name on vpmerge's modules; a target that
is gone makes every traced benchmark run report ``correct: false``, and so
does a hook that no longer fits its target's signature.  This reads
perfbench and changes nothing in it.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import vpmerge
import vpmerge.cli  # noqa: F401  (make_tracer wraps functions on vpmerge.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAME, INFO = 0, 5  # fields of a span (perfbench/spans.py)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans from beside it
    spec = importlib.util.spec_from_file_location("vpmerge_tests_perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = run.make_tracer(vpmerge)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_trace_target_is_found(tracer):
    assert tracer.missing == []


def test_every_hook_reads_its_targets_calls(tracer, tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "two.csv"
    data.write_text("".join(f"{k}," + ",".join(map(repr, row)) + "\n" for k in (0, 1)
                            for row in (rng.standard_normal((40, 2)) * (k + 1)).tolist()))
    common = ["--input", str(data), "--steps", "6"]
    for argv in (["analyze", *common, "--series-out", str(tmp_path / "s.csv")],
                 ["analyze", *common, "--mode", "empirical"],
                 ["windows", *common, "--projections", "4"],
                 ["probe", *common, "--out", str(tmp_path / "p.csv")]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = vpmerge.cli.execute(argv)
        assert (code, err.getvalue()) == (0, ""), argv
    hooked = {name for _, _, name, hook in tracer.targets if hook is not None}
    assert all(s[INFO] is not None for s in tracer.spans if s[NAME] in hooked)
    moments = [s[INFO] for s in tracer.spans if s[NAME] == "fluctuation.moments"]
    assert moments and all(info[2] == 0 for info in moments)  # step-0 moments only
