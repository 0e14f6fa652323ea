"""The benchmark's tracer (perfbench/run.py) finds every function it wraps.

The tracer patches functions by name on vpmerge's modules; a target that
is gone makes every traced benchmark run report ``correct: false``.  This
reads perfbench and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import vpmerge
import vpmerge.cli  # noqa: F401  (make_tracer wraps functions on vpmerge.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans from beside it
    spec = importlib.util.spec_from_file_location("vpmerge_tests_perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = run.make_tracer(vpmerge)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
