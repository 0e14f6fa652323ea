"""The analytic merge steps still give the benchmark's recorded references.

perfbench/references.json holds, per many-classes seed, digests of the
merge-time matrices and cascades that `analyze --epsilon auto` wrote when
they were recorded; a benchmark run whose outputs differ reports
``correct: false``.  This recomputes them through the library for all 64
seeds (both metrics), reading perfbench and changing nothing in it.
"""

import importlib.util
import json
import sys
from pathlib import Path

from vpmerge import (LabeledDataset, NoiseSchedule, SeedPolicy, pairwise_merge_times,
                     partition_by_label, sweep)
from vpmerge.merger import build_cascade

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
METRICS = {"analyze-top": "top_eigen_abs", "analyze-trace": "trace_l1"}


def test_many_classes_merge_times_and_cascades_match_the_references(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # jobs imports fixtures from beside it
    spec = importlib.util.spec_from_file_location("vpmerge_tests_perfbench_jobs",
                                                  PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its dataclasses look it up there
    spec.loader.exec_module(jobs)
    refs = json.loads((PERFBENCH / "references.json").read_text())["many-classes"]
    assert sorted(refs, key=int) == [str(seed) for seed in range(64)]
    schedule = NoiseSchedule(jobs.BETA0, jobs.BETAT, jobs.HORIZON)
    for seed, recorded in refs.items():
        feats, labels = jobs.load_fixture_arrays("many-classes", int(seed), small=False)
        sw = sweep(LabeledDataset(features=feats, labels=labels), schedule,
                   jobs.grid(jobs.ANALYZE_STEPS), SeedPolicy(base_seed=0))
        part = partition_by_label(sw.dataset)
        for job, metric in METRICS.items():
            mt = pairwise_merge_times(sw, part, epsilon=None, metric=metric)
            assert jobs.reference_form(mt.tolist()) == recorded[f"{job}:merge_times"], (seed, job)
            assert jobs.reference_form(build_cascade(mt)) == recorded[f"{job}:cascade"], (seed, job)
