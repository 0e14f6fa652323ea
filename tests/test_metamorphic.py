"""Metamorphic relations of `analyze`: pairs of runs whose merge times must
relate in a known way, so no reference values are needed.

* Relabelling the classes by a bijection, rows in place, permutes
  merge_times exactly: top-eigen, trace and --mode empirical.  For trace
  this checks that the closed form's sign flip is symmetric in the pair.
* Appending an exact copy of class c as a new last class (analytic mode)
  gives the copy step 0 against c and c's row against the other classes,
  and leaves every other entry unchanged.  (Empirical mode draws other
  noise for the copied rows, so it is not checked there.)

Datasets come from test_cli_contract's bounded strategy and run through its
in-process runner, run_case.  A dataset that does not load is skipped;
where one run fails, the other must exit with the same code.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from test_cli_contract import VALUES, datasets, run_case
from vpmerge.data import LabeledDataset, load_dataset, save_dataset
from vpmerge.errors import DataError

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def analyze(ds: LabeledDataset, root: Path, name: str, flags: list):
    """(exit code, merge_times or None) of `analyze` on ds saved as root/name."""
    save_dataset(ds, root / name)
    out = root / "out"
    out.mkdir(exist_ok=True)
    code, _, _, files = run_case(
        ["analyze", "--input", str(root / name), "--out", str(out / "a.json"), *flags], out)
    return code, (np.array(json.loads(files[str(out / "a.json")])["merge_times"])
                  if code == 0 else None)


def loaded(raw_case, root: Path) -> LabeledDataset:
    """The drawn dataset as the CLI reads it, or the example is skipped."""
    suffix, raw = raw_case
    (root / f"in{suffix}").write_bytes(raw)
    try:
        return load_dataset(root / f"in{suffix}")
    except DataError:
        assume(False)


def flags(data, metric: str, mode: str) -> list:
    """analyze's flags at the default T = 1000, over which most pairs of the
    drawn classes merge; eps 1e-300 is below every float distance."""
    return ["--metric", metric, "--mode", mode,
            "--epsilon", data.draw(st.sampled_from(VALUES["epsilon"][0] + ["1e-300"])),
            "--steps", data.draw(st.sampled_from(VALUES["steps"][0]))]


class TestAnalyzeRelations:
    @pytest.mark.parametrize("metric", ["top-eigen", "trace"])
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    @SETTINGS
    @given(data=st.data(), raw_case=datasets())
    def test_relabelling_permutes_merge_times(self, metric, mode, data, raw_case):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ds = loaded(raw_case, root)
            perm = np.array(data.draw(st.permutations(range(ds.n_classes))))
            argv = flags(data, metric, mode)
            code, mt = analyze(ds, root, "a" + raw_case[0], argv)
            relabelled = LabeledDataset(features=ds.features, labels=perm[ds.labels])
            code_p, mt_p = analyze(relabelled, root, "p" + raw_case[0], argv)
            assert code_p == code, argv
            if code == 0:
                assert np.array_equal(mt_p[np.ix_(perm, perm)], mt), (argv, perm)

    @pytest.mark.parametrize("metric", ["top-eigen", "trace"])
    @SETTINGS
    @given(data=st.data(), raw_case=datasets())
    def test_appended_copy_of_a_class_copies_its_row(self, metric, data, raw_case):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ds = loaded(raw_case, root)
            k = ds.n_classes
            assume(k >= 2)  # one class exits 3 (no pair), and its copy makes a pair
            c = data.draw(st.integers(0, k - 1))
            argv = flags(data, metric, "analytic")
            code, mt = analyze(ds, root, "a" + raw_case[0], argv)
            rows = ds.labels == c
            grown = LabeledDataset(features=np.vstack([ds.features, ds.features[rows]]),
                                   labels=np.concatenate([ds.labels, np.full(rows.sum(), k)]))
            code_g, mt_g = analyze(grown, root, "g" + raw_case[0], argv)
            assert code_g == code, argv
            if code == 0:
                assert np.array_equal(mt_g[:k, :k], mt), (argv, c)
                others = np.arange(k) != c
                assert mt_g[k, c] == 0 and mt_g[c, k] == 0, (argv, c)
                assert np.array_equal(mt_g[k, :k][others], mt[c][others]), (argv, c)
