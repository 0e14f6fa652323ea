"""Metamorphic relations: pairs of runs whose outputs must relate in a known
way, so no reference values are needed.

* Relabelling the classes by a bijection, rows in place, permutes
  analyze's merge_times exactly: top-eigen, trace and --mode empirical.  For
  trace this checks that the closed form's sign flip is symmetric in the pair.
* Appending an exact copy of class c as a new last class (analytic mode)
  gives the copy step 0 against c and c's row against the other classes,
  and leaves every other entry unchanged.  (Empirical mode draws other
  noise for the copied rows, so it is not checked there.)
* windows' per-class t_merge is the least entry of that class's row of
  analyze's merge_times, capped at istar, for the same flags.
* probe --merge-step auto writes the same bytes, with the same exit code, as
  --merge-step m, m being analyze's merge step on the CSV of the pair's rows.
  This fails by design where auto's own reading does: it takes m from the
  pair's similarity series, which is undefined when a class's covariance is
  exactly zero before the merge (exit 3) and overflows from features near
  1e77 (exit 4).  Only these two errors of auto may break the relation.
* phase_spectrum's counts never increase with eps and are at most K - 1.

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
from vpmerge import NoiseSchedule, SeedPolicy, partition_by_label, phase_spectrum, sweep
from vpmerge.data import LabeledDataset, load_dataset, save_dataset
from vpmerge.errors import DataError, VpmergeError

# the failures of the similarity series that probe --merge-step auto reads
SERIES_ERRORS = ("zero-norm tensor", '"error": "numeric"')
SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def run_json(command: str, path: Path, root: Path, flags: list):
    """(exit code, JSON document or None) of a command on the dataset file path."""
    out = root / "out"
    out.mkdir(exist_ok=True)
    code, _, _, files = run_case(
        [command, "--input", str(path), "--out", str(out / "o.json"), *flags], out)
    return code, json.loads(files[str(out / "o.json")]) if code == 0 else None


def analyze(ds: LabeledDataset, root: Path, name: str, flags: list):
    """(exit code, merge_times or None) of `analyze` on ds saved as root/name."""
    save_dataset(ds, root / name)
    code, doc = run_json("analyze", root / name, root, flags)
    return code, np.array(doc["merge_times"]) if code == 0 else None


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


class TestCrossCommandRelations:
    @SETTINGS
    @given(data=st.data(), raw_case=datasets())
    def test_windows_t_merge_is_the_capped_row_minimum(self, data, raw_case):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ds = loaded(raw_case, root)
            argv = flags(data, data.draw(st.sampled_from(["top-eigen", "trace"])),
                         data.draw(st.sampled_from(["analytic", "empirical"])))
            code, mt = analyze(ds, root, "a" + raw_case[0], argv)
            # windows computes the same merge times, then the convergence
            # battery, which may fail on its own
            code_w, doc = run_json("windows", root / ("a" + raw_case[0]), root,
                                   argv + ["--projections", "2"])
            if code != 0:
                assert code_w == code, argv
            elif code_w == 0:
                istar = doc["istar"]
                for c, window in enumerate(doc["classes"]):
                    row = np.delete(mt[c], c)
                    assert window["t_merge"] == min(int(row.min()), istar), (argv, c)

    @SETTINGS
    @given(data=st.data(), raw_case=datasets())
    def test_probe_auto_equals_the_analyzed_merge_step(self, data, raw_case):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ds = loaded(raw_case, root)
            assume(ds.n_classes >= 2)
            a, b = data.draw(st.permutations(range(ds.n_classes)))[:2]
            rows = np.isin(ds.labels, [a, b])  # rows in place, a's labelled 0
            pair = LabeledDataset(features=ds.features[rows],
                                  labels=(ds.labels[rows] == b).astype(np.int64))
            code, mt = analyze(pair, root, "pair.csv", ["--steps", "2"])
            out = root / "out"
            probe = ["probe", "--input", str(root / f"in{raw_case[0]}"), "--class-a", str(a),
                     "--class-b", str(b), "--out", str(out / "p.csv"), "--steps"]
            if code != 0:
                assert run_case(probe + ["2", "--merge-step", "auto"], out)[0] == code, probe
                return
            m = int(mt[0, 1])  # the grid holds the steps beside m, so one off shows
            probe.append(",".join(str(t) for t in sorted({0, m - 1, m, m + 1, 1000})
                                  if 0 <= t <= 1000))
            auto = run_case(probe + ["--merge-step", "auto"], out)
            given_m = run_case(probe + ["--merge-step", str(m)], out)
            assert auto == given_m or any(e in auto[2] for e in SERIES_ERRORS), (
                probe, a, b, m, auto[2], given_m[2])


class TestPhaseSpectrum:
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @SETTINGS
    @given(raw_case=datasets(),
           grid=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=6, unique=True))
    def test_counts_never_increase_and_stay_below_k(self, metric, raw_case, grid):
        with tempfile.TemporaryDirectory() as tmp:
            ds = loaded(raw_case, Path(tmp))
        sw = sweep(ds, NoiseSchedule(), [0], SeedPolicy(base_seed=0))
        try:  # numpy raising as the CLI has it
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                counts = phase_spectrum(sw, partition_by_label(ds), sorted(grid), metric=metric)
        except (VpmergeError, FloatingPointError):
            assume(False)  # one class, or an overflowing statistic
        assert all(0 <= c <= ds.n_classes - 1 for c in counts), counts
        assert all(b <= a for a, b in zip(counts, counts[1:])), (grid, counts)
