import argparse
import io
import json
import os
import resource
import shlex
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpmerge import (
    NoiseSchedule,
    SeedPolicy,
    conditional_fluctuation,
    detect_series,
    load_dataset,
    partition_by_label,
    sweep,
)
from vpmerge import __version__
from vpmerge.cli import _BLOCK_ROWS, _json_text, _series_csv, _steps_list, build_parser, execute
from vpmerge.data import save_dataset
from vpmerge.forward import TrajectorySweep
from vpmerge.merger import build_cascade
from vpmerge.schedule import j_values

from conftest import five_class_sweep, traced_peak
from test_merger import scan_oracle


def run(args):
    return execute(args)


def write_deep_csv(path):
    """520 classes of 3 rows, d = 2: at a large epsilon every class merges at
    step 0, and the cascade is a 519-deep chain, too deep for json."""
    rows = np.random.default_rng(0).standard_normal((1560, 2)).tolist()
    path.write_text("".join(f"{i // 3},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)))


@pytest.fixture()
def small_fixture(tmp_path):
    """Two-class dataset file small enough for CLI round trips."""
    out = tmp_path / "two.fvec1"
    code = run([
        "simulate", "--classes", "2", "--dim", "6", "--spectra", "8,1/3,1",
        "--n-per-class", "4000", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


class TestMixing:
    def test_reference_value(self, tmp_path):
        out = tmp_path / "mix.json"
        code = run(["mixing", "--dim", "3072", "--beta0", "1e-4",
                    "--betaT", "0.02", "--T", "1000", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["t_mix_fraction"] - 0.602) < 0.005
        assert doc["config"]["dim"] == 3072
        assert doc["version"]

    def test_runs_fast(self, tmp_path):
        import time

        t0 = time.time()
        run(["mixing", "--dim", "784", "--out", str(tmp_path / "m.json")])
        assert time.time() - t0 < 1.0


class TestSimulate:
    def test_classes_must_match_spectra(self, tmp_path, capsys):
        code = run(["simulate", "--classes", "5", "--dim", "4", "--spectra", "3,1/2,1",
                    "--n-per-class", "50", "--out", str(tmp_path / "s.fvec1")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "domain"
        assert not (tmp_path / "s.fvec1").exists()

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.fvec1", tmp_path / "b.fvec1"
        args = ["simulate", "--classes", "2", "--dim", "4", "--spectra",
                "5,1/2,1", "--n-per-class", "500", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def three_class_fixture(tmp_path):
    """Three classes, so a pair-local epsilon differs from the global one."""
    out = tmp_path / "three.fvec1"
    assert run([
        "simulate", "--classes", "3", "--dim", "6", "--spectra", "8,1/3,1/2,1",
        "--n-per-class", "1000", "--seed", "7", "--out", str(out),
    ]) == 0
    return out


class TestAnalyze:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1),
           st.one_of(st.text(), st.just('x\n  "merge_times": []')))
    def test_document_is_the_plain_encoders(self, k, seed, path):
        # _json_text joins merge_times itself; the oracle is the plain encoder,
        # given a user string that spells the spliced key in the config echo
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 10**9, (k, k))
        mt = np.minimum(a, a.T)
        np.fill_diagonal(mt, 0)
        payload = {"schedule": NoiseSchedule(beta0=1e-4, betaT=0.02, horizon_T=1000).to_dict(),
                   "classes": k, "merge_times": mt.tolist(), "cascade": build_cascade(mt)}
        args = argparse.Namespace(input=path, merge_times=path, seed=seed, func=run)
        doc = {"config": {"input": path, "merge_times": path, "seed": seed},
               "version": __version__, "seed": seed, **payload}
        assert _json_text(payload, args) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_cascade_and_series(self, tmp_path, small_fixture):
        out = tmp_path / "an.json"
        series = tmp_path / "series.csv"
        code = run([
            "analyze", "--input", str(small_fixture), "--T", "1000",
            "--steps", "101", "--metric", "top-eigen",
            "--epsilon", "0.06", "--seed", "1",
            "--out", str(out), "--series-out", str(series),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["cascade"]["step"] == doc["merge_times"][0][1]
        header, first = series.read_text().splitlines()[:2]
        assert header == "pair_a,pair_b,step,value"
        assert first.startswith("0,1,0,")

    def test_epsilon_auto(self, tmp_path, small_fixture):
        out = tmp_path / "an.json"
        assert run(["analyze", "--input", str(small_fixture),
                    "--epsilon", "auto", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["merge_times"][0][1] > 0

    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_steps_without_zero(self, tmp_path, small_fixture, mode):
        # the step-0 moments come from the dataset rows, not from a snapshot
        merge_times = []
        for steps in ("100,500,1000", "0,100,500,1000"):
            out = tmp_path / "an.json"
            assert run(["analyze", "--input", str(small_fixture), "--steps", steps,
                        "--mode", mode, "--out", str(out)]) == 0
            merge_times.append(json.loads(out.read_text())["merge_times"])
        assert merge_times[0] == merge_times[1]

    def test_one_step_is_step_zero(self, tmp_path, small_fixture):
        # a step count of 1 is the grid [0]; analytic merge steps do not read the grid
        docs = []
        for steps in ("1", "11"):
            out, series = tmp_path / f"an{steps}.json", tmp_path / f"series{steps}.csv"
            assert run(["analyze", "--input", str(small_fixture), "--steps", steps,
                        "--out", str(out), "--series-out", str(series)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["merge_times"] == docs[1]["merge_times"]
        rows = (tmp_path / "series1.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0"]

    def test_step_count_above_the_horizon_is_every_step(self, tmp_path, small_fixture):
        # the count is capped at T + 1, so 10^12 steps is not a 10^12-pass loop
        out, series = tmp_path / "an.json", tmp_path / "series.csv"
        assert run(["analyze", "--input", str(small_fixture), "--T", "20",
                    "--steps", "1000000000000", "--out", str(out),
                    "--series-out", str(series)]) == 0
        rows = series.read_text().splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == list(range(21))

    def test_epsilon_auto_series_matches_merge_times(self, tmp_path, three_class_fixture):
        out, series = tmp_path / "an.json", tmp_path / "series.csv"
        assert run(["analyze", "--input", str(three_class_fixture), "--steps", "101",
                    "--epsilon", "auto", "--out", str(out),
                    "--series-out", str(series)]) == 0
        mt = json.loads(out.read_text())["merge_times"]
        rows = np.loadtxt(series, delimiter=",", skiprows=1)
        grid = np.unique(rows[:, 2])
        for i in range(3):
            for j in range(i + 1, 3):
                pair = rows[(rows[:, 0] == i) & (rows[:, 1] == j)]
                first_one = pair[np.argmax(pair[:, 3] == 1.0), 2]
                assert first_one == grid[np.searchsorted(grid, mt[i][j])]

    def test_empirical_series_out_walks_the_grid_once(self, tmp_path, ddpm, monkeypatch):
        data = tmp_path / "five.fvec1"
        save_dataset(five_class_sweep(ddpm, [0]).dataset, data)
        args = ["analyze", "--input", str(data), "--steps", "21", "--mode", "empirical",
                "--epsilon", "0.02", "--out"]
        assert run(args + [str(tmp_path / "plain.json")]) == 0
        taken = []
        snapshot = TrajectorySweep.snapshot
        monkeypatch.setattr(TrajectorySweep, "snapshot",
                            lambda self, t, *args, **kwargs:
                            taken.append(t) or snapshot(self, t, *args, **kwargs))
        assert run(args + [str(tmp_path / "series.json"),
                           "--series-out", str(tmp_path / "series.csv")]) == 0
        grid = list(range(50, 1000, 50))  # step 0 reuses the step-0 moments
        assert taken == grid, taken
        plain, series = (json.loads((tmp_path / f"{name}.json").read_text())
                         for name in ("plain", "series"))
        # the config echo names the out paths; everything else is equal
        for doc in (plain, series):
            del doc["config"]["out"], doc["config"]["series_out"]
        assert series == plain

    def test_series_csv_matches_detect_series(self, tmp_path, three_class_fixture):
        series = tmp_path / "series.csv"
        assert run(["analyze", "--input", str(three_class_fixture), "--epsilon", "0.06",
                    "--out", str(tmp_path / "an.json"), "--series-out", str(series)]) == 0
        ds = load_dataset(three_class_fixture)
        sched = NoiseSchedule(beta0=1e-4, betaT=0.02, horizon_T=1000)
        sw = sweep(ds, sched, range(0, 1001, 10), SeedPolicy(base_seed=0))
        part = partition_by_label(ds)
        expected = ["pair_a,pair_b,step,value"]
        for i in range(3):
            for j in range(i + 1, 3):
                _, ref = detect_series(sw, [part[i], part[j]], epsilon=0.06)
                expected += [f"{i},{j},{t},{float(v)!r}" for t, v in zip(sw.steps, ref[0])]
        assert series.read_text().splitlines() == expected


def template_series_csv(path, steps, mt, values):
    """The series CSV as a per-pair %r template writes it: the oracle of
    cli._series_csv."""
    template = "".join(f"\0{t},%r\n" for t in steps)  # \0 stands for the pair
    with open(path, "w") as fh:
        fh.write("pair_a,pair_b,step,value\n")
        for (i, j), row in zip(combinations(range(len(mt)), 2), values):
            fh.write(template.replace("\0", f"{i},{j},") % tuple(row.tolist()))


class TestSeriesCsv:
    @pytest.mark.parametrize("k, steps", [
        (2, range(10)),  # steps of width 1
        (3, [7]),
        (7, [0, 5, 123456789, 400000000]),  # a step of width 9
        (40, range(0, 1001, 100)),  # 780 pairs x 11 steps: blocks end inside a pair
        (1001, [20000]),  # pairs of width 4 and a step of width 5
    ])
    def test_matches_the_template_writer(self, tmp_path, k, steps):
        steps = list(steps)
        rng = np.random.default_rng(k)
        values = rng.uniform(0.0, 1.0, (k * (k - 1) // 2, len(steps)))
        flat = values.reshape(-1)
        flat[rng.integers(0, flat.size, flat.size // 3)] = 1.0
        special = [0.0, -0.0, np.nan, np.inf, -1.5, 5e-324, 9.999e-05, 7.0, 1e-4]
        flat[rng.integers(0, flat.size, len(special))] = special
        if k == 40:
            assert flat.size % _BLOCK_ROWS and _BLOCK_ROWS % len(steps)
        mt = np.zeros((k, k), int)
        _series_csv(tmp_path / "new.csv", steps, mt, values)
        template_series_csv(tmp_path / "old.csv", steps, mt, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_one_class_writes_the_header(self, tmp_path):
        _series_csv(tmp_path / "s.csv", [0, 10], np.zeros((1, 1), int), np.empty((0, 2)))
        assert (tmp_path / "s.csv").read_text() == "pair_a,pair_b,step,value\n"

    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_series_out_matches_the_template_writer(self, tmp_path, three_class_fixture, mode):
        series = tmp_path / "series.csv"
        assert run(["analyze", "--input", str(three_class_fixture), "--steps", "21",
                    "--mode", mode, "--epsilon", "0.06", "--seed", "3",
                    "--out", str(tmp_path / "an.json"), "--series-out", str(series)]) == 0
        ds = load_dataset(three_class_fixture)
        sched = NoiseSchedule(beta0=1e-4, betaT=0.02, horizon_T=1000)
        sw = sweep(ds, sched, _steps_list("21", 1000), SeedPolicy(base_seed=3))
        mt, values = detect_series(sw, partition_by_label(ds), epsilon=0.06, mode=mode)
        template_series_csv(tmp_path / "old.csv", sw.steps, mt, values)
        assert series.read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_first_write_imports_no_module(self, tmp_path):
        # a numpy call that imports a submodule on first use (np.union1d took
        # 18 ms) would land in the first analyze of every process
        code = ("import sys, numpy as np; from vpmerge.cli import _series_csv; "
                "values = np.array([[0.5, 1.0, np.nan], [0.25, 1e-9, -2.0], [0.125, 2.0, 0.0]]); "
                "before = set(sys.modules); "
                f"_series_csv({str(tmp_path / 's.csv')!r}, [0, 5, 10], np.zeros((3, 3)), values); "
                "print(sorted(set(sys.modules) - before))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # 4095 pairs x 101 steps, a 3.2 MiB series: the writer builds one block
        # of rows at a time, so its peak stays far below the series itself
        k = 91
        values = np.random.default_rng(0).uniform(0.0, 1.0, (k * (k - 1) // 2, 101))
        _, peak = traced_peak(_series_csv, tmp_path / "s.csv", list(range(0, 1001, 10)),
                              np.zeros((k, k), int), values)
        assert peak < 2 * 2**20, peak


class TestWindows:
    def test_schema(self, tmp_path, small_fixture):
        out = tmp_path / "win.json"
        code = run([
            "windows", "--input", str(small_fixture), "--steps", "26",
            "--epsilon", "0.06", "--projections", "16", "--seed", "2",
            "--eta-scale", "0.001", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"istar", "classes", "eta_schedule", "config"}
        for cls in doc["classes"]:
            assert set(cls) >= {"class", "t_end", "t_start", "never_merged"}
            assert cls["t_end"] <= cls["t_start"]
        assert len(doc["eta_schedule"]["eta"]) == 1000
        assert doc["eta_schedule"]["warning"] is None

    def test_steps_without_zero(self, tmp_path, small_fixture):
        out = tmp_path / "win.json"
        assert run(["windows", "--input", str(small_fixture), "--steps", "100,500,1000",
                    "--projections", "8", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["classes"]) == 2


class TestConverge:
    def test_normality_json(self, tmp_path):
        ds = tmp_path / "g.csv"
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2000, 4))
        ds.write_text("\n".join(
            "0," + ",".join(repr(float(v)) for v in row) for row in rows
        ) + "\n")
        out = tmp_path / "conv.json"
        code = run(["converge", "--input", str(ds), "--steps", "3",
                    "--projections", "8", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["detected_step"] == 0
        assert doc["alpha"] == 0.05
        assert {"t", "reject_frac"} <= set(doc["steps"][0])


class TestProbeCommand:
    def test_csv_output(self, tmp_path, small_fixture):
        out = tmp_path / "probe.csv"
        code = run([
            "probe", "--input", str(small_fixture), "--steps", "5",
            "--merge-step", "600", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,accuracy,defined"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[0] == "1000" and last[2] == "0"

    def test_steps_without_zero(self, tmp_path, small_fixture):
        out = tmp_path / "probe.csv"
        assert run(["probe", "--input", str(small_fixture), "--steps", "100,500",
                    "--out", str(out)]) == 0
        steps = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert steps == ["100", "500"]


class TestCf:
    def test_json(self, tmp_path, small_fixture):
        out = tmp_path / "cf.json"
        code = run(["cf", "--input-a", str(small_fixture),
                    "--input-b", str(small_fixture), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["delta"] < 1e-12


class TestTvcheck:
    def test_report(self, tmp_path):
        x = np.linspace(-8, 8, 4001)
        p = np.exp(-0.5 * x**2)
        p /= np.trapezoid(p, x)
        q = np.exp(-0.5 * (x - 0.2) ** 2)
        q /= np.trapezoid(q, x)
        f = tmp_path / "dens.csv"
        f.write_text("# x,p,q\n" + "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, p, q)
        ) + "\n")
        out = tmp_path / "tv.json"
        assert run(["tvcheck", "--input", str(f), "--order", "2",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["holds"] is True
        assert doc["constant"] == 156.0


# (argv, exit code, a substring of the error message); 2 is a flag value the
# command cannot use, 3 a file it cannot read or write or a dataset it cannot use
BAD_VALUES = [
    (["analyze", "--input", "{data}", "--epsilon", "abc"], 2, ""),
    (["converge", "--input", "{data}", "--steps", "1,x"], 2, ""),
    (["probe", "--input", "{data}", "--merge-step", "soon", "--out", "{tmp}/p.csv"], 2, ""),
    (["probe", "--input", "{data}", "--class-a", "77", "--out", "{tmp}/p.csv"], 2, ""),
    (["probe", "--input", "{data}", "--class-b", "-1", "--out", "{tmp}/p.csv"], 2, ""),
    (["mixing", "--dim", "64", "--out", "{tmp}/missing/m.json"], 3, ""),
    (["simulate", "--classes", "1", "--dim", "2", "--spectra", "1,x",
      "--n-per-class", "10", "--out", "{tmp}/s.fvec1"], 2, ""),
    (["mixing", "--dim", "abc"], 2, ""),
    (["analyze"], 2, ""),
    (["simulate", "--classes", "2", "--dim", "0", "--spectra", "1/1",
      "--n-per-class", "3", "--out", "{tmp}/s.csv"], 2, ""),
    (["simulate", "--classes", "2", "--dim", "-1", "--spectra", "1/1",
      "--n-per-class", "3", "--out", "{tmp}/s.csv"], 2, ""),
    (["analyze", "--input", "{data}", "--order", "1", "--epsilon", "0.01"], 2, ""),
    (["tvcheck", "--input", "{tmp}/nan_q.csv"], 2, ""),
    (["tvcheck", "--input", "{tmp}/dens.csv", "--c0", "inf"], 2, ""),
    (["cf", "--input-a", "{data}", "--input-b", "{data}", "--scale", "nan"], 2, ""),
    # C_n = c0 (1 + n!) (2^n + 48) is inf at n = 170; 171! does not fit a float
    (["tvcheck", "--input", "{tmp}/dens.csv", "--order", "170"], 2, "C_n"),
    (["tvcheck", "--input", "{tmp}/dens.csv", "--c0", "1e308"], 2, "C_n"),
    (["tvcheck", "--input", "{tmp}/dens.csv", "--order", "171"], 2, "170"),
    (["tvcheck", "--input", "{tmp}/dens.csv", "--order", "100000"], 2, "170"),
    (["probe", "--input", "{data}", "--merge-step", "-5", "--out", "{tmp}/p.csv"], 2,
     "merge_step"),
    (["probe", "--input", "{data}", "--class-a", "0", "--class-b", "0", "--merge-step", "500",
      "--out", "{tmp}/p.csv"], 2, "disjoint"),
    (["cf", "--input-a", "{tmp}/nofeat.fvec1", "--input-b", "{tmp}/nofeat.fvec1"], 3,
     "no feature columns"),
    (["analyze", "--input", "{tmp}/nofeat.fvec1"], 3, "no feature columns"),
    (["converge", "--input", "{tmp}/nofeat.fvec1", "--steps", "3"], 3, "no feature columns"),
    (["simulate", "--classes", "2", "--dim", "2", "--spectra", "inf/1",
      "--n-per-class", "3", "--out", "{tmp}/s.csv"], 2, "finite"),
    (["simulate", "--classes", "2", "--dim", "2", "--spectra", "1/1", "--means", "nan,0/0,0",
      "--n-per-class", "3", "--out", "{tmp}/s.csv"], 2, "finite"),
    # every class merges at step 0: the cascade is a 519-deep chain, too deep for json
    (["analyze", "--input", "{tmp}/deep.csv", "--steps", "2", "--epsilon", "1e6"], 3,
     "520 classes"),
    # a dataset too small for the statistic is a data error
    (["analyze", "--input", "{tmp}/one.csv"], 3, "two events"),
    (["converge", "--input", "{tmp}/four.csv"], 3, "at least 20 samples"),
    (["converge", "--input", "{tmp}/flat.csv", "--steps", "3", "--projections", "4"], 3,
     "all views degenerate at step 0"),
    (["probe", "--input", "{tmp}/four.csv", "--merge-step", "500", "--out", "{tmp}/p.csv"], 3,
     "at least 10 samples"),
    # a step count below 1, and --means for the wrong number of classes
    (["analyze", "--input", "{data}", "--steps", "0"], 2, "step count"),
    (["simulate", "--classes", "2", "--dim", "2", "--spectra", "1/1", "--means", "0,0",
      "--n-per-class", "3", "--out", "{tmp}/s.csv"], 2, "--means"),
    # an fvec1 header whose d does not fit a C int, with one record and with none
    (["analyze", "--input", "{tmp}/huge_d.fvec1"], 3, "d=1099511627776, got 25"),
    (["cf", "--input-a", "{tmp}/empty_huge_d.fvec1", "--input-b", "{data}"], 3,
     "dataset is empty"),
    # a negative projection count, named before numpy sees the shape
    (["converge", "--input", "{data}", "--projections", "-1"], 2, "projection count"),
    (["windows", "--input", "{data}", "--projections", "-1"], 2, "projection count"),
    # --split is checked although no step below the merge step is fitted
    (["probe", "--input", "{data}", "--merge-step", "0", "--split", "1.5",
      "--out", "{tmp}/p.csv"], 2, "split"),
    (["probe", "--input", "{data}", "--merge-step", "0", "--split", "-1",
      "--out", "{tmp}/p.csv"], 2, "split"),
    (["probe", "--input", "{data}", "--merge-step", "0", "--split", "nan",
      "--out", "{tmp}/p.csv"], 2, "split"),
    # --merge-step auto refuses one class twice before the merger, which would take it
    (["probe", "--input", "{data}", "--class-a", "1", "--class-b", "1", "--split", "1.5",
      "--out", "{tmp}/p.csv"], 2, "disjoint"),
]


class TestErrorMapping:
    def test_unknown_flag_usage(self):
        assert run(["mixing", "--dim", "64", "--bogus", "1"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_file_data_error(self, tmp_path, capsys):
        code = run(["analyze", "--input", str(tmp_path / "nope.fvec1")])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "data"

    def test_non_finite_fvec1_is_a_data_error(self, tmp_path, capsys):
        # two classes of 20 rows, d = 2, one feature NaN
        feats = np.random.default_rng(0).standard_normal((40, 2)).astype(np.float32)
        feats[7, 1] = np.nan
        rec = np.empty(40, dtype=[("label", "<u4"), ("feat", "<f4", (2,))])
        rec["label"], rec["feat"] = np.repeat([0, 1], 20), feats
        path = tmp_path / "nan.fvec1"
        path.write_bytes(b"FVEC1" + struct.pack("<QQ", 40, 2) + rec.tobytes())
        assert run(["analyze", "--input", str(path)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "data" and "non-finite" in record["message"]

    def test_over_wide_fvec1_record_is_a_data_error_unread(self, tmp_path, capsys):
        # N = 1, d = 2^29 - 1: the size matches the header, but a record of
        # 2^31 bytes exceeds numpy's item size. The 2 GiB body is a sparse
        # hole the loader must not read
        d = 2**29 - 1
        path = tmp_path / "wide.fvec1"
        path.write_bytes(b"FVEC1" + struct.pack("<QQ", 1, d))
        os.truncate(path, 21 + 4 + 4 * d)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert run(["analyze", "--input", str(path)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "data" and f"d={d}" in record["message"]
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib < 64 * 1024

    def test_refused_analyze_writes_no_file(self, tmp_path, capsys):
        # the document is encoded before the series CSV is written
        write_deep_csv(tmp_path / "deep.csv")
        out, series = tmp_path / "out.json", tmp_path / "series.csv"
        assert run(["analyze", "--input", str(tmp_path / "deep.csv"), "--steps", "2",
                    "--epsilon", "1e6", "--out", str(out), "--series-out", str(series)]) == 3
        assert "nests too deeply" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists() and not series.exists()

    def test_negative_seed_is_taken_mod_2_64(self, tmp_path, small_fixture):
        # as SeedPolicy and simulate do; Philox keys are unsigned
        out = tmp_path / "cf.json"
        assert run(["cf", "--input-a", str(small_fixture), "--input-b", str(small_fixture),
                    "--seed", "-1", "--out", str(out)]) == 0
        assert run(["converge", "--input", str(small_fixture), "--steps", "3",
                    "--projections", "4", "--seed", "-1", "--out", str(out)]) == 0

    def test_domain_error_usage(self, tmp_path, small_fixture):
        assert run(["mixing", "--dim", "2"]) == 2

    @pytest.mark.parametrize("argv,code,message", BAD_VALUES,
                             ids=[f"argv{i}" for i in range(len(BAD_VALUES))])
    def test_bad_values_give_one_json_record(self, argv, code, message, tmp_path,
                                             small_fixture, capsys):
        # x,p,q density CSVs: a valid one, and one with a nan in column q
        (tmp_path / "dens.csv").write_text("-1.0,0.0,0.5\n0.0,1.0,0.5\n1.0,0.0,0.5\n")
        (tmp_path / "nan_q.csv").write_text("-1.0,0.0,0.5\n0.0,1.0,nan\n1.0,0.0,0.5\n")
        # fvec1 with d = 0: four rows of two classes, each a bare uint32 label
        (tmp_path / "nofeat.fvec1").write_bytes(
            b"FVEC1" + struct.pack("<QQ", 4, 0) + struct.pack("<4I", 0, 0, 1, 1))
        # fvec1 with d = 2^40: N = 1 with a bare label, and N = 0
        (tmp_path / "huge_d.fvec1").write_bytes(
            b"FVEC1" + struct.pack("<QQ", 1, 2**40) + struct.pack("<I", 0))
        (tmp_path / "empty_huge_d.fvec1").write_bytes(b"FVEC1" + struct.pack("<QQ", 0, 2**40))
        # 520 classes of 3 rows, d = 2; one class of 3 rows; two classes of 2 rows;
        # two classes of 20 rows, every row (0.5, 0.25)
        write_deep_csv(tmp_path / "deep.csv")
        (tmp_path / "one.csv").write_text("0,1.0,2.0\n0,2.0,0.5\n0,-1.0,0.3\n")
        (tmp_path / "four.csv").write_text("0,1.0,2.0\n0,2.0,0.5\n1,-1.0,0.3\n1,0.4,-0.7\n")
        (tmp_path / "flat.csv").write_text("0,0.5,0.25\n" * 20 + "1,0.5,0.25\n" * 20)
        argv = [a.format(data=small_fixture, tmp=tmp_path) for a in argv]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        record = json.loads(err)
        assert set(record) == {"error", "message"}
        assert message in record["message"]
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("argv,message", [
        # a frequency scale of 1e308 overflows the CF probes (once a NaN delta)
        (["cf", "--input-a", "{data}", "--input-b", "{data}", "--scale", "1e308",
          "--freqs", "3"], "overflow"),
        # features near 1e200 overflow their squares (once warnings and exit 4 or 3)
        (["analyze", "--input", "{tmp}/big.csv"], "overflow"),
        (["converge", "--input", "{tmp}/big.csv"], "overflow"),
        # beta0 / 2 underflows to 0 (once a NaN mixing step)
        (["mixing", "--dim", "64", "--beta0", "5e-324", "--betaT", "5e-324"], "divide by zero"),
    ], ids=["cf", "analyze", "converge", "mixing"])
    def test_float_error_is_one_numeric_record(self, argv, message, small_fixture, tmp_path):
        rows = np.random.default_rng(0).standard_normal((60, 3)) * 1e200
        (tmp_path / "big.csv").write_text("".join(
            f"{i // 30},{a!r},{b!r},{c!r}\n" for i, (a, b, c) in enumerate(rows.tolist())))
        proc = run_capped([a.format(data=small_fixture, tmp=tmp_path) for a in argv])
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
        record = json.loads(proc.stderr)
        assert record["error"] == "numeric" and message in record["message"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("beta0,beta_t", [("5e-324", "5e-324"), ("1e-320", "1e-300")])
    def test_subnormal_beta0_is_no_numeric_error(self, beta0, beta_t, small_fixture):
        # a merge window's reach overflows or its step is 0 / 0 there, which
        # the merge-step routine handles: J stays 1 and no pair ever merges
        proc = run_capped(["analyze", "--input", str(small_fixture), "--beta0", beta0,
                           "--betaT", beta_t, "--steps", "11"])
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["merge_times"] == [[0, 1000], [1000, 0]]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("argv", [
        ["converge", "--input", "{data}", "--projections", "3000000000"],
        ["windows", "--input", "{data}", "--T", "400000000"],
        ["cf", "--input-a", "{data}", "--input-b", "{data}", "--freqs", "300000000"],
    ], ids=lambda argv: argv[0])
    def test_allocation_failure_is_a_data_error(self, argv, small_fixture):
        # each argv asks for gigabytes (windows: the eta schedule over 1..T);
        # under a 1.5 GB address-space cap numpy refuses the request at once,
        # so nothing is really allocated
        proc = run_capped([a.format(data=small_fixture) for a in argv])
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        record = json.loads(proc.stderr)
        assert record["error"] == "data" and "allocate" in record["message"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    def test_huge_horizon_analyze_needs_no_table(self, small_fixture, tmp_path):
        # the merge steps hold no array over 0..T: T = 4e8 runs under the cap
        out = tmp_path / "an.json"
        proc = run_capped(["analyze", "--input", str(small_fixture), "--T", "400000000",
                           "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        merge = np.array(json.loads(out.read_text())["merge_times"])
        schedule = NoiseSchedule(1e-4, 0.02, 400_000_000)
        ds = load_dataset(str(small_fixture))
        sw = sweep(ds, schedule, [0], SeedPolicy(base_seed=0))
        tops = np.array([conditional_fluctuation(sw, ev, 0).top_eigenvalue
                         for ev in partition_by_label(ds)])
        j2 = j_values(schedule, np.arange(merge.max() + 2)) ** 2
        assert np.array_equal(merge, scan_oracle(j2, tops, tops.max() / 400.0))


def write_rows(path, rows, per_class=30):
    """A CSV dataset of the rows, per_class rows to a class, labels 0, 1, ..."""
    path.write_text("".join(f"{i // per_class}," + ",".join(map(repr, row)) + "\n"
                            for i, row in enumerate(rows.tolist())))
    return str(path)


class TestExtremeMagnitudes:
    @pytest.fixture()
    def spiked(self):
        """Three classes of 30 rows, d = 3, with leading variances 9, 4 and 1."""
        rows = np.random.default_rng(0).standard_normal((90, 3))
        return rows * np.repeat([[3.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]], 30, axis=0)

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e150])
    def test_top_eigen_merge_steps_never_read_the_squared_norm(self, scale, spiked, tmp_path):
        # ||S||_F^2 overflows from about 1e77 on, but top-eigen merge steps
        # never read it, and lambda_max and eps scale alike
        docs = []
        for name, rows in (("unit", spiked), ("big", spiked * scale)):
            out = tmp_path / f"{name}.json"
            assert run(["analyze", "--input", write_rows(tmp_path / f"{name}.csv", rows),
                        "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[1]["merge_times"] == docs[0]["merge_times"]

    @pytest.mark.parametrize("extra", [["--metric", "trace"], ["--series-out", "{tmp}/s.csv"],
                                       ["--mode", "empirical", "--series-out", "{tmp}/s.csv"]],
                             ids=lambda e: e[0])
    def test_squared_norm_readers_still_overflow(self, extra, spiked, tmp_path, capsys):
        data = write_rows(tmp_path / "big.csv", spiked * 1e80)
        assert run(["analyze", "--input", data, *[a.format(tmp=tmp_path) for a in extra]]) == 4
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "numeric",
                                                 "message": "overflow encountered in multiply"}

    @pytest.mark.parametrize("scale", [1e52, 1e60, 1e70])
    def test_trace_merge_steps_below_the_squared_norm_limit(self, scale, tmp_path, capsys):
        # an isotropic class against a spiked one of a smaller trace but a
        # larger ||S||_F^2; 4 |quad| eps overflows from about 1e52 on, and the
        # pair never reaches the band before T
        z = np.random.default_rng(0).standard_normal((2, 30, 2))
        z -= z.mean(axis=1, keepdims=True)
        z = np.stack([c @ np.linalg.inv(np.linalg.cholesky(c.T @ c / 30)).T for c in z])
        rows = np.concatenate([z[0], z[1] * [1.3, 0.1]]) * scale
        assert run(["analyze", "--input", write_rows(tmp_path / "big.csv", rows),
                    "--metric", "trace"]) == 0
        assert json.loads(capsys.readouterr().out)["merge_times"] == [[0, 1000], [1000, 0]]

    def test_probe_fit_overflow_is_a_numeric_error(self, spiked, tmp_path, capsys):
        # the fit's squared deviations overflow near 1e200; the merge step is
        # given, so no merger statistic overflows first
        data = write_rows(tmp_path / "big.csv", spiked * 1e200)
        assert run(["probe", "--input", data, "--steps", "3", "--merge-step", "500",
                    "--out", str(tmp_path / "p.csv")]) == 4
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "numeric",
                                                 "message": "overflow encountered in multiply"}

    def test_empirical_top_eigen_merge_steps_never_read_the_squared_norm(self, spiked,
                                                                          tmp_path, capsys):
        data = write_rows(tmp_path / "big.csv", spiked * 1e80)
        texts = []
        for _ in range(2):
            assert run(["analyze", "--input", data, "--mode", "empirical", "--steps", "11"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            texts.append(out)
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("command", ["converge", "windows"])
    def test_tiny_magnitudes_scale_up_exactly(self, command, tmp_path, capsys):
        # near 1e-160 the view moments and the degenerate-view cut underflow
        # unless the battery scales the data up by a power of two first
        tiny = np.random.default_rng(1).standard_normal((60, 3)) * 1e-160
        power = 2.0 ** -np.frexp(np.abs(tiny - tiny.mean(axis=0)).max())[1]
        docs = []
        for name, rows in (("tiny", tiny), ("unit", tiny * power)):
            assert run([command, "--input", write_rows(tmp_path / f"{name}.csv", rows),
                        "--steps", "3"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            docs.append(json.loads(out))
        if command == "converge":
            assert docs[0]["steps"][0] == docs[1]["steps"][0]


def run_capped(argv):
    """`python -m vpmerge.cli argv` under a 1.5 GB address-space cap."""
    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, hard))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "vpmerge.cli", *argv], env=env,
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=60)


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Tiny inputs for random argv: a 2-class CSV, a density CSV, out paths."""
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(0)
    tiny = root / "tiny.csv"
    tiny.write_text("".join(
        f"{k},{a!r},{b!r}\n" for k in (0, 1)
        for a, b in (rng.standard_normal((12, 2)) * (k + 1)).tolist()))
    dens = root / "dens.csv"
    dens.write_text("-1.0,0.0,0.5\n0.0,1.0,0.5\n1.0,0.0,0.5\n")
    return {"tiny": str(tiny), "dens": str(dens), "missing": str(root / "nope.csv"),
            "out": str(root / "out.txt"), "out_missing_dir": str(root / "no" / "out.txt")}


@st.composite
def random_argv(draw, files):
    """A subcommand, usually its required flags, then up to two groups drawn
    mostly from the flags that subcommand accepts."""
    tiny, out = files["tiny"], files["out"]
    sched = ["--T", "--beta0", "--betaT"]
    analysis = sched + ["--input", "--steps", "--metric", "--epsilon", "--mode", "--seed"]
    commands = {
        "mixing": (["--dim", "4"], sched + ["--dim"]),
        "analyze": (["--input", tiny, "--steps", "11"], analysis),
        "windows": (["--input", tiny, "--steps", "11", "--projections", "4"],
                    analysis + ["--alpha", "--projections", "--eta-scale"]),
        "converge": (["--input", tiny, "--steps", "11", "--projections", "4"],
                     sched + ["--input", "--steps", "--alpha", "--projections", "--seed"]),
        "simulate": (["--classes", "2", "--dim", "2", "--spectra", "2,1/1",
                      "--n-per-class", "12", "--out", out],
                     ["--classes", "--dim", "--spectra", "--means", "--n-per-class",
                      "--seed"]),
        "probe": (["--input", tiny, "--steps", "3", "--out", out],
                  sched + ["--input", "--steps", "--class-a", "--class-b", "--merge-step",
                           "--split", "--seed"]),
        "cf": (["--input-a", tiny, "--input-b", tiny, "--freqs", "4"],
               ["--input-a", "--input-b", "--freqs", "--scale", "--seed"]),
        "tvcheck": (["--input", files["dens"]], ["--input", "--order", "--c0"]),
        "frobnicate": ([], ["--dim"]),
    }
    values = ["0", "1", "-1", "abc", "1,x", "nan", "auto", "trace", "empirical",
              tiny, files["dens"], files["missing"]]
    sub = draw(st.sampled_from(sorted(commands)))
    base, flags = commands[sub]
    argv = [sub] + (base if draw(st.sampled_from([True, True, True, False])) else [])
    flag_group = st.tuples(st.sampled_from(flags), st.sampled_from(values))
    # --out only ever takes an out path, so no example overwrites an input
    group = st.one_of(
        *[flag_group] * 6,
        st.tuples(st.sampled_from(["--out", "--series-out"] if sub == "analyze" else ["--out"]),
                  st.sampled_from([out, files["out_missing_dir"]])),
        st.tuples(st.sampled_from(values + ["--help", "--bogus"])),
    )
    for tokens in draw(st.lists(group, max_size=2)):
        argv.extend(tokens)
    return argv


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestRandomArgv:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_and_one_json_record(self, argv_files, data):
        argv = data.draw(random_argv(argv_files))
        out, err = io.StringIO(), io.StringIO()
        # a warning would reach stderr beside (or instead of) the JSON record
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(argv)
        assert code in (0, 2, 3, 4)
        text = err.getvalue()
        if text:
            assert text.endswith("\n") and text.count("\n") == 1
            assert set(json.loads(text, parse_constant=_no_constant)) == {"error", "message"}
        if out.getvalue() and "--help" not in argv:  # help text is not JSON
            json.loads(out.getvalue(), parse_constant=_no_constant)


class TestOneParser:
    def test_in_process_calls_match_fresh_processes(self, tmp_path, small_fixture,
                                                    monkeypatch):
        # execute builds the parser once per process; every later call must
        # behave as in a fresh process, after a usage error and --help too
        monkeypatch.setenv("COLUMNS", "100")  # the help text's width
        data, outs = str(small_fixture), tmp_path / "out"
        calls = [
            (0, ["analyze", "--input", data, "--steps", "11", "--out", f"{outs}/a.json"]),
            (2, ["analyze", "--steps", "11", "--bogus"]),
            (0, ["--help"]),
            (0, ["windows", "--input", data, "--steps", "11", "--projections", "8",
                 "--out", f"{outs}/w.json"]),
            (0, ["probe", "--input", data, "--steps", "5", "--out", f"{outs}/p.csv"]),
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def outputs(code, stdout, stderr):
            files = {f.name: f.read_bytes() for f in outs.iterdir()}
            for f in outs.iterdir():
                f.unlink()
            return code, stdout, stderr, files

        outs.mkdir()
        for code, argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                here = outputs(run(argv), out.getvalue(), err.getvalue())
            proc = subprocess.run([sys.executable, "-m", "vpmerge.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert here == outputs(proc.returncode, proc.stdout, proc.stderr), argv
            assert here[0] == code and (here[1] or here[2] or here[3]), argv


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path, small_fixture):
        out = tmp_path / "w.json"
        args = ["windows", "--input", str(small_fixture), "--steps", "11",
                "--epsilon", "0.06", "--projections", "8", "--seed", "5",
                "--out", str(out)]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first


class TestReadme:
    def test_every_cli_example_parses(self):
        # the README's CLI block, one example per subcommand, `\` lines joined
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```", 2)[1]
        lines = block.replace("\\\n", " ").splitlines()
        parser = build_parser()
        seen = set()
        for line in filter(None, map(str.strip, lines)):
            argv = shlex.split(line)
            assert argv[0] == "vpmerge", line
            seen.add(parser.parse_args(argv[1:]).command)
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        assert seen == set(subcommands)
