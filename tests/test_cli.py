import io
import json
import os
import resource
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpmerge import (
    NoiseSchedule,
    SeedPolicy,
    detect_series,
    load_dataset,
    partition_by_label,
    sweep,
)
from vpmerge.cli import execute
from vpmerge.data import save_dataset
from vpmerge.forward import TrajectorySweep

from conftest import five_class_sweep


def run(args):
    return execute(args)


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
    def test_cascade_and_series(self, tmp_path, small_fixture):
        out = tmp_path / "an.json"
        series = tmp_path / "series.csv"
        code = run([
            "analyze", "--input", str(small_fixture), "--T", "1000",
            "--steps", "101", "--order", "2", "--metric", "top-eigen",
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
                            lambda self, t: taken.append(t) or snapshot(self, t))
        assert run(args + [str(tmp_path / "series.json"),
                           "--series-out", str(tmp_path / "series.csv")]) == 0
        grid = list(range(0, 1000, 50))
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
                ref = detect_series(sw, part.events[i], part.events[j], epsilon=0.06)
                expected += [f"{i},{j},{t},{float(v)!r}" for t, v in zip(ref.steps, ref.values)]
        assert series.read_text().splitlines() == expected


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
        # 520 classes of 3 rows, d = 2; one class of 3 rows; two classes of 2 rows
        rows = np.random.default_rng(0).standard_normal((1560, 2)).tolist()
        (tmp_path / "deep.csv").write_text(
            "".join(f"{i // 3},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)))
        (tmp_path / "one.csv").write_text("0,1.0,2.0\n0,2.0,0.5\n0,-1.0,0.3\n")
        (tmp_path / "four.csv").write_text("0,1.0,2.0\n0,2.0,0.5\n1,-1.0,0.3\n1,0.4,-0.7\n")
        argv = [a.format(data=small_fixture, tmp=tmp_path) for a in argv]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        record = json.loads(err)
        assert set(record) == {"error", "message"}
        assert message in record["message"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS caps the address space on Linux")
    @pytest.mark.parametrize("argv", [
        ["converge", "--input", "{data}", "--projections", "3000000000"],
        ["analyze", "--input", "{data}", "--T", "400000000"],
        ["cf", "--input-a", "{data}", "--input-b", "{data}", "--freqs", "300000000"],
    ], ids=lambda argv: argv[0])
    def test_allocation_failure_is_a_data_error(self, argv, small_fixture):
        # each argv asks for gigabytes; under a 1.5 GB address-space cap numpy
        # refuses the request at once, so nothing is really allocated
        def cap_address_space():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, hard))

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [a.format(data=small_fixture) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "vpmerge.cli", *argv], env=env,
                              preexec_fn=cap_address_space, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        record = json.loads(proc.stderr)
        assert record["error"] == "data" and "allocate" in record["message"]


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
    analysis = sched + ["--input", "--steps", "--order", "--metric", "--epsilon", "--mode",
                        "--seed"]
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
