"""The CLI contract as a property over the parser and tiny generated inputs.

Every subcommand, flag and choice is read from the cached ``build_parser()``.
Inputs are small CSV and fvec1 datasets, well formed or not: empty, one
class, one row per class, sparse labels, NaN or inf, a constant column,
repeated rows, huge or tiny magnitudes, or cut short.  Each case runs
``execute`` in-process and must

* exit 0, 2, 3 or 4;
* write nothing to stderr on exit 0, else one JSON record, and never a
  traceback or a warning;
* on exit 0, write byte-identical stdout and files when run again.

Every size a flag can ask for is bounded by the value tables below, so no
case allocates more than a few MB.
"""

import argparse
import io
import json
import struct
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpmerge.cli import build_parser, execute

# (valid, invalid or extreme) values of each flag that takes a number or a
# free-form string, by dest; every size (T, steps, classes, rows, dim,
# projections, freqs, order) stays small
VALUES = {
    "T": (["20", "1000"], ["-1", "0", "1", "2", str(10**400)]),
    "beta0": (["1e-4", "1e-3"], ["nan", "-inf", "-1", "0", "1e-300", "1"]),
    "betaT": (["0.02", "0.05"], ["nan", "inf", "1e-300", "1e308"]),
    "steps": (["2", "3", "6", "0,5,10"], ["1", "0", "-1", "x", "0,3,2000"]),
    "epsilon": (["auto", "0.01"], ["1e6", "1e-300", "0", "-1", "nan", "x"]),
    "seed": (["0", "7", "-1"], [str(2**64)]),
    "alpha": (["0.05", "0.5"], ["nan", "0", "1", "-1"]),
    "projections": (["0", "1", "4"], ["-1"]),
    "eta_scale": (["1e-3", "0.5"], ["0", "nan", "2"]),
    "dim": (["2", "3", "64"], ["-1", "0", "x", str(10**400)]),
    "classes": (["2", "3"], ["-1", "0", "1"]),
    "n_per_class": (["3", "12"], ["-1", "0"]),
    "spectra": (["2,1/1", "3,2/2/1"], ["1,x", "inf/1", "1", "2/1/0.5/1"]),
    "means": (["0,0/1,1", "0,0,0/1,1,1/2,2,2"], ["nan,0/0,0", "0", "x"]),
    "class_a": (["0", "1"], ["-1", "5"]),
    "class_b": (["1", "0", "2"], ["-1", "5"]),
    "merge_step": (["auto", "3", "500", "0"], ["-1", "x"]),
    "split": (["0.8", "0.5"], ["nan", "0", "1", "-1"]),
    "freqs": (["1", "4"], ["-1", "0"]),
    "scale": (["0.5", "1"], ["nan", "inf", "1e308", "-1", "0"]),
    "order": (["2", "6"], ["-1", "0", "171"]),
    "c0": (["1", "0.5"], ["inf", "nan", "1e308", "-1"]),
}
OUTPUTS = ["o.json", "o.csv", "o.fvec1", "missing/o.json"]  # under the case's out dir
JUNK = ["--bogus", "abc", "--help", "-1"]
KINDS = ["gaussian", "empty", "one_class", "one_row_per_class", "sparse_labels", "nan", "inf",
         "constant", "repeated", "huge", "tiny", "truncated"]


def subcommands() -> dict:
    """name -> the optional actions of its subparser, --help left out."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


PATH_DESTS = ("input", "input_a", "input_b", "out", "series_out")


def test_every_flag_has_bounded_values():
    # a new flag must be given values here before the property reaches it
    for actions in subcommands().values():
        for a in actions:
            assert a.dest in PATH_DESTS or a.dest in VALUES or a.choices, a.dest


@st.composite
def datasets(draw):
    """(file suffix, file bytes) of a small labelled dataset of some kind."""
    kind = draw(st.sampled_from(KINDS[:1] * len(KINDS) + KINDS[1:]))  # half well formed
    suffix = draw(st.sampled_from([".csv", ".fvec1"]))
    k, per, d = draw(st.integers(2, 3)), draw(st.integers(2, 24)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    labels = np.repeat(np.arange(k), per)
    feats = rng.standard_normal((k * per, d)) * (1.0 + 2.0 * labels[:, None])
    if kind == "empty":
        labels, feats = labels[:0], feats[:0]
    elif kind == "one_class":
        labels = np.zeros_like(labels)
    elif kind == "one_row_per_class":
        labels, feats = np.arange(k), feats[:k]
    elif kind == "sparse_labels":
        labels = labels * 7 + 3
    elif kind in ("nan", "inf"):
        feats[draw(st.integers(0, len(feats) - 1)), draw(st.integers(0, d - 1))] = float(kind)
    elif kind == "constant":
        feats[:, draw(st.integers(0, d - 1))] = 0.25
    elif kind == "repeated":  # one row per class, repeated
        feats = feats[labels * per]
    elif kind in ("huge", "tiny"):  # near the range of float32 in fvec1, of float64 in CSV
        feats *= (1e37 if suffix == ".fvec1" else 1e200) ** (1 if kind == "huge" else -1)
    if suffix == ".csv":
        raw = "".join(f"{c}," + ",".join(map(repr, row)) + "\n"
                      for c, row in zip(labels.tolist(), feats.tolist())).encode()
    else:
        rec = np.empty(len(labels), dtype=[("label", "<u4"), ("feat", "<f4", (d,))])
        rec["label"], rec["feat"] = labels, feats
        raw = b"FVEC1" + struct.pack("<QQ", len(labels), d) + rec.tobytes()
    if kind == "truncated":
        raw = raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
    return suffix, raw


def flag_value(draw, action, inputs, out):
    """A value for the flag: an input path (mostly a dataset), an out path, one
    of its choices, or a valid value three times in four."""
    if action.dest in PATH_DESTS[:3]:
        return draw(st.sampled_from(inputs))
    if action.dest in PATH_DESTS[3:]:
        return str(out / draw(st.sampled_from(OUTPUTS)))
    if action.choices:
        return str(draw(st.sampled_from(action.choices)))
    valid, invalid = VALUES[action.dest]
    return draw(st.sampled_from(valid if not invalid or draw(st.integers(0, 3)) else invalid))


@st.composite
def argvs(draw, inputs, out) -> list:
    """A subcommand, each required flag (rarely left out), some of the optional
    ones, and sometimes a stray token."""
    commands = subcommands()
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]:
        if draw(st.integers(0, 9)) < (9 if action.required else 4):
            argv += [action.option_strings[0], flag_value(draw, action, inputs, out)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


def run_case(argv, out: Path):
    """(exit code, stdout, stderr, {out file: bytes}) of one in-process run,
    with warnings raised as errors; the out dir is emptied first."""
    for f in sorted(out.rglob("*"), reverse=True):  # files before their directory
        if f.is_dir():
            f.rmdir()
        else:
            f.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = execute(argv)
    files = {str(f): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def check_contract(argv, out: Path):
    code, stdout, stderr, files = first = run_case(argv, out)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == "", argv
        assert run_case(argv, out) == first, argv
    else:
        assert stderr.endswith("\n") and stderr.count("\n") == 1, argv
        record = json.loads(stderr, parse_constant=_no_constant)
        assert set(record) == {"error", "message"}, argv


class TestCliContract:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data(), files=st.lists(datasets(), min_size=1, max_size=2))
    def test_exit_code_one_record_and_reruns(self, data, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            inputs = []
            for i, (suffix, raw) in enumerate(files):
                (root / f"in{i}{suffix}").write_bytes(raw)
                inputs += [str(root / f"in{i}{suffix}")] * 3
            (root / "dens.csv").write_text("-1.0,0.0,0.5\n0.0,1.0,0.5\n1.0,0.0,0.5\n")
            inputs += [str(root / "dens.csv"), str(root / "nope.csv")]
            out = root / "out"
            out.mkdir()
            check_contract(data.draw(argvs(inputs, out)), out)


# every invalid value of every flag, each set on a valid argv of its subcommand:
# the required flags, and small sizes so that each case runs in milliseconds
BASE = {"steps": "6", "projections": "4", "freqs": "4", "dim": "3"}  # mixing needs dim >= 3


def base_argv(name: str, inputs: dict, out: Path) -> list:
    argv = [name]
    for a in subcommands()[name]:
        if a.dest in PATH_DESTS[:3]:
            value = inputs["dens" if name == "tvcheck" else "data"]
        elif a.dest == "out" and a.required:
            value = str(out / "o.csv")
        elif a.dest in BASE:
            value = BASE[a.dest]
        elif a.required:
            value = VALUES[a.dest][0][0]
        else:
            continue
        argv += [a.option_strings[0], value]
    return argv


INVALID = [(name, a.option_strings[0], value) for name, actions in sorted(subcommands().items())
           for a in actions if a.dest in VALUES for value in VALUES[a.dest][1]]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(27)
    (root / "data.csv").write_text("".join(
        f"{k}," + ",".join(map(repr, (rng.standard_normal(2) * (k + 1)).tolist())) + "\n"
        for k in range(3) for _ in range(12)))
    (root / "dens.csv").write_text("-1.0,0.0,0.5\n0.0,1.0,0.5\n1.0,0.0,0.5\n")
    return {"data": str(root / "data.csv"), "dens": str(root / "dens.csv")}


@pytest.mark.parametrize("name", sorted(subcommands()))
def test_base_argv_exits_zero(name, contract_inputs, tmp_path):
    assert run_case(base_argv(name, contract_inputs, tmp_path), tmp_path)[0] == 0


@pytest.mark.parametrize("name,flag,value", INVALID,
                         ids=[f"{n}{f}={v if len(v) < 24 else f'{len(v)}-digits'}"
                              for n, f, v in INVALID])
def test_every_invalid_value(name, flag, value, contract_inputs, tmp_path):
    argv = base_argv(name, contract_inputs, tmp_path)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    check_contract(argv + [flag, value], tmp_path)


# an int flag too big for a float or an index: one "domain" record, exit 2
@pytest.mark.parametrize("argv", [
    ["mixing", "--T", str(10**400), "--dim", "5"],
    ["mixing", "--dim", str(10**400)],
    ["analyze", "--input", "IN", "--T", str(10**400)],
    ["converge", "--input", "IN", "--T", str(10**400)],
    ["probe", "--input", "IN", "--T", str(10**400), "--out", "OUT/p.csv"],
    ["simulate", "--classes", "2", "--dim", str(10**400), "--spectra", "2,1/1",
     "--n-per-class", "3", "--out", "OUT/s.fvec1"],
], ids=["mixing-T", "mixing-dim", "analyze-T", "converge-T", "probe-T", "simulate-dim"])
def test_int_flag_too_big_for_a_float_is_a_domain_error(argv, tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("".join(f"{i % 2},{i * 0.5},{i % 3}\n" for i in range(20)))
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(path) if a == "IN" else a.replace("OUT", str(out)) for a in argv]
    check_contract(argv, out)
    code, _, stderr, files = run_case(argv, out)
    assert (code, json.loads(stderr)["error"], files) == (2, "domain", {})
