"""Golden digests: the CLI's outputs on small seeded fixtures, byte for byte.

Each case runs one command in-process and hashes its exit code, stdout,
stderr and every out file, with the fixture directory in the config echo
replaced by ``<tmp>``.  A change that only makes the program faster must
leave every digest as it is; a change that means to alter an output
updates the digest here and says why.

The fixtures are written by this file from seeded numpy generators (CSV
of ``repr`` floats), so the digests depend on vpmerge and numpy's
arithmetic only.  They were recorded with numpy 2.4 on x86-64; another
BLAS may round the covariances differently and move them.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from vpmerge.cli import execute

# name -> (argv without --input, sha256 of the normalised outputs)
CASES = {
    "analyze-top-series": (
        ["analyze", "--steps", "21", "--out", "{tmp}/a.json", "--series-out", "{tmp}/s.csv"],
        "b11c1b7edcbff15279d3021c8876336c796a752fcb9a907208a76507174f4466"),
    "analyze-trace": (
        ["analyze", "--metric", "trace", "--steps", "21", "--out", "{tmp}/a.json"],
        "f093b6db462728faf69ece38adf9dc10a4ef46f49176e52c7416e2fe32e56f7f"),
    "analyze-empirical": (
        ["analyze", "--mode", "empirical", "--steps", "11", "--seed", "3",
         "--out", "{tmp}/a.json"],
        "6dbc3bc53a8361794373e54063714d03f71b95ab4f8f4ec0dcb447f8401c82ca"),
    "windows": (
        ["windows", "--steps", "21", "--projections", "16", "--seed", "2",
         "--out", "{tmp}/w.json"],
        "128b87b7e70e246d7b5185bda67101e3f4e8fa625590321a5936e784f19da233"),
    "converge": (
        ["converge", "--steps", "21", "--projections", "16", "--seed", "2",
         "--out", "{tmp}/c.json"],
        "45a6473452d6b69c4cf5517e1e53bfd5a607a3e69b5af14203addd69657615b0"),
    "probe": (
        ["probe", "--steps", "6", "--merge-step", "auto", "--seed", "4",
         "--out", "{tmp}/p.csv"],
        "920f9d380b269e963f7ae2bb50c79e29e64eafae671c65d1edebf9153f9e3206"),
    "probe-one-feature": (  # the fit scales a single column by np.var's pairwise sum
        ["probe", "--input", "{tmp}/one.csv", "--steps", "6", "--merge-step", "auto",
         "--seed", "5", "--out", "{tmp}/p.csv"],
        "81ef9b3786a0c81937d01addb44c70b588a8e4f214187888ecdf724e79f1bfc2"),
    "mixing": (
        ["mixing", "--dim", "3072"],
        "378cfe9c77ee5cc59a27ab0b4fccae4b8594a94605ac0b507304d537f0aa665b"),
    "cf": (
        ["cf", "--input-a", "{tmp}/five.csv", "--input-b", "{tmp}/other.csv", "--freqs", "7",
         "--scale", "0.3", "--seed", "4", "--out", "{tmp}/cf.json"],
        "93345982d9b4f486a44b748dc8a4ec950751eeb0b3efc2941dea9ec9053344d5"),
    "tvcheck": (
        ["tvcheck", "--input", "{tmp}/dens.csv", "--order", "5", "--c0", "0.5",
         "--out", "{tmp}/tv.json"],
        "bd65c8b4e999bdf238961e95610493433251a25215060f8f954421b400014fdc"),
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Five spiked Gaussian classes in d = 6 with small mean offsets, two
    one-feature classes with variances 9 and 1, a second d = 6 dataset of two
    isotropic classes, and the x,p,q grid densities of N(0, 1) and N(0.3, 1)
    on 801 points over [-8, 8], as CSV."""
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(20251)
    lines = []
    for k, lead in enumerate((9.0, 6.0, 5.5, 2.0, 1.2)):
        scale = np.sqrt(np.r_[lead, np.ones(5)])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rows = (rng.standard_normal((300, 6)) * scale) @ q.T + rng.normal(0.0, 0.5, 6)
        lines += [f"{k}," + ",".join(map(repr, row)) for row in rows.tolist()]
    (root / "five.csv").write_text("\n".join(lines) + "\n")
    rows = rng.standard_normal(240) * np.repeat([3.0, 1.0], 120) + np.repeat([0.0, 1.5], 120)
    lines = [f"{i // 120},{v!r}" for i, v in enumerate(rows.tolist())]
    (root / "one.csv").write_text("\n".join(lines) + "\n")
    rng = np.random.default_rng(20252)  # its own stream: five.csv and one.csv stay as they are
    rows = rng.standard_normal((200, 6)) * np.repeat([[1.0], [2.0]], 100, axis=0)
    lines = [f"{i // 100}," + ",".join(map(repr, row)) for i, row in enumerate(rows.tolist())]
    (root / "other.csv").write_text("\n".join(lines) + "\n")
    x = np.linspace(-8.0, 8.0, 801)
    p, q = (np.exp(-0.5 * (x - m) ** 2) / np.sqrt(2.0 * np.pi) for m in (0.0, 0.3))
    lines = [f"{a!r},{b!r},{c!r}" for a, b, c in zip(x.tolist(), p.tolist(), q.tolist())]
    (root / "dens.csv").write_text("\n".join(lines) + "\n")
    return root


def _digest(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.format(tmp=tmp) for a in argv]
    if argv[0] != "mixing" and not any(a.startswith("--input") for a in argv):
        argv[1:1] = ["--input", f"{tmp}/five.csv"]
    data = {v for flag, v in zip(argv, argv[1:]) if flag.startswith("--input")}
    with redirect_stdout(out), redirect_stderr(err):
        code = execute(argv)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    for path in sorted(a for a in argv if a.startswith(f"{tmp}/") and a not in data):
        with open(path) as fh:
            h.update(fh.read().replace(str(tmp), "<tmp>").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_their_golden_digest(name, fixture_dir):
    argv, want = CASES[name]
    assert _digest(argv, fixture_dir) == want
