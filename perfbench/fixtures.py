"""Seeded fixture synthesis for the vpmerge benchmark.

The benchmark owns its inputs: every fixture is drawn here from the
workload's shape and the ``--seed`` argument, and written with the
benchmark's own fvec1 and CSV writers, so a change to vpmerge's
synthesis or writers cannot change what the program is measured on.
The program under test only ever receives the written files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# Shapes at full size and shrunken for the benchmark's own quick test.
# many-classes: K spiked Gaussians, leading eigenvalue geometric lead_hi ->
#   lead_lo over the classes, the rest of the spectrum 1.
# large-n: uniform-cube and Laplace classes at unit variance.
# empirical-csv: K spiked classes with a small mean offset; d above
#   vpmerge's DENSE_EIG_LIMIT (256) so the eigensolve takes the power method.
SHAPES = {
    "many-classes": {
        "full": {"classes": 32, "dim": 16, "rows_per_class": 400,
                 "lead_hi": 12.0, "lead_lo": 1.5, "format": "fvec1"},
        "small": {"classes": 6, "dim": 8, "rows_per_class": 200,
                  "lead_hi": 12.0, "lead_lo": 1.5, "format": "fvec1"},
    },
    "large-n": {
        "full": {"classes": 2, "dim": 64, "rows_per_class": 5000,
                 "format": "fvec1"},
        "small": {"classes": 2, "dim": 16, "rows_per_class": 2000,
                  "format": "fvec1"},
    },
    "empirical-csv": {
        "full": {"classes": 3, "dim": 288, "rows_per_class": 700,
                 "spikes": (8.0, 5.0, 3.0), "mean_offset": 1.0,
                 "format": "csv"},
        "small": {"classes": 3, "dim": 24, "rows_per_class": 200,
                  "spikes": (8.0, 5.0, 3.0), "mean_offset": 1.0,
                  "format": "csv"},
    },
}

_WORKLOAD_TAG = {"many-classes": 1, "large-n": 2, "empirical-csv": 3}
_FVEC1_MAGIC = b"FVEC1"


def shape(workload: str, small: bool = False) -> dict:
    return SHAPES[workload]["small" if small else "full"]


def fixture_path(out_dir, workload: str, small: bool = False) -> Path:
    ext = shape(workload, small)["format"]
    return Path(out_dir) / f"{workload}.{ext}"


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_TAG[workload]])


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _spiked(rng, n: int, d: int, lead: float, mean: np.ndarray) -> np.ndarray:
    spectrum = np.ones(d)
    spectrum[0] = lead
    z = rng.standard_normal((n, d)) * np.sqrt(spectrum)
    return z @ _rotation(rng, d).T + mean


def synthesize(workload: str, seed: int, small: bool = False):
    """(features float64 (N, d), labels int64 (N,)) for one workload."""
    shp = shape(workload, small)
    rng = _rng(seed, workload)
    k, d, m = shp["classes"], shp["dim"], shp["rows_per_class"]
    blocks = []
    if workload == "many-classes":
        leads = np.geomspace(shp["lead_hi"], shp["lead_lo"], k)
        blocks = [_spiked(rng, m, d, lead, np.zeros(d)) for lead in leads]
    elif workload == "large-n":
        half = np.sqrt(3.0)  # U(-sqrt3, sqrt3) and Laplace(1/sqrt2) have unit variance
        blocks = [rng.uniform(-half, half, (m, d)),
                  rng.laplace(0.0, 1.0 / np.sqrt(2.0), (m, d))]
    elif workload == "empirical-csv":
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        blocks = [_spiked(rng, m, d, lead, c * shp["mean_offset"] * direction)
                  for c, lead in enumerate(shp["spikes"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    feats = np.vstack(blocks)
    labels = np.repeat(np.arange(k, dtype=np.int64), m)
    return feats, labels


def write_fvec1(path, feats: np.ndarray, labels: np.ndarray) -> None:
    n, d = feats.shape
    rec = np.empty(n, dtype=np.dtype([("label", "<u4"), ("feat", "<f4", (d,))]))
    rec["label"] = labels
    rec["feat"] = feats
    with open(path, "wb") as fh:
        fh.write(_FVEC1_MAGIC + struct.pack("<QQ", n, d))
        fh.write(rec.tobytes())


def write_csv(path, feats: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("# label,features\n")
        for label, row in zip(labels.tolist(), feats.tolist()):
            fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")


def write_fixture(workload: str, seed: int, out_dir, small: bool = False) -> Path:
    feats, labels = synthesize(workload, seed, small)
    path = fixture_path(out_dir, workload, small)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer = write_csv if shape(workload, small)["format"] == "csv" else write_fvec1
    writer(path, feats, labels)
    return path
