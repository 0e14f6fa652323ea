"""Datasets, class-event partitions, and synthetic Gaussian mixtures.

Features are stored as float64 regardless of file precision so that
covariance accumulation stays accurate.  Labels are remapped to the
contiguous range 0..K-1 on construction; the original labels are kept
in ``label_map``.

Every random stream in vpmerge is a counter-based Philox generator made
by ``philox(seed, tag)``: the forward noise of step t (tag t), the rows
and rotation of synthetic class k (tags k and (1 << 32) | (k << 8) | k),
the convergence projections (0xC0DE), the CF frequency probes (0xF0F0)
and the probe's train/test split (0xB0BE).

File formats
------------
CSV (read_csv, the reader of every CSV input): one record per line, an
integral label (``1`` or ``1.0``), then d decimal reals; blank lines are
skipped and '#' starts a comment anywhere on a line.

fvec1 (little-endian binary): 5 magic bytes ``FVEC1``, uint64 N,
uint64 d, then N records of [uint32 label, d x float32 features].
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError

__all__ = [
    "LabeledDataset",
    "EventPartition",
    "philox",
    "SyntheticSpec",
    "load_dataset",
    "save_dataset",
    "read_csv",
    "partition_by_label",
    "synth_gaussian_mixture",
]

_FVEC1_MAGIC = b"FVEC1"


@dataclass(frozen=True)
class LabeledDataset:
    """N x d feature matrix with contiguous integer labels."""

    features: np.ndarray
    labels: np.ndarray
    label_map: dict = field(init=False)  # contiguous -> original

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise DataError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
            )
        if feats.size and not np.all(np.isfinite(feats)):
            raise DataError("features contain non-finite values")
        if feats.shape[0] == 0:
            raise DataError("dataset is empty")
        if feats.shape[1] == 0:
            raise DataError("dataset has no feature columns")
        if np.any(labels < 0):
            raise DataError("labels must be non-negative integers")
        uniq, labels = np.unique(labels, return_inverse=True)
        object.__setattr__(self, "label_map",
                           {new: int(orig) for new, orig in enumerate(uniq)})
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64))
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class EventPartition:
    """Disjoint, exhaustive index lists, one per class event."""

    events: tuple

    def __post_init__(self) -> None:
        total = sum(len(e) for e in self.events)
        joined = np.concatenate([np.asarray(e) for e in self.events])
        if len(np.unique(joined)) != total:
            raise DataError("partition events overlap")
        if not np.array_equal(np.sort(joined), np.arange(total)):
            raise DataError("partition events do not cover the index set")

    @property
    def n_events(self) -> int:
        return len(self.events)


def partition_by_label(ds: LabeledDataset) -> EventPartition:
    """One event per distinct label."""
    k = ds.n_classes
    events = tuple(np.flatnonzero(ds.labels == c) for c in range(k))
    return EventPartition(events=events)


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian mixture: per class a mean, a covariance spectrum, a rotation.

    Class k is sampled from N(mean_k, Q_k diag(spectrum_k) Q_k^T) with Q_k a
    seeded orthogonal matrix.  Means and spectra must be finite, spectra
    non-negative and non-increasing; samples_per_class gives one count per
    class.
    """

    means: np.ndarray  # (K, d)
    spectra: np.ndarray  # (K, d)
    samples_per_class: tuple

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        spectra = np.atleast_2d(np.asarray(self.spectra, dtype=np.float64))
        if means.shape != spectra.shape:
            raise DomainError("means and spectra must have matching shapes")
        if means.shape[0] < 1:
            raise DomainError("need at least one class")
        if means.shape[1] < 1:
            raise DomainError("need at least one feature dimension")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(spectra))):
            raise DomainError("means and spectra must be finite")
        if np.any(spectra < 0):
            raise DomainError("spectra must be non-negative")
        if np.any(np.diff(spectra, axis=1) > 1e-12):
            raise DomainError("spectra must be non-increasing")
        counts = tuple(int(c) for c in self.samples_per_class)
        if len(counts) != means.shape[0] or any(c < 1 for c in counts):
            raise DomainError("samples_per_class must give a positive count per class")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "samples_per_class", counts)

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def philox(seed: int, tag: int) -> np.random.Generator:
    """The Philox stream keyed by (seed mod 2^64, tag)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rotation(seed: int, class_index: int, d: int) -> np.ndarray:
    rng = philox(seed, (1 << 32) | (class_index << 8) | class_index)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def synth_gaussian_mixture(spec: SyntheticSpec, seed: int) -> LabeledDataset:
    """Sample the mixture; deterministic given the seed.

    Each class draws from its own counter-based stream, so generating
    classes in parallel equals generating them serially.
    """
    blocks, labels = [], []
    for k in range(spec.n_classes):
        n_k = spec.samples_per_class[k]
        rng = philox(seed, k)
        q = _rotation(seed, k, spec.dim)
        z = rng.standard_normal((n_k, spec.dim))
        x = (z * np.sqrt(spec.spectra[k])) @ q.T + spec.means[k]
        blocks.append(x)
        labels.append(np.full(n_k, k, dtype=np.int64))
    return LabeledDataset(
        features=np.vstack(blocks), labels=np.concatenate(labels)
    )


def load_dataset(path) -> LabeledDataset:
    """Read a dataset; a .fvec1 suffix means fvec1, anything else CSV."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    return _load_fvec1(path) if path.suffix == ".fvec1" else _load_csv(path)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write a dataset; a .fvec1 suffix means fvec1, anything else CSV."""
    path = Path(path)
    if path.suffix == ".fvec1":
        with open(path, "wb") as fh:
            fh.write(_FVEC1_MAGIC)
            fh.write(struct.pack("<QQ", ds.count, ds.dim))
            rec = np.empty(
                ds.count, dtype=np.dtype([("label", "<u4"), ("feat", "<f4", (ds.dim,))])
            )
            rec["label"] = ds.labels
            rec["feat"] = ds.features.astype(np.float32)
            fh.write(rec.tobytes())
    else:
        with open(path, "w") as fh:
            for label, row in zip(ds.labels, ds.features):
                fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path, width: int | None = None) -> np.ndarray:
    """Comma-separated reals as a 2-D float64 array, one row per data line;
    DataError for a bad value or ragged row (loadtxt's message), no data
    rows, or a column count other than width."""
    with warnings.catch_warnings():
        # reported below as a DataError instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            arr = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    if arr.shape[0] == 0:
        raise DataError(f"{path} contains no data rows")
    if width is not None and arr.shape[1] != width:
        raise DataError(f"{path}: expected {width} columns, got {arr.shape[1]}")
    return arr


def _integer_column(values: np.ndarray, what: str) -> np.ndarray:
    """values as int64; DataError unless every one is a whole number."""
    if not np.all((values == np.round(values)) & (np.abs(values) < 2.0**63)):
        raise DataError(f"{what} must be integers")
    return values.astype(np.int64)


def _load_csv(path: Path) -> LabeledDataset:
    arr = read_csv(path)
    return LabeledDataset(features=np.ascontiguousarray(arr[:, 1:]),
                          labels=_integer_column(arr[:, 0], "labels"))


def _load_fvec1(path: Path) -> LabeledDataset:
    raw = path.read_bytes()
    if len(raw) < 21 or raw[:5] != _FVEC1_MAGIC:
        raise DataError(f"{path} is not an fvec1 file")
    n, d = struct.unpack("<QQ", raw[5:21])
    # Python ints, so a d that numpy cannot take as a record shape is a size mismatch
    expected = 21 + n * (4 + 4 * d)
    if len(raw) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for N={n}, d={d}, got {len(raw)}"
        )
    if n == 0:  # N = 0 passes the size check with a d the record dtype cannot take
        raise DataError("dataset is empty")
    rec = np.frombuffer(raw[21:], dtype=[("label", "<u4"), ("feat", "<f4", (d,))])
    feats = rec["feat"].astype(np.float64)
    if feats.size and not np.all(np.isfinite(feats)):
        raise DataError(f"{path} contains non-finite features")
    return LabeledDataset(features=feats, labels=rec["label"].astype(np.int64))
