import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import (
    DataError,
    DomainError,
    LabeledDataset,
    SyntheticSpec,
    conditional_fluctuation,
    detect_series,
    load_dataset,
    pairwise_merge_times,
    partition_by_label,
    phase_spectrum,
    sweep,
    synth_gaussian_mixture,
)
from vpmerge.convergence import _projections, empirical_cf_distance
from vpmerge.data import save_dataset
from vpmerge.forward import SeedPolicy
from vpmerge.probe import probe_through_time

from conftest import traced_peak
from test_probe import fit_two


class TestCsv:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0.5,-0.5\n0,1.0,2.0\n")
        ds = load_dataset(p)
        assert ds.count == 2 and ds.dim == 2
        assert sorted(ds.labels.tolist()) == [0, 1]

    def test_header_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# label,x0,x1\n0,1.0,2.0\n")
        assert load_dataset(p).count == 1

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1.0,2.0\n1,1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_dataset(p)

    def test_comment_only_file_raises_without_warning(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# label,x0,x1\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                load_dataset(p)

    def test_trailing_comment_and_integral_float_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,0.5,-0.5  # first\n0,1.0,2.0\n")
        ds = load_dataset(p)
        assert ds.labels.tolist() == [1, 0]
        assert ds.features.tolist() == [[0.5, -0.5], [1.0, 2.0]]

    @pytest.mark.parametrize("label", ["1.5", "nan", "inf", "1e300"])
    def test_non_integral_label_rejected(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"0,1.0\n{label},2.0\n")
        with pytest.raises(DataError, match="labels must be integers"):
            load_dataset(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,nan,2.0\n")
        with pytest.raises(DataError):
            load_dataset(p)

    def test_features_view_the_parsed_array(self, tmp_path):
        # the features are a read-only view of the parsed N x (d + 1) array; a
        # copy of them once made the peak 2.1 arrays. loadtxt's own growth
        # slack stays near 1.15 arrays at this shape
        n, d = 900, 300
        rng = np.random.default_rng(43)
        ds = LabeledDataset(features=rng.standard_normal((n, d)), labels=np.arange(n) % 3)
        p = tmp_path / "wide.csv"
        save_dataset(ds, p)
        load_dataset(p)  # the first parse in a process imports what loadtxt needs
        loaded, peak = traced_peak(load_dataset, p)
        assert np.array_equal(loaded.features, ds.features)
        assert not loaded.features.flags.writeable
        assert peak < 1.3 * n * (d + 1) * 8


class TestFvec1:
    def test_roundtrip_bit_identical(self, tmp_path):
        # float32-representable features survive save -> load bit-exactly
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((17, 5)).astype(np.float32).astype(np.float64)
        ds = LabeledDataset(features=feats, labels=rng.integers(0, 3, 17))
        p = tmp_path / "d.fvec1"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_save_load_save_is_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = LabeledDataset(
            features=rng.standard_normal((9, 3)), labels=rng.integers(0, 2, 9)
        )
        p1, p2 = tmp_path / "a.fvec1", tmp_path / "b.fvec1"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "d.fvec1"
        p.write_bytes(b"NOPE!" + b"\0" * 32)
        with pytest.raises(DataError):
            load_dataset(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "d.fvec1"
        import struct

        p.write_bytes(b"FVEC1" + struct.pack("<QQ", 4, 3) + b"\0" * 10)
        with pytest.raises(DataError):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "absent.fvec1")


class TestPartition:
    def test_basic(self):
        ds = LabeledDataset(features=np.zeros((3, 2)), labels=[0, 0, 1])
        part = partition_by_label(ds)
        assert [e.tolist() for e in part] == [[0, 1], [2]]

    def test_single_label(self):
        ds = LabeledDataset(features=np.zeros((4, 2)), labels=[0, 0, 0, 0])
        part = partition_by_label(ds)
        assert len(part) == 1 and part[0].tolist() == [0, 1, 2, 3]

    def test_non_contiguous_remap(self):
        ds = LabeledDataset(features=np.zeros((4, 2)), labels=[2, 2, 2, 5])
        assert ds.labels.tolist() == [0, 0, 0, 1]
        assert ds.label_map == {0: 2, 1: 5}
        part = partition_by_label(ds)
        assert [e.tolist() for e in part] == [[0, 1, 2], [3]]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(1, 40), st.sampled_from([256, 257, 600])),
           st.integers(0, 400), st.integers(0, 2**32 - 1))
    def test_matches_one_pass_per_label(self, k, extra, seed):
        # k sparse raw labels, each on one row and on extra more drawn rows,
        # shuffled; the oracle is one flatnonzero per class
        rng = np.random.default_rng(seed)
        raw = rng.choice(2**40, size=k, replace=False)
        labels = rng.permutation(raw[np.concatenate([np.arange(k), rng.integers(0, k, extra)])])
        ds = LabeledDataset(features=np.zeros((len(labels), 1)), labels=labels)
        part = partition_by_label(ds)
        oracle = [np.flatnonzero(ds.labels == c) for c in range(ds.n_classes)]
        assert len(part) == len(oracle)
        for event, want in zip(part, oracle):
            assert event.dtype == want.dtype and np.array_equal(event, want)

    def test_label_map_is_computed(self):
        ds = LabeledDataset(features=np.zeros((3, 2)), labels=[1, 0, 1])
        assert ds.label_map == {0: 0, 1: 1}
        with pytest.raises(TypeError):
            LabeledDataset(features=np.zeros((3, 2)), labels=[1, 0, 1], label_map={0: 7, 1: 9})


    def test_dataset_validation(self):
        with pytest.raises(DataError, match="2-D"):
            LabeledDataset(features=np.zeros(3), labels=[0, 0, 1])
        with pytest.raises(DataError, match="does not match"):
            LabeledDataset(features=np.zeros((3, 2)), labels=[0, 1])
        with pytest.raises(DataError, match="dataset is empty"):
            LabeledDataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))


# events that are not 1-D integer index arrays into the 100 rows of
# TestRows' dataset; cast to integers, the mask and the floats would name
# other rows and the negative index would wrap
BAD_EVENTS = {
    "mask": lambda x: x[:, 0] > 0,
    "float": lambda x: np.array([0.0, 1.0, 2.5]),
    "negative": lambda x: [-1],
    "past the end": lambda x: [len(x)],
    "2-D": lambda x: [[0, 1], [2, 3]],
}


class TestRows:
    def test_rows_is_the_event_when_it_is_one(self):
        ds = LabeledDataset(features=np.zeros((4, 2)), labels=[0, 0, 1, 1])
        event = np.array([3, 1, 1], dtype=np.intp)
        assert ds.rows(event) is event
        for other in ([3, 1], (3, 1), np.array([3, 1], dtype=np.uint8), range(3, 0, -2)):
            got = ds.rows(other)
            assert got.dtype == np.intp and got.tolist() == [3, 1]
        # an empty event passes through, for its reader to refuse
        assert ds.rows([]).dtype == np.intp and ds.rows([]).shape == (0,)

    @pytest.mark.parametrize("kind", list(BAD_EVENTS))
    def test_bad_event_is_refused_at_every_entry_point(self, kind, ddpm):
        rng = np.random.default_rng(25)
        ds = LabeledDataset(features=rng.standard_normal((100, 3)), labels=np.repeat([0, 1], 50))
        sw = sweep(ds, ddpm, [0, 500, 1000], SeedPolicy(base_seed=25))
        good, bad = partition_by_label(ds)[0], BAD_EVENTS[kind](ds.features)
        entry_points = {
            "snapshot": lambda: sw.snapshot(500, bad),
            "conditional_fluctuation at 0": lambda: conditional_fluctuation(sw, bad, 0),
            "conditional_fluctuation at 500": lambda: conditional_fluctuation(sw, bad, 500),
            "pairwise_merge_times": lambda: pairwise_merge_times(sw, [good, bad], 0.05),
            "pairwise_merge_times empirical": lambda: pairwise_merge_times(
                sw, [good, bad], 0.05, mode="empirical"),
            "phase_spectrum": lambda: phase_spectrum(sw, [good, bad], [0.05]),
            "detect_series": lambda: detect_series(sw, [good, bad], 0.05),
            "detect_series, first event": lambda: detect_series(sw, [bad, good], 0.05),
            "probe_through_time": lambda: probe_through_time(sw, good, bad, 1000),
        }
        for name, call in entry_points.items():
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == "rows must be a 1-D integer index array into [0, 100)", name


class TestSynthetic:
    def test_identity_covariance_concentrates(self):
        spec = SyntheticSpec(
            means=np.zeros((1, 8)), spectra=np.ones((1, 8)), samples_per_class=(50000,)
        )
        ds = synth_gaussian_mixture(spec, seed=3)
        emp = np.cov(ds.features, rowvar=False)
        assert np.linalg.norm(emp - np.eye(8), ord=2) < 0.03

    def test_leading_eigenvalues(self):
        spec = SyntheticSpec(
            means=np.zeros((2, 8)),
            spectra=np.vstack([np.r_[10, np.ones(7)], np.r_[4, np.ones(7)]]),
            samples_per_class=(50000, 50000),
        )
        ds = synth_gaussian_mixture(spec, seed=4)
        for k, lam in ((0, 10.0), (1, 4.0)):
            rows = ds.features[ds.labels == k]
            top = np.linalg.eigvalsh(np.cov(rows, rowvar=False))[-1]
            assert abs(top - lam) / lam < 0.03

    def test_deterministic(self):
        spec = SyntheticSpec(
            means=np.zeros((2, 4)), spectra=np.ones((2, 4)), samples_per_class=(100, 50)
        )
        a = synth_gaussian_mixture(spec, seed=9)
        b = synth_gaussian_mixture(spec, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SyntheticSpec(means=np.zeros((1, 3)), spectra=-np.ones((1, 3)),
                          samples_per_class=(10,))
        with pytest.raises(DomainError):
            SyntheticSpec(means=np.zeros((1, 3)), spectra=np.array([[1.0, 2.0, 3.0]]),
                          samples_per_class=(10,))
        for bad in (np.inf, np.nan):
            with pytest.raises(DomainError, match="finite"):
                SyntheticSpec(means=np.zeros((2, 2)), spectra=np.array([[bad, bad], [1.0, 1.0]]),
                              samples_per_class=(10, 10))
            with pytest.raises(DomainError, match="finite"):
                SyntheticSpec(means=np.array([[bad, 0.0], [0.0, 0.0]]), spectra=np.ones((2, 2)),
                              samples_per_class=(10, 10))
        with pytest.raises(DomainError, match="count per class"):
            SyntheticSpec(means=np.zeros((2, 3)), spectra=np.ones((2, 3)),
                          samples_per_class=(10,))
        with pytest.raises(DomainError, match="matching shapes"):
            SyntheticSpec(means=np.zeros((2, 3)), spectra=np.ones((2, 2)),
                          samples_per_class=(10, 10))
        with pytest.raises(DomainError, match="at least one class"):
            SyntheticSpec(means=np.zeros((0, 3)), spectra=np.ones((0, 3)),
                          samples_per_class=())


def stream(seed, tag):
    """The Philox generator keyed by (seed mod 2^64, tag), built here; a key
    given as a list would go through float64 above 2^63."""
    key = np.array([seed & (2**64 - 1), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 5])
def test_every_random_stream_keeps_its_key(seed):
    """The forward noise (tag = step), synthetic rows (tag k) and rotations
    (tag (1 << 32) | (k << 8) | k), convergence projections (0xC0DE), CF
    frequency probes (0xF0F0) and the probe's split (0xB0BE)."""
    n, d = 50, 3
    assert np.array_equal(SeedPolicy(seed).stream(370).standard_normal((n, d)),
                          stream(seed, 370).standard_normal((n, d)))

    spec = SyntheticSpec(means=np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 0.0]]),
                         spectra=np.array([[4.0, 2.0, 1.0], [1.0, 1.0, 0.5]]),
                         samples_per_class=(20, 30))
    ds = synth_gaussian_mixture(spec, seed)
    for k in range(2):
        q, r = np.linalg.qr(stream(seed, (1 << 32) | (k << 8) | k).standard_normal((d, d)))
        q = q * np.sign(np.diag(r))
        z = stream(seed, k).standard_normal((spec.samples_per_class[k], d))
        want = (z * np.sqrt(spec.spectra[k])) @ q.T + spec.means[k]
        assert np.array_equal(ds.features[ds.labels == k], want)

    proj = stream(seed, 0xC0DE).standard_normal((d, 5))
    assert np.array_equal(_projections(5, seed, d), proj / np.linalg.norm(proj, axis=0))

    xa, xb = ds.features[:20], ds.features[20:]
    freqs = (1.0 / np.sqrt(d)) * stream(seed, 0xF0F0).standard_normal((8, d))
    gap = np.exp(1j * xa @ freqs.T).mean(axis=0) - np.exp(1j * xb @ freqs.T).mean(axis=0)
    assert empirical_cf_distance(xa, xb, freq_count=8, seed=seed)["delta"] == float(
        np.sqrt(np.mean(np.abs(gap) ** 2)))

    # constant features: the probe predicts class a (the train majority, or a
    # tie at w = 0), so its accuracy is the share of class a in the test rows
    order = stream(seed, 0xB0BE).permutation(500)
    labels = np.r_[np.zeros(300), np.ones(200)]
    share = float(np.mean(labels[order[400:]] == 0))
    assert fit_two(np.zeros((300, 2)), np.zeros((200, 2)), seed=seed) == share
