import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import (
    DataError,
    DomainError,
    LabeledDataset,
    NoiseSchedule,
    SeedPolicy,
    sweep,
    weight_law,
)
from vpmerge import forward, probe
from vpmerge.data import philox
from vpmerge.forward import TrajectorySweep
from vpmerge.probe import (GD_ITERATIONS, GD_STEP, TRUNCATION_FLOOR, _sigmoid,
                           probe_through_time, train_linear_probe)
from vpmerge.schedule import j_values

from conftest import traced_peak


def masked_sigmoid(z):
    """The two-branch logistic function, each branch on its own mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def stacked_fit_oracle(feats_a, feats_b, split=0.8, seed=0):
    """The probe fit on stacked copies: vstack, (x - mu) / sd, then hstack a
    ones column. Its descent calls probe._sigmoid, so a test can watch it."""
    x = np.vstack([feats_a, feats_b])
    y = np.concatenate([np.zeros(len(feats_a)), np.ones(len(feats_b))])
    order = philox(seed, 0xB0BE).permutation(len(x))
    n_train = int(round(split * len(x)))
    tr, te = order[:n_train], order[n_train:]
    mu = x[tr].mean(axis=0)
    sd = x[tr].std(axis=0)
    sd[sd == 0.0] = 1.0
    xs = (x - mu) / sd
    xa = np.hstack([xs, np.ones((len(xs), 1))])
    x_tr, y_tr = xa[tr], y[tr]
    w = np.zeros(xa.shape[1])
    for _ in range(GD_ITERATIONS):
        p = probe._sigmoid(x_tr @ w)
        w -= GD_STEP * (x_tr.T @ (p - y_tr)) / len(tr)
    pred = (xa[te] @ w) > 0.0
    return float(np.mean(pred == y[te]))


def fit_two(feats_a, feats_b, split=0.8, seed=0):
    """train_linear_probe on two samples, its design built as
    probe_through_time builds it: the stacked rows in split order."""
    order = philox(seed, 0xB0BE).permutation(len(feats_a) + len(feats_b))
    design = np.empty((len(order), np.shape(feats_a)[1] + 1))
    design[:, :-1] = np.concatenate([feats_a, feats_b])[order]
    return train_linear_probe(design, order >= len(feats_a), int(round(split * len(order))))


def watched(call):
    """call()'s result and a digest of every logit vector its descents made."""
    digest = hashlib.sha256()

    def sigmoid(z):
        digest.update(z.tobytes())
        return _sigmoid(z)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probe, "_sigmoid", sigmoid)
        result = call()
    return result, digest.hexdigest()


class StepFailure(Exception):
    """Raised by a sweep made to fail at chosen steps."""


class TestSigmoid:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 30.0, 800.0]))
    def test_matches_masked_form_bitwise(self, seed, scale):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-scale, scale, size=257)
        z[:4] = [0.0, -0.0, scale, -scale]
        assert np.array_equal(_sigmoid(z).view(np.uint64), masked_sigmoid(z).view(np.uint64))

    def test_signed_zero_and_saturation(self):
        z = np.array([0.0, -0.0, 800.0, -800.0])
        assert _sigmoid(z).tolist() == [0.5, 0.5, 1.0, 0.0]


class TestTrainLinearProbe:
    def test_separable_clusters(self):
        a = np.full((200, 1), -10.0) + np.random.default_rng(0).normal(0, 0.1, (200, 1))
        b = np.full((200, 1), 10.0) + np.random.default_rng(1).normal(0, 0.1, (200, 1))
        assert fit_two(a, b, seed=2) == 1.0

    def test_chance_level_on_identical_law(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5000, 4)), rng.standard_normal((5000, 4))
        acc = fit_two(a, b, seed=4)
        assert abs(acc - 0.5) < 0.03

    def test_bayes_rate_on_shifted_gaussians(self):
        rng = np.random.default_rng(5)
        a = rng.normal(-1.0, 1.0, size=(20000, 1))
        b = rng.normal(+1.0, 1.0, size=(20000, 1))
        acc = fit_two(a, b, seed=6)
        bayes = 0.5 * (1 + math.erf(1 / math.sqrt(2)))  # Phi(1)
        assert abs(acc - bayes) < 0.03

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            fit_two(np.zeros((5, 2)), np.zeros((50, 2)))

    def test_bad_split(self):
        with pytest.raises(DomainError):
            fit_two(np.zeros((50, 2)), np.ones((50, 2)), split=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((500, 3)), rng.standard_normal((500, 3)) + 0.5
        assert fit_two(a, b, seed=8) == fit_two(a, b, seed=8)

    def test_design_checks(self):
        # the design is standardized in place, so it must be a 2-D float64
        # array with one class label per row
        y = np.repeat([0.0, 1.0], 25)
        with pytest.raises(DataError, match="2-D float64"):
            train_linear_probe(np.zeros(50), y, 40)
        with pytest.raises(DataError, match="2-D float64"):
            train_linear_probe(np.zeros((50, 3), dtype=np.float32), y, 40)
        with pytest.raises(DataError, match="one class label per row"):
            train_linear_probe(np.zeros((50, 3)), y[:49], 40)

    @pytest.mark.parametrize("d", [1, 3])
    def test_overflowed_scale_raises_under_errstate(self, d):
        rng = np.random.default_rng(d)
        a, b = rng.standard_normal((20, d)) * 1e200, rng.standard_normal((20, d)) * 1e200
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            fit_two(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_stacked_fit_bitwise(self, data):
        n_a, n_b = data.draw(st.integers(10, 120)), data.draw(st.integers(10, 120))
        d = data.draw(st.integers(1, 300))
        n = n_a + n_b
        n_train = data.draw(st.integers(1, n - 1))  # hypothesis tries the ends first
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0, size=d)
        a = rng.standard_normal((n_a, d)) * scale
        b = rng.standard_normal((n_b, d)) * scale + rng.uniform(-1.0, 1.0, size=d)
        if data.draw(st.booleans()):  # a constant column: sd == 0 is taken as 1
            col = data.draw(st.integers(0, d - 1))
            a[:, col] = b[:, col] = rng.standard_normal()
        split = n_train / n
        ours = watched(lambda: fit_two(a, b, split, seed))
        assert ours == watched(lambda: stacked_fit_oracle(a, b, split, seed))


class TestProbeThroughTime:
    def make_sweep(self, ddpm, seed=9, n=3000, sep=4.0):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((2 * n, 2))
        feats[n:, 0] += sep
        labels = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
        ds = LabeledDataset(features=feats, labels=labels)
        return sweep(ds, ddpm, [0, 200, 400], SeedPolicy(base_seed=seed)), ds

    def test_single_step_reduction(self, ddpm):
        sw, ds = self.make_sweep(ddpm)
        sw0 = sweep(ds, ddpm, [0], SeedPolicy(base_seed=9))
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        accs = probe_through_time(sw0, a, b, merge_step=1000, seed=10)
        direct = fit_two(ds.features[a], ds.features[b], seed=10)
        assert accs == [direct]

    def test_bayes_accuracy_at_zero(self, ddpm):
        sw, ds = self.make_sweep(ddpm, sep=2.0)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        accs = probe_through_time(sw, a, b, merge_step=1000, seed=11)
        bayes = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert abs(accs[0] - bayes) < 0.02

    def test_merge_step_zero_all_undefined(self, ddpm):
        sw, ds = self.make_sweep(ddpm)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        accs = probe_through_time(sw, a, b, merge_step=0, seed=12)
        assert len(accs) == 3 and all(math.isnan(v) for v in accs)

    def test_undefined_beyond_merge_step(self, ddpm):
        sw, ds = self.make_sweep(ddpm)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        accs = probe_through_time(sw, a, b, merge_step=300, seed=13)
        assert [math.isnan(v) for v in accs] == [False, False, True]

    def test_never_below_chance_when_defined(self, ddpm):
        sw, ds = self.make_sweep(ddpm, n=5000, sep=1.0)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        accs = probe_through_time(sw, a, b, merge_step=1000, seed=14)
        assert all(acc >= 0.45 for acc in accs)

    def test_shuffled_events_match_stacked_fit_bitwise(self, ddpm, monkeypatch):
        # events in any index order: each step fits the snapshot's rows of a
        # stacked over those of b, permuted by the split
        monkeypatch.setattr(forward, "_usable_cores", lambda: 1)  # the logits in step order
        sw, ds = self.make_sweep(ddpm, n=300)
        rng = np.random.default_rng(17)
        a = rng.permutation(np.flatnonzero(ds.labels == 0))
        b = rng.permutation(np.flatnonzero(ds.labels == 1))
        ours = watched(lambda: probe_through_time(sw, a, b, merge_step=1000, split=0.7, seed=18))
        oracle = watched(lambda: [stacked_fit_oracle(sw.snapshot(t)[a], sw.snapshot(t)[b],
                                                     split=0.7, seed=18) for t in sw.steps])
        assert ours == oracle

    @staticmethod
    def three_class_sweep(ddpm):
        """Three classes of 3000 x 24, so a snapshot outweighs the two probed."""
        n, d = 9000, 24
        rng = np.random.default_rng(40)
        labels = np.arange(n) % 3
        ds = LabeledDataset(features=rng.standard_normal((n, d)) + 0.3 * labels[:, None],
                            labels=labels)
        sw = sweep(ds, ddpm, [0, 100, 200, 300], SeedPolicy(base_seed=41))
        return sw, np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)

    def test_fit_holds_no_snapshot(self, ddpm, monkeypatch):
        # the fit once held a snapshot beside stacked, standardized and
        # augmented copies, about 6.5 design matrices here; one worker now
        # holds one design matrix and a few blocks of rows, about 1.8
        monkeypatch.setattr(forward, "_usable_cores", lambda: 1)
        sw, a, b = self.three_class_sweep(ddpm)
        probe_through_time(sw, a, b, merge_step=0)  # the first call imports numpy's set routines
        accs, peak = traced_peak(probe_through_time, sw, a, b, merge_step=1000, seed=42)
        assert len(accs) == 4 and not any(math.isnan(v) for v in accs)
        assert peak < 4 * (len(a) + len(b)) * (sw.dataset.features.shape[1] + 1) * 8

    def test_fit_holds_no_snapshot_per_worker(self, ddpm, monkeypatch):
        # two workers hold two design matrices and their blocks, about 3.1
        monkeypatch.setattr(forward, "_usable_cores", lambda: 2)
        sw, a, b = self.three_class_sweep(ddpm)
        probe_through_time(sw, a, b, merge_step=0)
        accs, peak = traced_peak(probe_through_time, sw, a, b, merge_step=1000, seed=42)
        assert len(accs) == 4 and not any(math.isnan(v) for v in accs)
        assert peak < 8 * (len(a) + len(b)) * (sw.dataset.features.shape[1] + 1) * 8

    def test_same_accuracies_for_any_worker_count(self, ddpm, monkeypatch):
        # 300 + 300 rows of d = 24: the training design matrix has
        # 480 x 25 >= 9216 entries, the size from which OpenBLAS may split
        # the descent's products over its own threads. Thread switches every
        # microsecond and more workers than cores: two fits in flight on one
        # design matrix would change an accuracy
        feats = np.random.default_rng(15).standard_normal((600, 24))
        feats[300:, 0] += 1.0
        labels = np.repeat([0, 1], 300)
        sw = sweep(LabeledDataset(features=feats, labels=labels), ddpm, [0, 100, 200, 300],
                   SeedPolicy(base_seed=9))
        a, b = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
        serial = [fit_two(sw.snapshot(t)[a], sw.snapshot(t)[b], seed=16)
                  for t in sw.steps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for merge_step in (0, 150, 1000):  # before, inside and after the grid
                defined = [t < merge_step for t in sw.steps]
                want = [acc if ok else None for acc, ok in zip(serial, defined)]
                for workers in (1, 2, 3):
                    monkeypatch.setattr(forward, "_usable_cores", lambda: workers)
                    accs = probe_through_time(sw, a, b, merge_step=merge_step, seed=16)
                    assert [None if math.isnan(v) else v for v in accs] == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_failing_step_raises_and_pool_stops(self, ddpm, monkeypatch, workers):
        monkeypatch.setattr(forward, "_usable_cores", lambda: workers)
        sw, ds = self.make_sweep(ddpm, n=200)
        sw = sweep(ds, ddpm, [0, 100, 200, 300, 400, 500], sw.seeds)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        drawn = []
        snapshot = TrajectorySweep.snapshot

        def failing(self, t, rows=None, out=None):
            drawn.append(t)
            if t in (100, 200):  # the second and third fitted steps
                raise StepFailure(f"step {t}")
            return snapshot(self, t, rows, out=out)

        monkeypatch.setattr(TrajectorySweep, "snapshot", failing)
        with pytest.raises(StepFailure, match="^step 100$"):
            probe_through_time(sw, a, b, merge_step=1000)
        # no step is drawn past the failing one's window, and no worker is left
        assert max(drawn) <= sw.steps[workers]
        assert not [th for th in threading.enumerate() if th.name.startswith("ThreadPool")]

    def test_one_fit_per_fitted_step(self, ddpm, monkeypatch):
        # each fitted step calls train_linear_probe through the module, where
        # a tracer can count it
        monkeypatch.setattr(forward, "_usable_cores", lambda: 2)
        sw, ds = self.make_sweep(ddpm, n=200)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        calls = []
        fit = probe.train_linear_probe
        monkeypatch.setattr(probe, "train_linear_probe",
                            lambda *args, **kwargs: calls.append(1) or fit(*args, **kwargs))
        for merge_step, fits in ((0, 0), (1, 1), (300, 2), (1000, 3)):
            calls.clear()
            probe_through_time(sw, a, b, merge_step=merge_step)
            assert len(calls) == fits

    @pytest.mark.parametrize("split", [1.5, -1.0, float("nan"), 1.0])
    def test_split_checked_with_no_step_fitted(self, ddpm, split):
        sw, ds = self.make_sweep(ddpm, n=200)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        with pytest.raises(DomainError, match="split"):
            probe_through_time(sw, a, b, merge_step=0, split=split)

    def test_merge_step_beyond_horizon(self, ddpm):
        sw, ds = self.make_sweep(ddpm)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        with pytest.raises(DomainError):
            probe_through_time(sw, a, b, merge_step=2000)

    def test_negative_merge_step_and_overlap_rejected(self, ddpm):
        sw, ds = self.make_sweep(ddpm)
        a, b = np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1)
        with pytest.raises(DomainError, match="outside"):
            probe_through_time(sw, a, b, merge_step=-5)
        with pytest.raises(DomainError, match="disjoint"):
            probe_through_time(sw, a, a, merge_step=500)


class TestWeightLaw:
    def test_uniform(self, ddpm):
        law = weight_law("uniform", ddpm, 2, 4)
        assert np.allclose(law, 1 / 3) and law.shape == (3,)

    def test_inverse_snr_normalization(self):
        # schedule tuned so SNR(1) = 3 and SNR(2) = 1
        sched = NoiseSchedule(beta0=0.22876, betaT=0.46438, horizon_T=2)
        law = weight_law("inverse_snr", sched, 1, 2)
        assert np.allclose(law, [0.25, 0.75], atol=2e-3)

    def test_inverse_snr_zero_weight_at_origin(self, ddpm):
        law = weight_law("inverse_snr", ddpm, 0, 10)
        assert law[0] == 0.0
        assert law[1:].sum() == pytest.approx(1.0)

    def test_truncated_floor(self, ddpm):
        law = weight_law("truncated_inverse_snr", ddpm, 0, 100)
        steps = np.arange(0, 101)
        assert np.all(law[steps < 20] == 0.0)
        assert law[steps >= 20].sum() == pytest.approx(1.0)
        # a window wholly below the floor has no weight to normalize
        with pytest.raises(DomainError, match="empty support"):
            weight_law("truncated_inverse_snr", NoiseSchedule(), 0, 10)

    def test_weights_proportional_to_inverse_snr(self, ddpm):
        law = weight_law("inverse_snr", ddpm, 5, 9)
        j2 = j_values(ddpm, np.arange(5, 10)) ** 2
        ratios = law * j2 / (1.0 - j2)
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_empty_window(self, ddpm):
        with pytest.raises(DomainError):
            weight_law("uniform", ddpm, 5, 4)

    @pytest.mark.parametrize("start,stop", [(-1, 5), (5, 1001)])
    def test_window_outside_horizon(self, ddpm, start, stop):
        with pytest.raises(DomainError, match="outside"):
            weight_law("uniform", ddpm, start, stop)

    def test_unknown_kind(self, ddpm):
        with pytest.raises(DomainError):
            weight_law("cosine", ddpm, 0, 10)

    def test_infinite_weight_rejected(self):
        # int_0^T beta = 1400: J(T)^2 = exp(-1400) underflows to 0, so 1/SNR(T) = inf
        sched = NoiseSchedule(beta0=0.5, betaT=0.9, horizon_T=2000)
        with pytest.raises(DomainError, match="infinite"):
            weight_law("inverse_snr", sched, 0, 2000)

    @settings(max_examples=25, deadline=None)
    @given(
        start=st.integers(0, 900),
        width=st.integers(0, 99),
        kind=st.sampled_from(["uniform", "inverse_snr", "truncated_inverse_snr"]),
    )
    def test_sum_and_support_properties(self, start, width, kind):
        ddpm = NoiseSchedule()
        stop = start + width
        if kind != "uniform" and stop < 21:
            stop = 21  # keep some support above the floor / origin
        law = weight_law(kind, ddpm, start, stop)
        assert law.shape == (stop - start + 1,)
        assert abs(law.sum() - 1.0) < 1e-12
        assert np.all(law >= 0.0)
        if kind == "truncated_inverse_snr":
            steps = np.arange(start, stop + 1)
            assert np.all(law[steps < TRUNCATION_FLOOR] == 0.0)
