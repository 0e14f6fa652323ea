import math

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
from vpmerge.probe import TRUNCATION_FLOOR, _sigmoid, probe_through_time, train_linear_probe
from vpmerge.schedule import j_values


def masked_sigmoid(z):
    """The two-branch logistic function, each branch on its own mask."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        assert train_linear_probe(a, b, seed=2) == 1.0

    def test_chance_level_on_identical_law(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5000, 4)), rng.standard_normal((5000, 4))
        acc = train_linear_probe(a, b, seed=4)
        assert abs(acc - 0.5) < 0.03

    def test_bayes_rate_on_shifted_gaussians(self):
        rng = np.random.default_rng(5)
        a = rng.normal(-1.0, 1.0, size=(20000, 1))
        b = rng.normal(+1.0, 1.0, size=(20000, 1))
        acc = train_linear_probe(a, b, seed=6)
        bayes = 0.5 * (1 + math.erf(1 / math.sqrt(2)))  # Phi(1)
        assert abs(acc - bayes) < 0.03

    def test_small_class_rejected(self):
        with pytest.raises(DataError):
            train_linear_probe(np.zeros((5, 2)), np.zeros((50, 2)))

    def test_bad_split(self):
        with pytest.raises(DomainError):
            train_linear_probe(np.zeros((50, 2)), np.ones((50, 2)), split=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((500, 3)), rng.standard_normal((500, 3)) + 0.5
        assert train_linear_probe(a, b, seed=8) == train_linear_probe(a, b, seed=8)


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
        direct = train_linear_probe(ds.features[a], ds.features[b], seed=10)
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
        ddpm = NoiseSchedule.ddpm_default()
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
