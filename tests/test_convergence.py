import math
import sys

import numpy as np
import pytest
from scipy import stats

from vpmerge import (
    DataError,
    DegenerateError,
    DomainError,
    LabeledDataset,
    SeedPolicy,
    convergence_step,
    empirical_cf_distance,
    moment_tv_check,
    predict_mixing_step,
    sweep,
    tv_distance_1d,
)
from vpmerge import convergence, forward
from vpmerge.convergence import dagostino_pearson
from vpmerge.forward import TrajectorySweep

from conftest import traced_peak


class StepFailure(Exception):
    """Raised by a test's snapshot at a chosen step."""


def gaussian_grid(mu, sigma=1.0, lo=-10.0, hi=10.0, points=100_001):
    x = np.linspace(lo, hi, points)
    p = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return x, p


def gaussian_tv_oracle(delta):
    """d_TV(N(0,1), N(delta,1)) = 2 Phi(delta/2) - 1."""
    return math.erf(delta / (2 * math.sqrt(2)))


def _reference_dp_statistics(views):
    """K^2 per column by the two-pass dev / dev2 formulas over a view matrix."""
    n = views.shape[0]
    dev = views - views.mean(axis=0)
    dev2 = dev * dev
    m2 = dev2.mean(axis=0)
    m3 = (dev2 * dev).mean(axis=0)
    m4 = (dev2 * dev2).mean(axis=0)
    g1 = m3 / m2**1.5
    y = g1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = 3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3) / (
        (n - 2.0) * (n + 5) * (n + 7) * (n + 9)
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha) ** 2 + 1.0))
    b2 = m4 / m2**2
    e_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    x = (b2 - e_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3)))
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1**2))
    z_kurt = (
        (1.0 - 2.0 / (9.0 * a))
        - np.cbrt((1.0 - 2.0 / a) / (1.0 + x * np.sqrt(2.0 / (a - 4.0))))
    ) / math.sqrt(2.0 / (9.0 * a))
    return z_skew**2 + z_kurt**2


def reference_battery(sw, alpha, count, seed):
    """Oracle: the view-matrix battery the one-pass moments replaced, over the
    coordinates and count projections drawn from seed.  Per step the
    N x (d + P) matrix [x | x @ P] is built with hstack, degenerate views are
    the zero-variance columns, and K^2 is taken over a copy of the live
    columns.  Returns (fractions, decisions, degenerate, p-values)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0xC0DE], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    proj = rng.standard_normal((sw.dataset.features.shape[1], count))
    proj /= np.linalg.norm(proj, axis=0)
    fractions, decisions, degenerate, pvalues = [], [], [], []
    for t in sw.steps:
        snap = sw.snapshot(t)
        mat = np.hstack([snap, snap @ proj])
        live = mat.var(axis=0) > 0.0
        p = np.exp(-0.5 * _reference_dp_statistics(mat[:, live]))
        frac = float(np.mean(p < alpha))
        fractions.append((int(t), frac))
        decisions.append(frac <= convergence.REJECTION_SLACK * alpha)
        degenerate.append(int(np.sum(~live)))
        pvalues.append(p)
    return tuple(fractions), tuple(decisions), tuple(degenerate), pvalues


class TestDagostinoPearson:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        samples = [
            rng.standard_normal(5000),
            rng.exponential(size=5000),
            rng.uniform(size=500),
            rng.standard_t(5, size=2000),
        ]
        for s in samples:
            k2, p = dagostino_pearson(s)
            ref = stats.normaltest(s)
            assert k2 == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-300)

    def test_gaussian_calibration(self):
        hits = 0
        for seed in range(100):
            s = np.random.default_rng(seed).standard_normal(5000)
            _, p = dagostino_pearson(s)
            hits += p > 0.05
        assert hits >= 90

    def test_exponential_strongly_rejected(self):
        s = np.random.default_rng(1).exponential(size=5000)
        _, p = dagostino_pearson(s)
        assert p < 1e-6

    def test_constant_vector(self):
        with pytest.raises(DegenerateError):
            dagostino_pearson(np.full(100, 3.0))

    def test_short_sample(self):
        with pytest.raises(DataError):
            dagostino_pearson(np.arange(19.0))

    def test_batch_columns(self):
        rng = np.random.default_rng(2)
        mat = np.column_stack([rng.standard_normal(3000), rng.exponential(size=3000)])
        k2, p = dagostino_pearson(mat)
        assert p[0] > 1e-4 and p[1] < 1e-10


class TestConvergenceStep:
    def test_gaussian_detected_at_zero(self, ddpm):
        rng = np.random.default_rng(3)
        ds = LabeledDataset(features=rng.standard_normal((20000, 16)),
                            labels=np.zeros(20000, dtype=int))
        sw = sweep(ds, ddpm, [0, 100], SeedPolicy(base_seed=4))
        report = convergence_step(sw, projections=32, seed=9)
        assert report.detected_step == 0

    def test_uniform_cube_matches_mixing_prediction(self, ddpm):
        rng = np.random.default_rng(5)
        ds = LabeledDataset(
            features=rng.uniform(-math.sqrt(3), math.sqrt(3), size=(20000, 64)),
            labels=np.zeros(20000, dtype=int),
        )
        sw = sweep(ds, ddpm, range(0, 1001, 20), SeedPolicy(base_seed=6))
        report = convergence_step(sw, projections=64, seed=7)
        predicted = predict_mixing_step(ddpm, 64)["t_mix_steps"]
        assert abs(report.detected_step - predicted) <= 0.1 * ddpm.horizon_T

    def test_single_step_non_gaussian_reports_horizon(self, ddpm):
        rng = np.random.default_rng(8)
        ds = LabeledDataset(features=rng.exponential(size=(5000, 4)),
                            labels=np.zeros(5000, dtype=int))
        sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=9))
        report = convergence_step(sw)
        assert report.detected_step == ddpm.horizon_T
        assert report.steps[0][1] > 0.075

    def test_rejection_rate_calibrated_on_null(self, ddpm):
        # per-view rejection rate at level alpha stays near alpha
        alpha, views = 0.05, 128
        fracs = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            ds = LabeledDataset(features=rng.standard_normal((5000, 64)),
                                labels=np.zeros(5000, dtype=int))
            sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=seed))
            report = convergence_step(sw, alpha=alpha, projections=64, seed=seed)
            fracs.append(report.steps[0][1])
        margin = 3 * math.sqrt(alpha * (1 - alpha) / views)
        assert abs(np.mean(fracs) - alpha) < margin

    def test_degenerate_views_recorded_not_fatal(self, ddpm):
        rng = np.random.default_rng(10)
        feats = np.column_stack([rng.standard_normal(5000), np.full(5000, 2.0)])
        ds = LabeledDataset(features=feats, labels=np.zeros(5000, dtype=int))
        sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=11))
        report = convergence_step(sw, projections=0)
        assert report.degenerate_views[0] == 1

    @pytest.mark.parametrize("value", [0.7, 2.0])
    @pytest.mark.parametrize("views", [pytest.param((0, 0), id="coordinates"), (12, 3)])
    def test_constant_column_is_degenerate(self, ddpm, value, views):
        count, seed = views  # projections and their seed
        # at N=5000 the mean of a column of 0.7 is 0.7 + 1.1e-16, so the column
        # centres to rounding noise, not to zero; it is still no live view
        rng = np.random.default_rng(10)
        live = np.column_stack([rng.standard_normal(5000), rng.exponential(size=5000)])
        feats = np.column_stack([live, np.full(5000, value)])
        ds = LabeledDataset(features=feats, labels=np.zeros(5000, dtype=int))
        sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=11))
        report = convergence_step(sw, projections=count, seed=seed)
        assert report.degenerate_views == (1,)
        if count == 0:  # oracle: scipy over the two live columns
            assert report.steps[0][1] == np.mean(stats.normaltest(live).pvalue < 0.05)

    def test_alpha_validated(self, ddpm):
        rng = np.random.default_rng(12)
        ds = LabeledDataset(features=rng.standard_normal((100, 2)),
                            labels=np.zeros(100, dtype=int))
        sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=13))
        with pytest.raises(DomainError):
            convergence_step(sw, alpha=1.5)


    @pytest.mark.parametrize("n", [convergence.BLOCK_ROWS - 1, convergence.BLOCK_ROWS,
                                   convergence.BLOCK_ROWS + 1, 5000])
    @pytest.mark.parametrize("views", [pytest.param((0, 0), id="coordinates"), (12, 3)])
    def test_matches_view_matrix_reference(self, ddpm, monkeypatch, n, views):
        count, seed = views  # projections and their seed
        # non-Gaussian columns plus a constant one (degenerate at step 0 only)
        rng = np.random.default_rng(n)
        feats = np.column_stack([rng.exponential(size=(n, 3)),
                                 rng.uniform(-1.0, 1.0, size=(n, 3)),
                                 rng.standard_normal(n), np.full(n, 2.0)])
        ds = LabeledDataset(features=feats, labels=np.zeros(n, dtype=int))
        sw = sweep(ds, ddpm, [0, 50, 200, 400, 700, 1000], SeedPolicy(base_seed=n))
        fractions, decisions, degenerate, pvalues = reference_battery(sw, 0.05, count, seed)
        assert degenerate[0] == 1 and fractions[0][1] > 0.5
        # the early stop ends the series at the first passing step
        stop = decisions.index(True) + 1 if True in decisions else len(decisions)
        detected = sw.steps[stop - 1] if True in decisions else ddpm.horizon_T
        k2_from_moments = convergence._k2_from_moments
        # the report is the same for any number of worker threads, also with
        # more workers than cores and thread switches every microsecond (two
        # steps in flight on one buffer would break it)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(forward, "_usable_cores", lambda: workers)
                for stop_at_detection in (False, True):
                    k2s = []
                    monkeypatch.setattr(convergence, "_k2_from_moments",
                                        lambda *a: k2s.append(k2_from_moments(*a)) or k2s[-1])
                    report = convergence_step(sw, alpha=0.05, projections=count, seed=seed,
                                              stop_at_detection=stop_at_detection)
                    end = stop if stop_at_detection else len(decisions)
                    assert report.detected_step == detected
                    assert report.steps == fractions[:end]
                    assert report.decisions == decisions[:end]
                    assert report.degenerate_views == degenerate[:end]
                    assert len(k2s) == end
                    for k2, p in zip(k2s, pvalues):
                        assert np.exp(-0.5 * k2) == pytest.approx(p, rel=1e-10, abs=1e-300)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("d,count,rows", [(600, 500, 1), (64, 64, 64), (6, 16, 2730)],
                             ids=["one-row", "several-rows", "whole-block"])
    def test_sliced_projection_matches_one_matmul_per_block(self, d, count, rows):
        # the oracle issues b @ proj once per BLOCK_ROWS rows; _view_moments
        # issues it `rows` rows at a time
        assert max(1, convergence.MATMUL_MADDS // (d * count)) == rows
        n = 2 * convergence.BLOCK_ROWS + 37
        rng = np.random.default_rng(d)
        x = rng.exponential(size=(n, d))
        proj = convergence._projections(count, 5, d)
        mean = x.mean(axis=0)
        block = np.empty((convergence.BLOCK_ROWS, d + count))
        sums = np.zeros((3, d + count))
        for lo in range(0, n, convergence.BLOCK_ROWS):
            b = block[:min(convergence.BLOCK_ROWS, n - lo)]
            np.subtract(x[lo:lo + len(b)], mean, out=b[:, :d])
            b[:, d:] = b[:, :d] @ proj
            q = b * b
            sums += [q.sum(axis=0), np.einsum("ij,ij->j", q, b), np.einsum("ij,ij->j", q, q)]
        m2, m3, m4, _ = convergence._view_moments(x, proj)
        for got, want in zip((m2, m3, m4), sums / n):
            if rows > 1:  # at these shapes the sliced dgemm rows are the block's
                assert np.array_equal(got, want)
            else:  # numpy issues a one-row product as a matrix-vector call, which
                # sums in another order than dgemm
                np.testing.assert_allclose(got, want, rtol=1e-12)

    @staticmethod
    def _failing_sweep(monkeypatch, ddpm, fail_at, gaussian):
        """A 6-step sweep whose snapshot raises StepFailure at the steps in
        fail_at, and the list of steps whose snapshot was drawn."""
        rng = np.random.default_rng(34)
        feats = (rng.standard_normal((3000, 4)) if gaussian
                 else rng.exponential(size=(3000, 4)))
        ds = LabeledDataset(features=feats, labels=np.zeros(3000, dtype=int))
        sw = sweep(ds, ddpm, [0, 100, 200, 300, 400, 500], SeedPolicy(base_seed=35))
        drawn = []
        snapshot = TrajectorySweep.snapshot

        def failing(self, t, out=None):
            drawn.append(t)
            if t in fail_at:
                raise StepFailure(f"step {t}")
            return snapshot(self, t, out=out)

        monkeypatch.setattr(TrajectorySweep, "snapshot", failing)
        return sw, drawn

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_earliest_failing_step_raises(self, ddpm, monkeypatch, workers):
        monkeypatch.setattr(forward, "_usable_cores", lambda: workers)
        sw, drawn = self._failing_sweep(monkeypatch, ddpm, {200, 300}, gaussian=False)
        with pytest.raises(StepFailure, match="^step 200$"):
            convergence_step(sw)
        # no step is drawn past the window of the failing one
        assert max(drawn) <= sw.steps[sw.steps.index(200) + workers - 1]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_early_stop_hides_later_failures(self, ddpm, monkeypatch, workers):
        # Gaussian rows pass at step 0; every later snapshot would raise
        monkeypatch.setattr(forward, "_usable_cores", lambda: workers)
        sw, drawn = self._failing_sweep(monkeypatch, ddpm, set(range(100, 501, 100)),
                                        gaussian=True)
        report = convergence_step(sw, projections=16, seed=36, stop_at_detection=True)
        assert report.detected_step == 0 and report.decisions == (True,)
        assert 0 in drawn and len(drawn) <= workers

    def test_memory_stays_near_one_snapshot(self, ddpm):
        # the view matrix, its deviations and their powers once held ~10
        # snapshots' worth of memory; one pass holds the snapshot, the noise
        # draw and two small block buffers
        n, d = 20000, 32
        rng = np.random.default_rng(20)
        ds = LabeledDataset(features=rng.exponential(size=(n, d)),
                            labels=np.zeros(n, dtype=int))
        sw = sweep(ds, ddpm, [300], SeedPolicy(base_seed=21))
        _, peak = traced_peak(convergence_step, sw, projections=32, seed=22)
        assert peak < 4 * n * d * 8

    def test_memory_stays_near_one_snapshot_per_worker(self, ddpm, monkeypatch):
        # two workers hold two snapshots and two pairs of block buffers
        monkeypatch.setattr(forward, "_usable_cores", lambda: 2)
        n, d = 20000, 32
        rng = np.random.default_rng(20)
        ds = LabeledDataset(features=rng.exponential(size=(n, d)),
                            labels=np.zeros(n, dtype=int))
        sw = sweep(ds, ddpm, [100, 300, 500, 700], SeedPolicy(base_seed=21))
        report, peak = traced_peak(convergence_step, sw, projections=32, seed=22)
        assert len(report.steps) == 4
        assert peak < 4 * n * d * 8

    def test_short_sweep_rejected(self, ddpm):
        rng = np.random.default_rng(23)
        ds = LabeledDataset(features=rng.standard_normal((19, 3)),
                            labels=np.zeros(19, dtype=int))
        sw = sweep(ds, ddpm, [0, 500], SeedPolicy(base_seed=24))
        with pytest.raises(DataError):
            convergence_step(sw, projections=4)
        # sweep() refuses an empty step list; a sweep built by hand can have one
        bare = TrajectorySweep(dataset=ds, schedule=ddpm, steps=(), seeds=SeedPolicy(0))
        with pytest.raises(DomainError, match="sweep has no steps"):
            convergence_step(bare, projections=4)

class TestTvDistance:
    def test_identical_densities(self):
        x, p = gaussian_grid(0.0)
        assert tv_distance_1d(p, p, x) == 0.0

    def test_small_shift_matches_closed_form(self):
        x, p = gaussian_grid(0.0)
        _, q = gaussian_grid(0.1)
        assert tv_distance_1d(p, q, x) == pytest.approx(gaussian_tv_oracle(0.1), abs=1e-6)
        assert tv_distance_1d(p, q, x) == pytest.approx(0.0399, abs=1e-4)

    def test_large_shift(self):
        x, p = gaussian_grid(0.0)
        _, q = gaussian_grid(3.0)
        assert tv_distance_1d(p, q, x) == pytest.approx(0.8664, abs=1e-4)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(14)
        x = np.linspace(-8, 8, 20001)
        dens = []
        for _ in range(3):
            mu, sig = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            d = np.exp(-0.5 * ((x - mu) / sig) ** 2)
            dens.append(d / np.trapezoid(d, x))
        d01 = tv_distance_1d(dens[0], dens[1], x)
        d10 = tv_distance_1d(dens[1], dens[0], x)
        d02 = tv_distance_1d(dens[0], dens[2], x)
        d12 = tv_distance_1d(dens[1], dens[2], x)
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-6

    def test_normalization_enforced(self):
        x, p = gaussian_grid(0.0)
        with pytest.raises(DomainError):
            tv_distance_1d(p, 2 * p, x)

    def test_shape_mismatch(self):
        x, p = gaussian_grid(0.0)
        with pytest.raises(DomainError, match="q and grid shapes differ"):
            tv_distance_1d(p, p[:-1], x)


class TestMomentTvCheck:
    def test_identical(self):
        x, p = gaussian_grid(0.0)
        report = moment_tv_check(p, p, x, n=2)
        assert report["d_tv"] == 0.0 and report["holds"]

    def test_gaussian_pair_constant(self):
        x, p = gaussian_grid(0.0)
        _, q = gaussian_grid(0.1)
        report = moment_tv_check(p, q, x, n=2, c0=1.0)
        assert report["constant"] == pytest.approx(156.0)  # 1 * (1+2!) * (4+48)
        # the shift leaves centered moments equal; it shows up in B via the mean
        assert report["moment_bound"] == pytest.approx(0.0, abs=1e-12)
        assert report["second_moment_bound"] == pytest.approx(1.0, abs=1e-6)
        assert report["bound_value"] == pytest.approx(156.0, abs=1e-3)
        assert report["holds"]

    def test_seeded_mixture_family(self):
        # 20 bounded-variation mixture pairs, n in {2, 3}
        x = np.linspace(-12, 12, 40001)
        rng = np.random.default_rng(15)
        for case in range(20):
            def mixture():
                d = np.zeros_like(x)
                for _ in range(int(rng.integers(1, 4))):
                    mu, sig = rng.uniform(-2, 2), rng.uniform(0.5, 1.5)
                    d += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / sig) ** 2)
                return d / np.trapezoid(d, x)

            p, q = mixture(), mixture()
            for n in (2, 3):
                assert moment_tv_check(p, q, x, n=n, c0=1.0)["holds"], f"case {case}"

    def test_order_validation(self):
        x, p = gaussian_grid(0.0)
        with pytest.raises(DomainError):
            moment_tv_check(p, p, x, n=1)

    def test_infinite_bound_rejected(self):
        # sd 1e159: the squared third moment bound overflows although C_n is finite
        x = np.linspace(-1e160, 1e160, 2001)
        p = np.exp(-0.5 * (x / 1e159) ** 2) / (1e159 * np.sqrt(2.0 * np.pi))
        with pytest.raises(DomainError, match=r"the bound C_n \(M\^2 \+ B\) is not finite"):
            moment_tv_check(p, p, x, n=3)


class TestCfDistance:
    def test_identical_datasets(self):
        rng = np.random.default_rng(16)
        xa = rng.standard_normal((2000, 6))
        res = empirical_cf_distance(xa, xa, freq_count=32, seed=1)
        assert res["delta"] < 1e-12

    def test_shift_monotonicity(self):
        rng = np.random.default_rng(17)
        xa = rng.standard_normal((20000, 6))
        small = empirical_cf_distance(xa, xa + 0.05, freq_count=64, seed=2)["delta"]
        large = empirical_cf_distance(xa, xa + 3.0, freq_count=64, seed=2)["delta"]
        assert small < large

    def test_same_law_concentration(self):
        ra, rb = np.random.default_rng(18), np.random.default_rng(19)
        xa, xb = ra.standard_normal((100000, 8)), rb.standard_normal((100000, 8))
        assert empirical_cf_distance(xa, xb, freq_count=64, seed=3)["delta"] < 0.02

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            empirical_cf_distance(np.zeros((10, 2)), np.zeros((10, 3)))

    def test_default_scale(self):
        res = empirical_cf_distance(np.zeros((10, 16)), np.ones((10, 16)))
        assert res["freq_scale"] == pytest.approx(0.25)


class TestFluctuationAdaptation:
    def test_moment_magnitudes_track_cf_distance(self, ddpm):
        # a smooth low-amplitude perturbation moves the per-event moment
        # magnitudes by at most C * delta (C calibrated on this fixture)
        from conftest import two_class_dataset
        from vpmerge import LabeledDataset, SeedPolicy, conditional_fluctuation, sweep

        ds = two_class_dataset(seed=0)

        def gaps(amplitude):
            bent = LabeledDataset(
                features=ds.features + amplitude * np.sin(ds.features),
                labels=ds.labels.copy(),
            )
            delta = empirical_cf_distance(ds.features, bent.features,
                                          freq_count=64, seed=21)["delta"]
            worst = 0.0
            for label in (0, 1):
                mags = []
                for d in (ds, bent):
                    sw = sweep(d, ddpm, [0], SeedPolicy(base_seed=22))
                    event = np.flatnonzero(d.labels == label)
                    mags.append(conditional_fluctuation(sw, event, 0).frobenius_sq)
                worst = max(worst, abs(mags[0] - mags[1]))
            return delta, worst

        C = 800.0  # calibrated on this fixture (observed worst ratio ~555)
        delta_full, gap_full = gaps(0.05)
        assert delta_full < 0.05
        assert gap_full <= C * delta_full
        # the bound scales linearly: halving the perturbation halves both
        delta_half, gap_half = gaps(0.025)
        assert gap_half <= C * delta_half
        assert delta_half < delta_full and gap_half < gap_full
