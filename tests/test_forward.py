from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import DomainError, LabeledDataset, NoiseSchedule, SeedPolicy, forward, sweep
from vpmerge.schedule import betas, j_values

from conftest import discrete_product_oracle


def step_ddpm(x_prev, schedule, t, seeds):
    """Oracle: one DDPM update x_t = sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) eps.

    Its noise comes from a Philox stream keyed by (seed, (1 << 48) | t), so
    it never shares a stream with the marginal snapshots' (seed, t) keys.
    """
    if not 1 <= t <= schedule.horizon_T:
        raise DomainError(f"step {t} outside [1, {schedule.horizon_T}]")
    beta = betas(schedule)[t - 1]
    key = np.array([np.uint64(seeds.base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64((1 << 48) | t)],
                   dtype=np.uint64)
    eps = np.random.Generator(np.random.Philox(key=key)).standard_normal(np.shape(x_prev))
    return np.sqrt(1.0 - beta) * x_prev + np.sqrt(beta) * eps


def unit_dataset(seed, n=10000, d=4):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        features=rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, d)),
        labels=np.zeros(n, dtype=int),
    )


class TestNoisedAt:
    """The closed-form marginal snapshot J(t) x0 + sqrt(1 - J^2) eps."""

    def test_step_zero_is_identity(self, ddpm):
        ds = unit_dataset(0, n=100)
        out = sweep(ds, ddpm, [0], SeedPolicy(base_seed=5)).snapshot(0)
        assert np.array_equal(out, ds.features)

    def test_terminal_moments(self, ddpm):
        ds = unit_dataset(1, n=10000, d=4)
        out = sweep(ds, ddpm, [1000], SeedPolicy(base_seed=5)).snapshot(1000)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 0.05)
        assert np.all(np.abs(out.mean(axis=0)) < 0.05)

    def test_deterministic(self, ddpm):
        ds = unit_dataset(2, n=500)
        pol = SeedPolicy(base_seed=11)
        assert np.array_equal(
            sweep(ds, ddpm, [400], pol).snapshot(400), sweep(ds, ddpm, [400], pol).snapshot(400)
        )

    def test_matches_closed_form_bit_exact(self, ddpm):
        # the snapshot is built inside the noise buffer; the arithmetic is
        # the same two products and one sum as the closed form
        ds = unit_dataset(3, n=2000, d=8)
        pol = SeedPolicy(base_seed=12)
        for t in (1, 370, 1000):
            j = float(j_values(ddpm, t))
            eps = pol.stream(t).standard_normal((2000, 8))
            expected = j * ds.features + np.sqrt(1.0 - j * j) * eps
            assert sweep(ds, ddpm, [t], pol).snapshot(t).tobytes() == expected.tobytes()

    def test_blocks_match_closed_form_bit_exact(self, ddpm, monkeypatch):
        # j * x0 is added three rows at a time, with a short last block
        monkeypatch.setattr(forward, "_BLOCK_VALUES", 24)
        ds = unit_dataset(4, n=2000, d=8)
        pol = SeedPolicy(base_seed=13)
        j = float(j_values(ddpm, 250))
        eps = pol.stream(250).standard_normal((2000, 8))
        expected = j * ds.features + np.sqrt(1.0 - j * j) * eps
        assert sweep(ds, ddpm, [250], pol).snapshot(250).tobytes() == expected.tobytes()

    def test_marginal_law_for_fixed_x0(self, ddpm):
        # N copies of one point: mean J x0, covariance (1 - J^2) I
        x0 = np.array([1.5, -0.5, 2.0])
        ds = LabeledDataset(
            features=np.tile(x0, (100000, 1)), labels=np.zeros(100000, dtype=int)
        )
        t = 300
        out = sweep(ds, ddpm, [t], SeedPolicy(base_seed=3)).snapshot(t)
        j = float(j_values(ddpm, t))
        var = 1.0 - j * j
        se_mean = np.sqrt(var / 100000)
        assert np.all(np.abs(out.mean(axis=0) - j * x0) < 3 * se_mean)
        se_var = var * np.sqrt(2 / 100000)
        assert np.all(np.abs(out.var(axis=0) - var) < 3 * se_var)
        cross = np.cov(out, rowvar=False)
        off = cross[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 3 * var / np.sqrt(100000) + 1e-3)


class TestStepDdpm:
    def test_zero_beta_keeps_input(self):
        sched = NoiseSchedule(beta0=1e-300, betaT=1e-300, horizon_T=10)
        x = np.random.default_rng(0).standard_normal((50, 3))
        out = step_ddpm(x, sched, 5, SeedPolicy(base_seed=1))
        assert np.array_equal(out, x)

    def test_composition_matches_marginal(self, ddpm):
        # point mass at origin: after t steps the variance is 1 - J_disc^2
        t = 300
        x = np.zeros((100000, 2))
        pol = SeedPolicy(base_seed=2)
        for i in range(1, t + 1):
            x = step_ddpm(x, ddpm, i, pol)
        jd = discrete_product_oracle(ddpm, t)
        target = 1.0 - jd * jd
        assert np.all(np.abs(x.var(axis=0) - target) / target < 0.03)

    def test_beta_near_one_gives_pure_noise(self):
        sched = NoiseSchedule(beta0=1e-4, betaT=1 - 1e-12, horizon_T=10)
        x = np.full((100000, 1), 50.0)
        out = step_ddpm(x, sched, 10, SeedPolicy(base_seed=4))
        assert abs(out.var() - 1.0) < 0.03

    def test_step_range(self, ddpm):
        with pytest.raises(DomainError):
            step_ddpm(np.zeros((5, 2)), ddpm, 0, SeedPolicy(base_seed=0))


class TestSweep:
    def test_single_step_zero(self, ddpm):
        ds = unit_dataset(4, n=50)
        sw = sweep(ds, ddpm, [0], SeedPolicy(base_seed=0))
        assert np.array_equal(sw.snapshot(0), ds.features)

    def test_regeneration_bit_exact(self, ddpm):
        ds = unit_dataset(5, n=20000, d=16)
        sw1 = sweep(ds, ddpm, range(0, 1001, 100), SeedPolicy(base_seed=6))
        sw2 = sweep(ds, ddpm, range(0, 1001, 100), SeedPolicy(base_seed=6))
        for t in sw1.steps:
            assert np.array_equal(sw1.snapshot(t), sw2.snapshot(t))

    def test_snapshot_independent_of_evaluation_order(self, ddpm):
        ds = unit_dataset(6, n=300)
        sw = sweep(ds, ddpm, [0, 100, 500], SeedPolicy(base_seed=8))
        late_first = sw.snapshot(500).copy()
        sw.snapshot(100)
        assert np.array_equal(sw.snapshot(500), late_first)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_snapshot_rows_match_snapshot_bitwise(self, data):
        # block sizes that leave a partial last block of rows, and the real one
        block_values = data.draw(st.sampled_from([forward._BLOCK_VALUES, 1, 7, 40]))
        n, d = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 12))
        t = data.draw(st.sampled_from([0, 1, 250, 1000]))
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # any order, repeats
        rng = np.random.default_rng(n * d)
        ds = LabeledDataset(features=rng.standard_normal((n, d)), labels=np.zeros(n, dtype=int))
        sw = sweep(ds, NoiseSchedule(), [0, 1, 250, 1000], SeedPolicy(base_seed=d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forward, "_BLOCK_VALUES", block_values)
            got = sw.snapshot(t, rows)
            out = np.full((len(rows), d), np.nan)
            assert sw.snapshot(t, np.array(rows, dtype=np.int64), out=out) is out
        want = sw.snapshot(t)[np.array(rows, dtype=np.intp)]
        assert got.shape == out.shape == want.shape
        assert got.tobytes() == want.tobytes() and out.tobytes() == want.tobytes()

    def test_snapshot_rows_rejects_bad_rows_and_steps(self, ddpm):
        sw = sweep(unit_dataset(9, n=30), ddpm, [0, 5], SeedPolicy(base_seed=0))
        for rows in ([30], [-1], [[0, 1]], np.arange(30) < 5, [0.0, 1.5]):
            with pytest.raises(DomainError, match="rows"):
                sw.snapshot(5, rows)
        with pytest.raises(DomainError, match="not in sweep steps"):
            sw.snapshot(3, [0])

    @settings(max_examples=60, deadline=None)
    @given(block_values=st.sampled_from([1, 7, 40, 1 << 15]), n=st.integers(1, 300),
           d=st.integers(1, 12), t=st.sampled_from([1, 250, 1000]), into=st.booleans())
    def test_snapshot_matches_one_shot_draw_bitwise(self, block_values, n, d, t, into):
        # drawn block by block, with a short last block, into out or a new array
        sched = NoiseSchedule()
        ds = unit_dataset(n * d, n=n, d=d)
        pol = SeedPolicy(base_seed=n + d)
        j = float(j_values(sched, t))
        want = j * ds.features + np.sqrt(1.0 - j * j) * pol.stream(t).standard_normal((n, d))
        out = np.full((n, d), np.nan) if into else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forward, "_BLOCK_VALUES", block_values)
            got = sweep(ds, sched, [t], pol).snapshot(t, out=out)
        assert got is out or not into
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_values", [1, 7, 40, 1 << 15])
    def test_rows_draw_stops_at_the_block_of_the_last_row(self, ddpm, monkeypatch, block_values):
        monkeypatch.setattr(forward, "_BLOCK_VALUES", block_values)
        n, d = 500, 4
        block = max(1, block_values // d)
        sw = sweep(unit_dataset(10, n=n, d=d), ddpm, [0, 300], SeedPolicy(base_seed=3))
        drawn = []
        stream = SeedPolicy.stream

        def counted(self, step):  # the step's stream, counting the values drawn from it
            draw = stream(self, step).standard_normal
            return SimpleNamespace(standard_normal=lambda size, out=None:
                                   drawn.append(int(np.prod(size))) or draw(size, out=out))

        monkeypatch.setattr(SeedPolicy, "stream", counted)
        for rows in ([3, 0], [17, 2, 17], [n - 1], list(range(0, 200, 9)), []):
            drawn.clear()
            sw.snapshot(300, rows)
            want = min(n, (max(rows) // block + 1) * block) if rows else 0
            assert sum(drawn) == want * d, rows
        drawn.clear()
        sw.snapshot(300)
        assert sum(drawn) == n * d

    def test_conditional_mean_scales_with_j(self, ddpm):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((20000, 4)) + np.array([2.0, 0, 0, 0])
        ds = LabeledDataset(features=feats, labels=np.zeros(20000, dtype=int))
        sw = sweep(ds, ddpm, [0, 400], SeedPolicy(base_seed=9))
        t = 400
        j = float(j_values(ddpm, t))
        snap = sw.snapshot(t)
        se = 3 * np.sqrt((1 - j * j) / 20000 + j * j / 20000)
        assert np.all(np.abs(snap.mean(axis=0) - j * feats.mean(axis=0)) < 3 * se)

    def test_bad_steps(self, ddpm):
        ds = unit_dataset(8, n=10)
        with pytest.raises(DomainError):
            sweep(ds, ddpm, [], SeedPolicy(base_seed=0))
        with pytest.raises(DomainError):
            sweep(ds, ddpm, [0, 0, 5], SeedPolicy(base_seed=0))
        with pytest.raises(DomainError):
            sweep(ds, ddpm, [0, 2000], SeedPolicy(base_seed=0))
        sw = sweep(ds, ddpm, [0, 5], SeedPolicy(base_seed=0))
        with pytest.raises(DomainError):
            sw.snapshot(3)
