import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import DomainError, NoiseSchedule, predict_mixing_step, weight_law
from vpmerge.schedule import betas, j_values

from conftest import discrete_product_oracle


def discrete_products(sched, ts):
    return np.array([discrete_product_oracle(sched, int(t)) for t in ts])


class TestBetaAt:
    """beta_t of the discrete schedule is betas(schedule)[t - 1]."""

    def test_endpoints(self, ddpm):
        assert betas(ddpm)[0] == pytest.approx(1e-4)
        assert betas(ddpm)[999] == pytest.approx(0.02)
        assert len(betas(ddpm)) == 1000

    def test_midpoint_linear_interpolation(self, ddpm):
        expected = 1e-4 + 0.0199 * 499 / 999
        assert betas(ddpm)[499] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.010039, abs=5e-6)

    def test_single_step_horizon(self):
        sched = NoiseSchedule(beta0=0.01, betaT=0.01, horizon_T=1)
        assert betas(sched).tolist() == [0.01]


class TestAttenuation:
    def test_empty_product(self, ddpm):
        assert j_values(ddpm, 0) == 1.0
        assert discrete_product_oracle(ddpm, 0) == 1.0

    def test_continuous_midpoint(self, ddpm):
        j = float(j_values(ddpm, 500))
        assert j == pytest.approx(math.exp(-0.025 - 1.24375), rel=1e-12)
        assert j == pytest.approx(0.2812, abs=5e-5)
        # cross-check against the discrete-product oracle
        assert j == pytest.approx(discrete_product_oracle(ddpm, 500), rel=0.01)

    def test_continuous_horizon(self, ddpm):
        j = float(j_values(ddpm, 1000))
        assert j == pytest.approx(math.exp(-5.025), rel=1e-12)
        assert j == pytest.approx(6.56e-3, abs=2e-5)

    def test_strictly_decreasing(self, ddpm):
        js = j_values(ddpm, np.arange(0, 1001))
        assert np.all(np.diff(js) < 0)

    def test_discrete_continuous_agreement_below_650(self, ddpm):
        # the O(beta^2) product correction stays under 1% through step ~689
        ts = np.arange(0, 651)
        jc = j_values(ddpm, ts)
        jd = discrete_products(ddpm, ts)
        assert np.max(np.abs(jd - jc) / jc) < 0.01

    def test_discrete_continuous_gap_bounded_at_horizon(self, ddpm):
        # beyond ~0.69T the gap exceeds the 1% band; it stays below 3.5%
        ts = np.arange(0, 1001)
        jc = j_values(ddpm, ts)
        jd = discrete_products(ddpm, ts)
        assert np.max(np.abs(jd - jc) / jc) < 0.035


class TestSnr:
    """SNR(t) = J^2 / (1 - J^2), read through the inverse-SNR weight law
    (its one user)."""

    def test_infinity_sentinel_at_zero(self, ddpm):
        # J(0) is exactly 1: SNR is infinite and its weight 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = weight_law("inverse_snr", ddpm, 0, 3)
        assert law[0] == 0.0 and np.all(law[1:] > 0.0)

    def test_strictly_decreasing(self, ddpm):
        # 1/SNR(t) = exp(int_0^t beta) - 1 grows with t
        law = weight_law("inverse_snr", ddpm, 1, 1000)
        assert np.all(np.diff(law[::50]) > 0.0)
        t = np.arange(1, 1001)
        oracle = np.expm1(ddpm.beta0 * t + 0.5 * (ddpm.betaT - ddpm.beta0) * t * t / 1000)
        assert np.allclose(law, oracle / oracle.sum(), rtol=1e-9)


class TestMixingPrediction:
    @pytest.mark.parametrize("dim,expected", [(3072, 0.602), (784, 0.543), (4096, 0.614)])
    def test_reference_rows(self, ddpm, dim, expected):
        pred = predict_mixing_step(ddpm, dim)
        assert pred["t_mix_fraction"] == pytest.approx(expected, abs=0.005)

    def test_fraction_ratio_exact(self, ddpm):
        pred = predict_mixing_step(ddpm, 64)
        assert pred["t_mix_fraction"] == pred["t_mix_steps"] / ddpm.horizon_T

    def test_quadratic_residual(self, ddpm):
        pred = predict_mixing_step(ddpm, 3072)
        t = pred["t_mix_steps"]
        lhs = 0.5 * ddpm.beta0 * t + 0.25 * (ddpm.betaT - ddpm.beta0) * t * t / ddpm.horizon_T
        assert abs(lhs - 0.25 * math.log(3072 / 2)) < 1e-9

    def test_ddpm_default_reduced_form(self, ddpm):
        # t + 0.0995 t^2 = 5000 log(d/2) is the same quadratic rescaled
        pred = predict_mixing_step(ddpm, 784)
        t = pred["t_mix_steps"]
        assert t + 0.0995 * t * t == pytest.approx(5000 * math.log(392), rel=1e-9)

    def test_small_dim_rejected(self, ddpm):
        with pytest.raises(DomainError):
            predict_mixing_step(ddpm, 2)

    def test_constant_schedule_closed_form(self):
        sched = NoiseSchedule(beta0=0.01, betaT=0.01, horizon_T=100)
        pred = predict_mixing_step(sched, 100)
        assert pred["t_mix_steps"] == pytest.approx(math.log(50) / (2 * 0.01), rel=1e-9)


class TestScheduleValidation:
    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            NoiseSchedule(beta0=0.0, betaT=0.02)
        with pytest.raises(DomainError):
            NoiseSchedule(beta0=0.03, betaT=0.02)
        with pytest.raises(DomainError):
            NoiseSchedule(beta0=0.1, betaT=1.0)
        with pytest.raises(DomainError):
            NoiseSchedule(horizon_T=0)


@settings(max_examples=30, deadline=None)
@given(
    beta0=st.floats(1e-6, 0.01),
    spread=st.floats(0.0, 0.5),
    horizon=st.integers(2, 2000),
)
def test_monotonicity_properties(beta0, spread, horizon):
    sched = NoiseSchedule(beta0=beta0, betaT=min(beta0 + spread, 0.999), horizon_T=horizon)
    bs = betas(sched)
    assert np.all(np.diff(bs) >= -1e-15)
    js = j_values(sched, np.arange(0, horizon + 1))
    assert np.all(np.diff(js) < 0)
    assert js[0] == 1.0
    assert np.all((js > 0) & (js <= 1))
