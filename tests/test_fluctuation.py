import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import (
    ConditionalMoments,
    DegenerateError,
    DomainError,
    LabeledDataset,
    SeedPolicy,
    conditional_fluctuation,
    normalized_M,
    sweep,
)
from vpmerge.fluctuation import (cross_fluctuation_G, moments_from_rows, propagated_frobenius,
                                 top_eigenvalue)
from vpmerge.schedule import j_values


def propagate_moments(m0, schedule, t):
    """Oracle: step-0 moments pushed through the marginal law to step t.

    The covariance is J^2 S0 + (1 - J^2) I.  That map keeps eigenvectors, so
    the top eigenvalue is carried over with no eigensolve; the squared norm is
    summed from the tensor itself.
    """
    j2 = float(j_values(schedule, t)) ** 2
    tensor = j2 * m0.tensor + (1.0 - j2) * np.eye(m0.dim)
    return ConditionalMoments(tensor=tensor, top_eigenvalue=j2 * m0.top_eigenvalue + (1.0 - j2),
                              frobenius_sq=float(np.sum(tensor * tensor)))


def gaussian_sweep(ddpm, seed, n=100000, d=4, steps=(0,)):
    rng = np.random.default_rng(seed)
    ds = LabeledDataset(
        features=rng.standard_normal((n, d)), labels=np.zeros(n, dtype=int)
    )
    return sweep(ds, ddpm, steps, SeedPolicy(base_seed=seed))


def from_matrix(mat):
    return ConditionalMoments.from_tensor(np.asarray(mat, dtype=np.float64))


class TestConditionalFluctuation:
    def test_standard_normal_covariance(self, ddpm):
        sw = gaussian_sweep(ddpm, 0)
        m = conditional_fluctuation(sw, np.arange(100000), 0, n=2)
        assert np.linalg.norm(m.tensor - np.eye(4), ord=2) < 0.03

    def test_first_order_rejected(self, ddpm):
        # an order-1 tensor under own-mean centring is identically zero
        sw = gaussian_sweep(ddpm, 1, n=500)
        for propagate in (True, False):
            with pytest.raises(DomainError, match="order must be 2"):
                conditional_fluctuation(sw, np.arange(500), 0, n=1, propagate=propagate)
        with pytest.raises(DomainError, match="order must be 2"):
            moments_from_rows(sw.dataset.features, 1)
        with pytest.raises(DomainError, match="order must be 2"):
            ConditionalMoments.from_tensor(np.eye(4), order=1)

    def test_own_mean_centring_and_event_count(self):
        rows = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 8.0]])
        mean, tensor = moments_from_rows(rows, 2)
        dev = rows - rows.mean(axis=0)
        assert np.array_equal(mean, rows.mean(axis=0))
        assert np.array_equal(tensor, dev.T @ dev / 3)

    def test_empty_event(self, ddpm):
        sw = gaussian_sweep(ddpm, 3, n=100)
        with pytest.raises(DomainError):
            conditional_fluctuation(sw, np.array([], dtype=int), 0)

    def test_degenerate_event_for_order_two(self, ddpm):
        sw = gaussian_sweep(ddpm, 4, n=100)
        with pytest.raises(DegenerateError):
            conditional_fluctuation(sw, np.array([3]), 0, n=2)

    def test_propagated_needs_no_step_zero_in_the_grid(self, ddpm):
        # propagated moments read the dataset rows, never the step-0 snapshot
        with_zero = gaussian_sweep(ddpm, 2, n=500, steps=(0, 300))
        without = gaussian_sweep(ddpm, 2, n=500, steps=(300,))
        ev = np.arange(250)
        a = conditional_fluctuation(with_zero, ev, 0)
        b = conditional_fluctuation(without, ev, 0)
        assert np.array_equal(a.tensor, b.tensor)
        assert (a.top_eigenvalue, a.frobenius_sq) == (b.top_eigenvalue, b.frobenius_sq)
        # step 300 follows from them, and agrees with the snapshot there
        # (250 rows in d = 4: a loose 4 sqrt(d / n) spectral bound)
        emp = conditional_fluctuation(without, ev, 300, propagate=False)
        ana = propagate_moments(b, ddpm, 300)
        assert np.linalg.norm(ana.tensor - emp.tensor, ord=2) < 4 * math.sqrt(4 / 250)
        with pytest.raises(DomainError, match="not in sweep steps"):
            conditional_fluctuation(without, ev, 0, propagate=False)

    def test_propagated_rejects_a_later_step(self, ddpm):
        sw = gaussian_sweep(ddpm, 2, n=500, steps=(0, 300))
        for t in (300, -1, ddpm.horizon_T + 1):
            with pytest.raises(DomainError, match="step-0 moments"):
                conditional_fluctuation(sw, np.arange(250), t, propagate=True)

    def test_propagated_matches_empirical(self, ddpm):
        sw = gaussian_sweep(ddpm, 5, n=50000, d=6, steps=(0, 300))
        ev = np.arange(25000)
        ana = propagate_moments(conditional_fluctuation(sw, ev, 0, n=2), ddpm, 300)
        emp = conditional_fluctuation(sw, ev, 300, n=2, propagate=False)
        assert np.linalg.norm(ana.tensor - emp.tensor, ord=2) < 0.05
        assert ana.top_eigenvalue == pytest.approx(emp.top_eigenvalue, rel=0.05)

    def test_propagated_top_eigenvalue_needs_one_eigensolve(self, ddpm, monkeypatch):
        import vpmerge.fluctuation as fluctuation

        calls = []

        def counting(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return top_eigenvalue(matrix, *args, **kwargs)

        monkeypatch.setattr(fluctuation, "top_eigenvalue", counting)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2000, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2])
        ds = LabeledDataset(features=x, labels=np.zeros(2000, dtype=int))
        sw = sweep(ds, ddpm, (0, 300), SeedPolicy(base_seed=7))
        m0 = conditional_fluctuation(sw, np.arange(2000), 0, n=2, propagate=True)
        m = propagate_moments(m0, ddpm, 300)
        assert calls == [(5, 5)]  # the step-0 tensor only
        dense = np.linalg.eigvalsh(m.tensor)[-1]
        assert m.top_eigenvalue == pytest.approx(dense, rel=1e-12)
        # the merger's closed form for the squared norm at step t
        j2 = float(j_values(ddpm, 300)) ** 2
        closed = propagated_frobenius(j2, m0.frobenius_sq, np.trace(m0.tensor), m0.dim)
        assert m.frobenius_sq == pytest.approx(closed, rel=1e-12)

    def test_frobenius_matches_tensor_norm(self, ddpm):
        sw = gaussian_sweep(ddpm, 6, n=1000)
        m = conditional_fluctuation(sw, np.arange(1000), 0, n=2)
        assert m.frobenius_sq == pytest.approx(np.sum(m.tensor**2), rel=1e-9)


class TestCrossFluctuation:
    def test_identity_pair(self):
        assert cross_fluctuation_G(from_matrix(np.eye(2)), from_matrix(np.eye(2))) == 2.0

    def test_orthogonal_structures(self):
        a, b = from_matrix(np.diag([1.0, 0.0])), from_matrix(np.diag([0.0, 1.0]))
        assert cross_fluctuation_G(a, b) == 0.0

    def test_trace_arithmetic(self):
        a, b = from_matrix(np.eye(2)), from_matrix(np.diag([2.0, 0.0]))
        assert cross_fluctuation_G(a, b) == 2.0

    def test_mismatch_errors(self):
        a = from_matrix(np.eye(2))
        with pytest.raises(DomainError):
            ConditionalMoments.from_tensor(np.array([1.0, 0.0]))  # not an order-2 tensor
        with pytest.raises(DomainError):
            cross_fluctuation_G(a, from_matrix(np.eye(3)))


class TestNormalizedM:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((4, 4))
        a = from_matrix(raw @ raw.T)
        assert normalized_M(a, a) == 1.0

    def test_orthogonal_zero(self):
        a, b = from_matrix(np.diag([1.0, 0.0])), from_matrix(np.diag([0.0, 1.0]))
        assert normalized_M(a, b) == 0.0

    def test_closed_arithmetic(self):
        a, b = from_matrix(np.eye(2)), from_matrix(np.diag([2.0, 0.0]))
        assert normalized_M(a, b) == pytest.approx(2 / (math.sqrt(2) * 2), abs=1e-9)
        assert normalized_M(a, b) == pytest.approx(0.70711, abs=1e-5)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateError):
            normalized_M(from_matrix(np.zeros((2, 2))), from_matrix(np.eye(2)))

    def test_orthogonal_and_scale_invariance(self, ddpm):
        rng = np.random.default_rng(1)
        xa = rng.standard_normal((4000, 6)) * np.sqrt(np.r_[5.0, np.ones(5)])
        xb = rng.standard_normal((4000, 6)) * np.sqrt(np.r_[2.0, 2.0, np.ones(4)])
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        q *= np.sign(np.diag(r))
        scale = 3.7

        def cka(u, v):
            ma = ConditionalMoments.from_tensor(moments_from_rows(u, 2)[1], order=2)
            mb = ConditionalMoments.from_tensor(moments_from_rows(v, 2)[1], order=2)
            return normalized_M(ma, mb)

        base = cka(xa, xb)
        mapped = cka(scale * xa @ q.T, scale * xb @ q.T)
        assert mapped == pytest.approx(base, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        ra, rb = rng.standard_normal((2, 3, 3))
        a, b = from_matrix(ra @ ra.T + 1e-6 * np.eye(3)), from_matrix(rb @ rb.T + 1e-6 * np.eye(3))
        m_ab, m_ba = normalized_M(a, b), normalized_M(b, a)
        assert 0.0 <= m_ab <= 1.0
        assert abs(m_ab - m_ba) < 1e-12
        assert abs(normalized_M(a, a) - 1.0) < 1e-12


class TestTopEigenvalue:
    def test_identity(self):
        assert top_eigenvalue(np.eye(7)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert top_eigenvalue(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_random_psd_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        raw = rng.standard_normal((16, 16))
        mat = raw @ raw.T
        oracle = np.linalg.eigvalsh(mat)[-1]
        assert top_eigenvalue(mat) == pytest.approx(oracle, rel=1e-8)

    def test_power_iteration_path_matches_dense(self):
        # d > 256 forces the matrix-free branch
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((300, 40))
        mat = raw.T @ raw / 300 + np.diag(np.linspace(2.0, 0.0, 40))
        big = np.zeros((300, 300))
        big[:40, :40] = mat
        oracle = np.linalg.eigvalsh(big)[-1]
        assert top_eigenvalue(big) == pytest.approx(oracle, rel=1e-6)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            top_eigenvalue(np.zeros((2, 3)))


class TestOneSweepEstimator:
    def test_ratio_estimator_consistency(self):
        d = 8
        spec_a, spec_b = np.r_[10.0, np.ones(7)], np.r_[4.0, 2.0, np.ones(6)]
        truth = np.sum(spec_a * spec_b) / math.sqrt(np.sum(spec_a**2) * np.sum(spec_b**2))

        def avg_err(n):
            errs = []
            for s in range(20):
                rng = np.random.default_rng(s)
                xa = rng.standard_normal((n, d)) * np.sqrt(spec_a)
                xb = rng.standard_normal((n, d)) * np.sqrt(spec_b)
                ma = ConditionalMoments.from_tensor(moments_from_rows(xa, 2)[1], order=2)
                mb = ConditionalMoments.from_tensor(moments_from_rows(xb, 2)[1], order=2)
                errs.append(abs(normalized_M(ma, mb) - truth))
            return np.mean(errs)

        assert avg_err(10000) < avg_err(1000)


class TestContractionLaw:
    def test_empirical_top_eigenvalue_follows_law(self, ddpm):
        rng = np.random.default_rng(21)
        feats = rng.standard_normal((50000, 16)) * np.sqrt(np.r_[10.0, np.ones(15)])
        ds = LabeledDataset(features=feats, labels=np.zeros(50000, dtype=int))
        steps = [0, 200, 400, 600]
        sw = sweep(ds, ddpm, steps, SeedPolicy(base_seed=22))
        lam0 = conditional_fluctuation(sw, np.arange(50000), 0, n=2).top_eigenvalue
        for t in steps[1:]:
            emp = conditional_fluctuation(
                sw, np.arange(50000), t, n=2, propagate=False
            ).top_eigenvalue
            j2 = float(j_values(ddpm, t)) ** 2
            law = lam0 * j2 + (1 - j2)
            assert abs(emp - law) / law < 0.03
