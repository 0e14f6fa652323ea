import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmerge import (
    ConditionalMoments,
    DataError,
    DegenerateError,
    DomainError,
    LabeledDataset,
    NoiseSchedule,
    SeedPolicy,
    conditional_fluctuation,
    detect_series,
    lattice_jump,
    normalized_M,
    pairwise_merge_times,
    partition_by_label,
    phase_spectrum,
    sweep,
)
from vpmerge import merger
from vpmerge.data import EventPartition
from vpmerge.forward import TrajectorySweep
from vpmerge.merger import (build_cascade, default_epsilon, guidance_windows,
                            interpolation_schedule, pairwise_series)
from vpmerge.schedule import betas, j_values

from conftest import five_class_sweep, two_class_dataset

# seed for which the two random halves of one Gaussian sample have top
# eigenvalues within the default threshold (bulk-edge fluctuations make
# this seed-dependent at this sample size; see the halves test)
HALVES_SEED = 0


def closed_form_merge_step(sched, delta_lambda, eps):
    """Oracle: smallest t with J(t)^2 delta <= eps, via the quadratic in t."""
    target = math.log(delta_lambda / eps)  # A(t) >= target
    a = 0.5 * (sched.betaT - sched.beta0) / sched.horizon_T
    b = sched.beta0
    t = (-b + math.sqrt(b * b + 4 * a * target)) / (2 * a)
    return t


def reference_cascade(mt):
    """Oracle: the active-pair rescan single linkage the matrix update replaced."""
    k = mt.shape[0]
    nodes = {i: {"class": i} for i in range(k)}
    members = {i: [i] for i in range(k)}
    active = list(range(k))
    while len(active) > 1:
        best = None
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                ca, cb = active[ai], active[bi]
                d = mt[np.ix_(members[ca], members[cb])].min()
                lo, hi = sorted((min(members[ca]), min(members[cb])))
                key = (d, lo, hi)
                if best is None or key < best[0]:
                    best = (key, ca, cb)
        (d, _, _), ca, cb = best
        lo, hi = (ca, cb) if min(members[ca]) < min(members[cb]) else (cb, ca)
        nodes[lo] = {"step": int(round(d)), "children": [nodes[lo], nodes[hi]]}
        members[lo] = members[lo] + members[hi]
        active.remove(hi)
        del nodes[hi], members[hi]
    return nodes[active[0]]


def internal_nodes(tree):
    """The {"step", "children"} nodes of a cascade tree, walked without recursion."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if "step" in node:
            out.append(node)
            stack.extend(node["children"])
    return out


def reference_empirical_series(sw, a, b, epsilon, metric, n=2):
    """Oracle: the per-pair, per-step empirical loop (two snapshots per step)
    that the one-snapshot-per-step walk replaced; returns (values, i*)."""
    stat = {"top_eigen_abs": "top_eigenvalue", "trace_l1": "frobenius_sq"}[metric]
    values = np.empty(len(sw.steps))
    istar = sw.horizon
    for i, t in enumerate(sw.steps):
        if t >= istar:
            values[i] = 1.0
            continue
        mat = conditional_fluctuation(sw, a, t, n=n, propagate=False)
        mbt = conditional_fluctuation(sw, b, t, n=n, propagate=False)
        if abs(getattr(mat, stat) - getattr(mbt, stat)) <= epsilon:
            istar = t
            values[i] = 1.0
        else:
            values[i] = normalized_M(mat, mbt)
    if sw.steps[-1] == sw.horizon:
        values[-1] = 1.0
    return values, istar


def propagated_frobenius(j2, m):
    d, tr = m.dim, np.trace(m.tensor)
    return j2**2 * m.frobenius_sq + 2 * j2 * (1 - j2) * tr + d * (1 - j2) ** 2


def propagated_cka(schedule, ts, ma, mb):
    """normalized_M along integer steps from step-0 moments (closed form)."""
    j2 = j_values(schedule, ts) ** 2
    d = ma.dim
    tra, trb = np.trace(ma.tensor), np.trace(mb.tensor)
    g0 = float(np.sum(ma.tensor * mb.tensor))
    g = j2**2 * g0 + j2 * (1 - j2) * (tra + trb) + d * (1 - j2) ** 2
    fa, fb = propagated_frobenius(j2, ma), propagated_frobenius(j2, mb)
    bad = (fa <= 0) | (fb <= 0)
    if np.any(bad):
        raise DegenerateError(f"zero-norm tensor at step {int(np.asarray(ts)[bad][0])}")
    return np.minimum(np.abs(g) / np.sqrt(fa * fb), 1.0)


def reference_series(sw, a, b, epsilon, metric):
    """Oracle: the per-pair analytic series the all-pairs broadcast replaced:
    an integer scan of 0..T for i*, then propagated_cka on the grid steps
    before it and 1 from it on; returns (values, i*)."""
    ma, mb = (conditional_fluctuation(sw, ev, 0) for ev in (a, b))
    j2 = j_values(sw.schedule, np.arange(0, sw.horizon + 1)) ** 2
    if metric == "top_eigen_abs":
        dist = j2 * np.abs(ma.top_eigenvalue - mb.top_eigenvalue)
    else:
        dist = np.abs(propagated_frobenius(j2, ma) - propagated_frobenius(j2, mb))
    hits = np.flatnonzero(dist <= epsilon)
    istar = int(hits[0]) if hits.size else sw.horizon
    grid = np.asarray(sw.steps, dtype=np.int64)
    values = np.ones(len(grid))
    before = grid < istar
    if before.any():
        values[before] = propagated_cka(sw.schedule, grid[before], ma, mb)
    return values, istar


@st.composite
def tie_heavy_matrices(draw):
    k = draw(st.integers(2, 12))
    upper = draw(st.lists(st.integers(0, 3), min_size=k * (k - 1) // 2,
                          max_size=k * (k - 1) // 2))
    m = np.zeros((k, k))
    m[np.triu_indices(k, 1)] = upper
    return m + m.T


def halves_sweep(ddpm, seed=HALVES_SEED, n=40000, d=16):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[: n // 2]] = 1
    ds = LabeledDataset(features=feats, labels=labels)
    return sweep(ds, ddpm, range(0, 1001, 10), SeedPolicy(base_seed=1))


class TestDefaultEpsilon:
    def make(self, lam):
        return ConditionalMoments.from_tensor(np.diag([lam, 1.0]))

    def test_rule_arithmetic(self):
        assert default_epsilon([self.make(10.0)]) == pytest.approx(0.025)
        assert default_epsilon([self.make(400.0)]) == pytest.approx(1.0)

    def test_max_rule(self):
        eps = default_epsilon([self.make(10.0), self.make(4.0)])
        assert eps == pytest.approx(10.0 / 400)

    def test_degenerate(self):
        zero = ConditionalMoments.from_tensor(np.zeros((2, 2)))
        with pytest.raises(DegenerateError):
            default_epsilon([zero])


class TestDetectSeries:
    def test_duplicate_halves_merge_at_zero(self, ddpm):
        sw = halves_sweep(ddpm)
        part = partition_by_label(sw.dataset)
        series = detect_series(sw, part.events[0], part.events[1], n=2)
        assert series.first_merge_step == 0
        assert np.all(series.values == 1.0)

    def test_two_class_fixture_matches_oracle(self, two_class_sweep, ddpm):
        sw, part = two_class_sweep
        series = detect_series(sw, part.events[0], part.events[1], n=2,
                               epsilon=0.06, metric="top_eigen_abs")
        oracle = closed_form_merge_step(ddpm, 6.0, 0.06)
        assert abs(series.first_merge_step - oracle) <= 2

    def test_tiny_epsilon_never_merges_before_horizon(self, two_class_sweep):
        sw, part = two_class_sweep
        series = detect_series(sw, part.events[0], part.events[1], n=2,
                               epsilon=1e-300)
        assert series.first_merge_step == sw.horizon
        assert series.values[-1] == 1.0

    def test_stickiness(self, two_class_sweep):
        sw, part = two_class_sweep
        series = detect_series(sw, part.events[0], part.events[1], n=2,
                               epsilon=0.06)
        istar = series.first_merge_step
        after = [v for t, v in zip(series.steps, series.values) if t >= istar]
        assert all(v == 1.0 for v in after)
        assert series.first_merge_step <= sw.horizon

    def test_values_in_unit_interval(self, two_class_sweep):
        sw, part = two_class_sweep
        series = detect_series(sw, part.events[0], part.events[1], n=2,
                               epsilon=0.06)
        assert np.all((series.values >= 0.0) & (series.values <= 1.0))

    def test_empirical_mode_agrees_roughly(self, ddpm):
        ds = two_class_dataset(seed=3, n_per_class=20000)
        sw = sweep(ds, ddpm, range(0, 1001, 10), SeedPolicy(base_seed=5))
        part = partition_by_label(ds)
        ana = detect_series(sw, part.events[0], part.events[1], epsilon=0.06)
        emp = detect_series(sw, part.events[0], part.events[1], epsilon=0.06,
                            mode="empirical")
        # the stochastic estimate carries per-step MC noise; agreement is
        # coarse, the analytic mode is the calibrated path
        assert abs(emp.first_merge_step - ana.first_merge_step) <= 60

    def test_overlapping_events_rejected(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError):
            detect_series(sw, part.events[0], part.events[0], n=2, epsilon=0.1)

    def test_bad_epsilon(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError):
            detect_series(sw, part.events[0], part.events[1], epsilon=-1.0)

    def test_order_one_rejected(self, two_class_sweep):
        # conditional-mean order-1 tensors are identically zero
        sw, part = two_class_sweep
        with pytest.raises(DomainError, match="tensor order must be 2"):
            detect_series(sw, part.events[0], part.events[1], n=1, epsilon=0.06)


class TestPairwiseMergeTimes:
    def test_two_classes(self, two_class_sweep):
        sw, part = two_class_sweep
        series = detect_series(sw, part.events[0], part.events[1], n=2,
                               epsilon=0.06)
        mt = pairwise_merge_times(sw, part, epsilon=0.06)
        assert mt[0, 0] == mt[1, 1] == 0
        assert mt[0, 1] == mt[1, 0] == series.first_merge_step

    def test_ordering_by_eigengap(self, ddpm):
        spectra = np.vstack([
            np.r_[10.0, np.ones(7)], np.r_[4.0, np.ones(7)], np.r_[3.9, np.ones(7)]
        ])
        from vpmerge import SyntheticSpec, synth_gaussian_mixture

        spec = SyntheticSpec(means=np.zeros((3, 8)), spectra=spectra,
                             samples_per_class=(20000,) * 3)
        ds = synth_gaussian_mixture(spec, seed=2)
        sw = sweep(ds, ddpm, [0, 1000], SeedPolicy(base_seed=3))
        mt = pairwise_merge_times(sw, partition_by_label(ds), epsilon=0.01)
        assert mt[1, 2] < mt[0, 1]  # smaller eigengap merges earlier

    def test_duplicate_classes_merge_at_zero(self, ddpm):
        sw = halves_sweep(ddpm)
        mt = pairwise_merge_times(sw, partition_by_label(sw.dataset))
        assert mt[0, 1] == 0

    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("n", [2])  # detect_series rejects order 1 (test_order_one_rejected)
    def test_matches_per_pair_series(self, ddpm, metric, n):
        sw = five_class_sweep(ddpm, [0, 500, 1000])
        part = partition_by_label(sw.dataset)
        mt = pairwise_merge_times(sw, part, epsilon=0.02, metric=metric)
        for i in range(5):
            for j in range(i + 1, 5):
                series = detect_series(sw, part.events[i], part.events[j], n=n,
                                       epsilon=0.02, metric=metric)
                assert mt[i, j] == mt[j, i] == series.first_merge_step

    def test_unknown_metric_rejected(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError, match="metric"):
            pairwise_merge_times(sw, part, epsilon=0.06, metric="l2")


class TestPairwiseSeries:
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("epsilon", [None, 0.02])
    def test_matches_per_pair_detect_series(self, ddpm, mode, metric, epsilon):
        sw = five_class_sweep(ddpm, [0, 100, 250, 500, 1000])
        part = partition_by_label(sw.dataset)
        # epsilon None is one threshold over all classes, not per pair
        eps = epsilon or default_epsilon(
            [conditional_fluctuation(sw, ev, 0) for ev in part.events])
        mt, values = pairwise_series(sw, part, epsilon=epsilon, metric=metric, mode=mode)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert values.shape == (len(pairs), len(sw.steps))
        for (i, j), row in zip(pairs, values):
            ref = detect_series(sw, part.events[i], part.events[j], epsilon=eps,
                                metric=metric, mode=mode)
            assert mt[i, j] == mt[j, i] == ref.first_merge_step
            assert row.tobytes() == ref.values.tobytes()
        assert np.array_equal(
            mt, pairwise_merge_times(sw, part, epsilon=epsilon, metric=metric, mode=mode))

    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("epsilon", [None, 0.02])
    def test_matches_per_pair_reference(self, ddpm, metric, epsilon):
        sw = five_class_sweep(ddpm, range(0, 1001, 10))
        part = partition_by_label(sw.dataset)

        def eps_over(events):  # the default is over the events passed in
            return epsilon or default_epsilon(
                [conditional_fluctuation(sw, ev, 0) for ev in events])

        mt, values = pairwise_series(sw, part, epsilon=epsilon, metric=metric)
        assert np.array_equal(mt, pairwise_merge_times(sw, part, epsilon=epsilon, metric=metric))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), row in zip(pairs, values):
            pair = (part.events[i], part.events[j])
            ref, istar = reference_series(sw, *pair, eps_over(part.events), metric)
            assert row.tobytes() == ref.tobytes()
            assert mt[i, j] == mt[j, i] == istar
            single = detect_series(sw, *pair, epsilon=epsilon, metric=metric)
            ref, istar = reference_series(sw, *pair, eps_over(pair), metric)
            assert single.values.tobytes() == ref.tobytes()
            assert single.first_merge_step == istar
            assert single.epsilon == eps_over(pair)
        assert len(set(mt[np.triu_indices(5, 1)])) > 3  # the pairs merge at different steps

    def test_zero_norm_tensor_raises_only_before_merging(self, ddpm):
        # class 0 is one repeated row (a zero covariance, so a zero-norm tensor
        # at step 0); class 2 is close enough to it to merge at step 0
        rng = np.random.default_rng(3)
        feats = np.vstack([np.zeros((50, 3)), 3.0 * rng.standard_normal((50, 3)),
                           1e-3 * rng.standard_normal((50, 3))])
        ds = LabeledDataset(features=feats, labels=np.repeat([0, 1, 2], 50))
        sw = sweep(ds, ddpm, [0, 500, 1000], SeedPolicy(base_seed=3))
        ev = partition_by_label(ds).events
        merged = detect_series(sw, ev[0], ev[2], epsilon=0.01)
        assert merged.first_merge_step == 0 and np.all(merged.values == 1.0)
        assert reference_series(sw, ev[0], ev[2], 0.01, "top_eigen_abs")[1] == 0
        with pytest.raises(DegenerateError) as want:
            reference_series(sw, ev[0], ev[1], 0.01, "top_eigen_abs")
        with pytest.raises(DegenerateError) as got:
            detect_series(sw, ev[0], ev[1], epsilon=0.01)
        assert str(got.value) == str(want.value) == "zero-norm tensor at step 0"
        with pytest.raises(DegenerateError, match="at step 0"):
            pairwise_series(sw, partition_by_label(ds), epsilon=0.01)

    def test_needs_two_events(self, two_class_sweep):
        sw, part = two_class_sweep
        one = EventPartition(events=(np.concatenate(part.events),))
        with pytest.raises(DataError, match="two events"):
            pairwise_series(sw, one)


class TestEmpiricalWalk:
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("epsilon", [None, 0.02])
    def test_matches_per_pair_reference(self, ddpm, metric, epsilon):
        sw = five_class_sweep(ddpm, range(0, 1001, 50))
        part = partition_by_label(sw.dataset)

        def eps_over(events):  # the default is over the events passed in
            return epsilon or default_epsilon(
                [conditional_fluctuation(sw, ev, 0) for ev in events])

        eps_all = eps_over(part.events)
        mt, values = pairwise_series(sw, part, epsilon=epsilon, metric=metric, mode="empirical")
        assert np.array_equal(mt, pairwise_merge_times(sw, part, epsilon=epsilon, metric=metric,
                                                       mode="empirical"))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), row in zip(pairs, values):
            pair = (part.events[i], part.events[j])
            ref, istar = reference_empirical_series(sw, *pair, eps_all, metric)
            assert row.tobytes() == ref.tobytes()
            assert mt[i, j] == mt[j, i] == istar
            single = detect_series(sw, *pair, epsilon=epsilon, metric=metric,
                                   mode="empirical")
            ref, istar = reference_empirical_series(sw, *pair, eps_over(pair), metric)
            assert single.values.tobytes() == ref.tobytes()
            assert single.first_merge_step == istar
            assert single.epsilon == eps_over(pair)

    def test_one_snapshot_per_grid_step(self, ddpm, monkeypatch):
        sw = five_class_sweep(ddpm, range(0, 1001, 50))
        taken = []
        snapshot = TrajectorySweep.snapshot
        monkeypatch.setattr(TrajectorySweep, "snapshot",
                            lambda self, t: taken.append(t) or snapshot(self, t))
        pairwise_merge_times(sw, partition_by_label(sw.dataset), epsilon=0.02,
                             mode="empirical")
        assert taken and len(taken) == len(set(taken)) <= len(sw.steps)


class TestCascade:
    def test_single_leaf(self):
        assert build_cascade(np.zeros((1, 1))) == {"class": 0}

    def test_two_classes(self):
        assert build_cascade(np.array([[0, 100], [100, 0]])) == {
            "step": 100, "children": [{"class": 0}, {"class": 1}]
        }

    def test_single_linkage_hand_trace(self):
        mt = np.array([
            [0, 100, 400],
            [100, 0, 350],
            [400, 350, 0],
        ])
        assert build_cascade(mt) == {
            "step": 350,
            "children": [
                {"step": 100, "children": [{"class": 0}, {"class": 1}]},
                {"class": 2},
            ],
        }

    def test_ultrametric_heights(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = rng.integers(2, 8)
            m = rng.integers(1, 1000, size=(k, k)).astype(float)
            m = np.triu(m, 1)
            m = m + m.T
            for node in internal_nodes(build_cascade(m)):
                for child in node["children"]:
                    assert child.get("step", 0) <= node["step"]

    def test_matches_scipy_heights(self):
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(3, 9))
            m = rng.integers(1, 1000, size=(k, k)).astype(float)
            m = np.triu(m, 1)
            m = m + m.T
            ours = sorted(n["step"] for n in internal_nodes(build_cascade(m)))
            ref = sorted(int(round(h)) for h in linkage(squareform(m), "single")[:, 2])
            assert ours == ref

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_matrices())
    def test_matches_reference_on_ties(self, m):
        assert build_cascade(m) == reference_cascade(m)

    def test_deep_chain_without_recursion(self):
        # every class merges at step 0: ties make a K - 1 deep left chain
        k = 1000
        node, right = build_cascade(np.zeros((k, k))), []
        while "step" in node:
            assert node["step"] == 0
            node, leaf = node["children"]
            right.append(leaf["class"])
        assert node == {"class": 0}
        assert right == list(range(k - 1, 0, -1))

    def test_validation(self):
        with pytest.raises(DomainError):
            build_cascade(np.array([[0, 1], [2, 0]]))
        with pytest.raises(DomainError):
            build_cascade(np.array([[0, -1], [-1, 0]]))
        with pytest.raises(DomainError, match="square"):
            build_cascade(np.zeros((2, 3)))


class TestGuidanceWindows:
    def test_rule_applied(self):
        mt = np.array([[0, 350], [350, 0]])
        wins = guidance_windows(mt, istar=600, horizon=1000)
        assert wins[0]["t_end"] == 350 and wins[0]["t_start"] == 600
        assert not wins[0]["never_merged"]

    def test_boundary_empty_window(self):
        mt = np.array([[0, 600], [600, 0]])
        wins = guidance_windows(mt, istar=600, horizon=1000)
        assert wins[0]["t_end"] == wins[0]["t_start"] == 600
        assert not wins[0]["never_merged"]

    def test_never_merged_clamped(self):
        mt = np.array([[0, 1000], [1000, 0]])
        wins = guidance_windows(mt, istar=600, horizon=1000)
        assert wins[0]["t_end"] == wins[0]["t_start"] == 600
        assert wins[0]["never_merged"]

    def test_min_over_partners(self):
        mt = np.array([
            [0, 350, 500],
            [350, 0, 420],
            [500, 420, 0],
        ])
        wins = guidance_windows(mt, istar=600, horizon=1000)
        assert [w["t_end"] for w in wins] == [350, 350, 420]

    def test_both_labels_in_dict(self):
        mt = np.array([[0, 350, 900], [350, 0, 900], [900, 900, 0]])
        wins = guidance_windows(mt, istar=600, horizon=1000)
        assert wins == [
            {"class": 0, "t_end": 350, "t_start": 600, "never_merged": False,
             "t_merge": 350, "t_conv": 600},
            {"class": 1, "t_end": 350, "t_start": 600, "never_merged": False,
             "t_merge": 350, "t_conv": 600},
            {"class": 2, "t_end": 600, "t_start": 600, "never_merged": True,
             "t_merge": 600, "t_conv": 600},
        ]
        # plain Python values, as json.dumps writes them
        assert {type(v) for w in wins for v in w.values()} == {int, bool}

    def test_single_class_never_merges(self):
        assert guidance_windows(np.zeros((1, 1)), istar=600, horizon=1000) == [
            {"class": 0, "t_end": 600, "t_start": 600, "never_merged": True,
             "t_merge": 600, "t_conv": 600}]

    def test_istar_range(self):
        with pytest.raises(DomainError):
            guidance_windows(np.zeros((2, 2)), istar=2000, horizon=1000)


class TestInterpolationSchedule:
    def test_max_beta_gives_scale(self, ddpm):
        sched = interpolation_schedule(ddpm, 0.001)
        assert sched["scale"] == 0.001
        assert sched["eta"][-1] == pytest.approx(0.001, rel=1e-12)

    def test_half_beta(self):
        ddpm = NoiseSchedule.ddpm_default()
        b = betas(ddpm)
        eta = interpolation_schedule(ddpm, 0.001)["eta"]
        idx = int(np.argmin(np.abs(b - b.max() / 2)))
        assert eta[idx] == pytest.approx(0.001 * b[idx] / b.max(), rel=1e-12)
        assert eta[idx] == pytest.approx(5e-4, rel=2e-3)

    def test_monotone_for_linear(self, ddpm):
        eta = interpolation_schedule(ddpm, 0.01)["eta"]
        assert len(eta) == ddpm.horizon_T
        assert np.all(np.diff(eta) >= 0)

    def test_band_warning(self, ddpm):
        assert interpolation_schedule(ddpm, 1e-3)["warning"] is None
        warned = interpolation_schedule(ddpm, 0.5)["warning"]
        assert warned is not None and "0.5" in warned

    def test_scale_range(self, ddpm):
        with pytest.raises(DomainError):
            interpolation_schedule(ddpm, 0.0)
        with pytest.raises(DomainError):
            interpolation_schedule(ddpm, 1.5)


class TestLatticeJump:
    def test_unit_step(self):
        series = np.r_[np.zeros(5), np.ones(6)]
        hits = lattice_jump(series, tau=1, order=1, eps_disc=0.5)
        assert 5 in hits
        assert set(hits) <= {4, 5}

    def test_constant_sequence(self):
        assert lattice_jump(np.ones(20), tau=1, order=1, eps_disc=0.1) == []

    def test_too_short(self):
        with pytest.raises(DomainError):
            lattice_jump(np.ones(4), tau=1, order=2, eps_disc=0.1)

    @pytest.mark.parametrize("tau,order", [(0, 1), (1, 0)])
    def test_tau_and_order_at_least_one(self, tau, order):
        with pytest.raises(DomainError, match=">= 1"):
            lattice_jump(np.ones(20), tau=tau, order=order, eps_disc=0.1)

    def test_recovers_merger_step(self, ddpm):
        ds = two_class_dataset(seed=0)
        sw = sweep(ds, ddpm, range(0, 1001), SeedPolicy(base_seed=1))
        part = partition_by_label(ds)
        series = detect_series(sw, part.events[0], part.events[1], epsilon=0.06)
        vals = np.asarray(series.values)
        ld = vals[1:-1] - vals[:-2]
        rd = vals[2:] - vals[1:-1]
        eps_disc = np.abs(ld - rd).max() / 2
        hits = lattice_jump(vals, tau=1, order=1, eps_disc=eps_disc)
        steps = [series.steps[h] for h in hits]
        assert series.first_merge_step in steps


class TestPhaseSpectrum:
    def test_duplicates_have_no_positive_mergers(self, ddpm):
        sw = halves_sweep(ddpm)
        part = partition_by_label(sw.dataset)
        eps0 = default_epsilon([
            __import__("vpmerge").conditional_fluctuation(sw, ev, 0)
            for ev in part.events
        ])
        counts = phase_spectrum(sw, part, epsilon_grid=[eps0, 2 * eps0, 4 * eps0])
        assert counts == [0, 0, 0]

    def test_two_distinct_classes_tiny_epsilon(self, two_class_sweep):
        sw, part = two_class_sweep
        counts = phase_spectrum(sw, part, epsilon_grid=[1e-6])
        assert counts == [1]

    def test_counts_non_increasing(self, ddpm):
        spectra = np.vstack([
            np.r_[10.0, np.ones(7)], np.r_[4.0, np.ones(7)], np.r_[2.0, np.ones(7)]
        ])
        from vpmerge import SyntheticSpec, synth_gaussian_mixture

        spec = SyntheticSpec(means=np.zeros((3, 8)), spectra=spectra,
                             samples_per_class=(20000,) * 3)
        ds = synth_gaussian_mixture(spec, seed=4)
        sw = sweep(ds, ddpm, [0, 1000], SeedPolicy(base_seed=5))
        grid = np.geomspace(1e-4, 20.0, 8)
        counts = phase_spectrum(sw, partition_by_label(ds), epsilon_grid=grid)
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    def test_one_step0_pass_matches_per_epsilon(self, ddpm, monkeypatch, metric):
        sw = five_class_sweep(ddpm, [0, 100, 250, 500, 1000])
        part = partition_by_label(sw.dataset)
        grid = np.geomspace(1e-3, 5.0, 12)
        want = []  # the oracle: one pairwise_merge_times and cascade per epsilon
        for eps in grid:
            cascade = build_cascade(pairwise_merge_times(sw, part, epsilon=eps, metric=metric))
            want.append(sum(nd["step"] > 0 for nd in internal_nodes(cascade)))
        assert len(set(want)) > 2
        calls = []
        moments = merger.conditional_fluctuation
        monkeypatch.setattr(merger, "conditional_fluctuation",
                            lambda *a, **kw: calls.append(a[1]) or moments(*a, **kw))
        assert phase_spectrum(sw, part, metric=metric, epsilon_grid=grid) == want
        assert len(calls) == part.n_events

    def test_grid_validation(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError):
            phase_spectrum(sw, part, epsilon_grid=[])
        with pytest.raises(DomainError):
            phase_spectrum(sw, part, epsilon_grid=[0.2, 0.1])
