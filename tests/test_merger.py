import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
from vpmerge.fluctuation import propagated_inner
from vpmerge.forward import TrajectorySweep
from vpmerge.merger import (build_cascade, default_epsilon, guidance_windows,
                            interpolation_schedule)
from vpmerge.schedule import _beta_integral, betas, j_values

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


def scan_oracle(j2, tops, epsilon):
    """Oracle: the per-row integer scan the binary search replaced; each
    pair's first step t with j2[t] * |gap| <= eps, the horizon if none."""
    k, horizon = len(tops), len(j2) - 1
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        merged = j2[:, None] * np.abs(tops[i] - tops[i + 1:]) <= epsilon
        first = np.where(merged.any(axis=0), merged.argmax(axis=0), horizon)
        out[i, i + 1:] = out[i + 1:, i] = first
    return out


def trace_scan_oracle(j2, frob, trace, d, epsilon):
    """Oracle: the per-row scan of the J^2 table the closed form replaced for
    the trace distance; each pair's first step t with
    |F_i(t) - F_j(t)| <= eps, the horizon if none."""
    k, horizon = len(frob), len(j2) - 1
    f = propagated_inner(j2[:, None], frob, trace, trace, d)
    out = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        merged = np.abs(f[:, i:i + 1] - f[:, i + 1:]) <= epsilon
        first = np.where(merged.any(axis=0), merged.argmax(axis=0), horizon)
        out[i, i + 1:] = out[i + 1:, i] = first
    return out


def step0_stats(tops, frob, trace, d):
    """ConditionalMoments carrying given step-0 statistics; the trace sits in
    the first diagonal entry of a d x d tensor, so np.trace returns it exactly."""
    out = []
    for top, f, tr in zip(tops, frob, trace):
        tensor = np.zeros((d, d))
        tensor[0, 0] = tr
        m = ConditionalMoments(tensor=tensor)
        vars(m).update(top_eigenvalue=float(top), frobenius_sq=float(f))  # seeds the cache
        out.append(m)
    return out


def tie_case(schedule, tops, frob, trace, d, eps):
    """A merge_step_cases value for given step-0 statistics."""
    j2 = j_values(schedule, np.arange(schedule.horizon_T + 1)) ** 2
    return schedule, j2, step0_stats(tops, frob, trace, d), eps


def scan_relation(schedule, moments0, metric, eps, got, steps):
    """Check _merge_steps' matrix got against the float scan on the given steps;
    True if some step t >= 1 there has a scan distance within tol of eps.

    The scan's distance at step t is the oracles' float expression, j2 |gap|
    or |F_i(t) - F_j(t)|.  Step 0 must agree with it exactly.  After that,
    every step 1 <= t < got has a distance > eps - tol, and the step got (if
    below T) one <= eps + tol.  Where no distance is within tol of eps, this
    is equality with the scan.

    tol bounds how far the scan's float distance and the closed form's
    rounding can move a distance off the real |A u^2 + B u| at u = J(t)^2 =
    exp(-x), x = int_0^t beta.  Both errors are the distance's slope in ln u,
    times a relative error of u, plus the scan's rounding of its sum:
    - u: the scan's J^2 = exp(-x/2)^2 with x from about 6 roundings
      (relative 2^-50 (1 + x)); the closed form's x = ln q - ln eps (absolute
      2^-53 (|ln q| + |ln eps|), and |ln q| <= x + |ln eps| at the step), and
      the relative error of x^-1 (about 8 roundings, 2^-50; as
      t x'(t) <= 2 x for a linear beta, it moves x by up to 2^-49 x);
      together below 2^-48 (1 + x + |ln eps|).
    - slope: u |gap| for top-eigen; |2 A u^2 + B u| for trace, below
      mag = |F_a| + |F_b| + 4 (|tr_a| + |tr_b|) + 2 d, the magnitudes the
      scan adds, whose rounding is a few ulps of mag.
    tol = 2^-46 (1 + x + |ln eps|) times u |gap| or mag, 4 times that bound,
    plus 2^-1074 (1 + |gap|) for top-eigen's subnormal j2 |gap|.
    """
    ia, ib = np.triu_indices(len(moments0), 1)
    j2 = j_values(schedule, steps) ** 2
    x = _beta_integral(schedule, steps)
    ln_eps = abs(math.log(eps)) if 0.0 < eps < math.inf else 0.0  # the strategy draws 0 and inf
    rel = 2.0**-46 * (1.0 + x + ln_eps)
    if metric == "top_eigen_abs":
        tops = np.array([m.top_eigenvalue for m in moments0])
        gap = np.abs(tops[ia] - tops[ib])[:, None]
        dist = j2 * gap
        tol = rel * dist + 2.0**-1074 * (1.0 + gap)
    else:
        frob = np.array([m.frobenius_sq for m in moments0])
        trace = np.array([np.trace(m.tensor) for m in moments0])
        d = moments0[0].dim
        f = propagated_inner(j2[:, None], frob, trace, trace, d).T
        dist = np.abs(f[ia] - f[ib])
        mag = np.abs(frob[ia]) + np.abs(frob[ib]) + 4.0 * (np.abs(trace[ia]) + np.abs(trace[ib]))
        tol = rel * (mag[:, None] + 2 * d)
    first = got[ia, ib][:, None]
    if steps[0] == 0:
        assert np.array_equal(first[:, 0] == 0, dist[:, 0] <= eps)
    later = steps >= 1
    before = later & (steps < first)
    assert np.all(dist[before] > (eps - tol)[before])
    at = (steps == first) & (first < schedule.horizon_T)
    assert np.all(dist[at] <= (eps + tol)[at])
    return bool(np.any((np.abs(dist - eps) <= tol)[:, later]))


def _first_true(lo, hi, pred):
    """The first t in lo..hi with pred(t), for pred false then true (hi if none)."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
    return lo


def decimal_merge_step(schedule, gap, lin, eps, got):
    """Oracle: a pair's merge step in real arithmetic (80 digits), and whether
    it is a tie with the closed form's step got.

    The float gap (the statistic's step-0 difference), B = lin (2 dtr for the
    trace, the gap for top-eigen), A = gap - lin as a float, eps and the
    schedule are exact inputs, as in the closed form.  The step is 0 when
    |gap| <= eps in floats, else the first t in 1..T with
    f(t) = |A u^2 + B u| <= eps, u = exp(-x(t)), x(t) = beta0 t +
    (betaT - beta0) t^2 / (2 T), and T if none.  f is monotone in t between
    the steps where u crosses the vertex -B / (2 A) and the zero -B / A (one
    piece when A = 0), so each piece is bisected, with no scan.  A tie is f
    within 1e-12 relative of eps at got, the oracle's step or the step before
    either."""
    if abs(gap) <= eps:
        return 0, False
    horizon = schedule.horizon_T
    with localcontext() as ctx:
        ctx.prec = 80
        a, b, e = Decimal(gap - lin), Decimal(lin), Decimal(eps)
        beta0 = Decimal(schedule.beta0)
        slope = (Decimal(schedule.betaT) - beta0) / (2 * horizon)

        def x(t):
            return beta0 * t + slope * t * t

        def f(t):
            u = (-x(t)).exp()
            return abs(a * u * u + b * u)

        cuts = {1, horizon + 1}
        for u in ((-b / (2 * a), -b / a) if a else ()):
            if 0 < u < 1:  # the first step with u(t) <= u
                cuts.add(_first_true(1, horizon + 1, lambda t, xu=-u.ln(): x(t) >= xu))
        cuts = sorted(cuts)
        want = horizon
        for lo, hi in zip(cuts, cuts[1:]):  # f is monotone on lo..hi - 1
            if f(lo) <= e:
                want = lo
                break
            if f(hi - 1) <= e:  # so f falls through eps on this piece
                want = _first_true(lo, hi - 1, lambda t: f(t) <= e)
                break
        near = {t for s in (got, want) for t in (s - 1, s) if 1 <= t <= horizon}
        return want, any(abs(f(t) - e) <= e / Decimal(10**12) for t in near)


def assert_matches_the_decimal_oracle(schedule, moments0, metric, eps):
    """_merge_steps against decimal_merge_step on every pair, up to ties;
    each tie is counted as a hypothesis event."""
    got = merger._merge_steps(schedule, moments0, eps, metric)
    stat = [getattr(m, merger._metric_stat(metric)) for m in moments0]
    for i, j in zip(*np.triu_indices(len(moments0), 1)):
        gap = stat[i] - stat[j]
        lin = 2.0 * (moments0[i].trace - moments0[j].trace) if metric == "trace_l1" else gap
        want, tie = decimal_merge_step(schedule, gap, lin, eps, int(got[i, j]))
        if got[i, j] != want:
            assert tie, (i, j, int(got[i, j]), want)
            event(f"{metric}: a tie of the closed form and the oracle")


def linkage_oracle(merge_times):
    """Oracle: the O(K^3) loop the row-minimum linkage replaced; each merge
    is the first row-major argmin of the whole matrix, row hi folded into lo."""
    dist = np.asarray(merge_times, dtype=np.float64).copy()
    k = dist.shape[0]
    np.fill_diagonal(dist, np.inf)
    for _ in range(k - 1):
        lo, hi = divmod(int(np.argmin(dist)), k)
        yield lo, hi, int(round(dist[lo, hi]))
        dist[lo, :] = dist[:, lo] = np.minimum(dist[lo], dist[hi])
        dist[lo, lo] = np.inf
        dist[hi, :] = dist[:, hi] = np.inf


def internal_nodes(tree):
    """The {"step", "children"} nodes of a cascade tree, walked without recursion."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if "step" in node:
            out.append(node)
            stack.extend(node["children"])
    return out


def reference_empirical_series(sw, a, b, epsilon, metric):
    """Oracle: the per-pair, per-step empirical loop (two snapshots per step)
    that the one-snapshot-per-step walk replaced; returns (values, i*)."""
    stat = {"top_eigen_abs": "top_eigenvalue", "trace_l1": "frobenius_sq"}[metric]
    values = np.empty(len(sw.steps))
    istar = sw.horizon
    for i, t in enumerate(sw.steps):
        if t >= istar:
            values[i] = 1.0
            continue
        mat = conditional_fluctuation(sw, a, t)
        mbt = conditional_fluctuation(sw, b, t)
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


@st.composite
def merge_step_cases(draw, max_classes=24, magnitude=None):
    """(schedule, J^2 over 0..T, step-0 statistics, eps) for _merge_steps: T
    from 1 to 10^4, beta0 from 1e-5 to 1e-2 with betaT / beta0 up to 1000 or
    1, K from 2 to max_classes, d from 1 to 39, a third of the classes drawn from a pool
    of three (so duplicates and zero gaps), in half the cases class 1 a copy
    of class 0 off by 1e-16 to 1e-6 relative, eps from 1e-320 to 1e3 or inf,
    or placed on the float distance of one pair at one step (or 1 ulp off),
    or within 4 ulps of the vertex of |Delta f(u)| =
    |u^2 (Delta F - 2 Delta tr) + 2 u Delta tr| for a pair built from Delta F
    and Delta tr.  With a metric as magnitude, the statistics and eps are
    scaled by 2^k, k from 0 to the largest that leaves that metric's statistics
    (for the trace, |F| + 4 |tr|) below DBL_MAX: a scaling that no rounding
    sees, up to statistics above DBL_MAX / 2."""
    horizon = draw(st.one_of(st.integers(1, 30), st.integers(1, 10_000)))
    beta0 = 10.0 ** draw(st.floats(-5.0, -2.0))
    ratio = draw(st.one_of(st.just(1.0), st.floats(1.0, 1000.0)))
    schedule = NoiseSchedule(beta0, min(beta0 * ratio, 0.999), horizon)
    k, d = draw(st.integers(2, max_classes)), draw(st.integers(1, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trace = rng.uniform(0.1, 5.0, k) * d
    frob = trace**2 / d * rng.uniform(1.0, 3.0, k)
    tops = rng.uniform(0.5, 20.0, k)
    dup = rng.random(k) < 1 / 3
    pool = rng.integers(0, min(3, k), k)[dup]
    trace[dup], frob[dup], tops[dup] = trace[pool], frob[pool], tops[pool]
    if draw(st.booleans()):  # class 1 a near copy of class 0
        for stat in (trace, frob, tops):
            stat[1] = stat[0] * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -6))
    eps = draw(st.one_of(st.floats(-12.0, 3.0), st.floats(-320.0, -12.0)).map(lambda e: 10.0**e)
               | st.just(np.inf))
    kind = draw(st.sampled_from(["free", "step", "vertex"]))
    if kind == "vertex" and np.isfinite(eps):
        u_v, sign = draw(st.floats(0.01, 0.99)), draw(st.sampled_from([-1.0, 1.0]))
        quad = -sign * eps / u_v**2  # |quad u^2 + lin u| peaks at eps at u_v
        dtr = -quad * u_v  # lin = 2 dtr = -2 quad u_v
        trace[1], frob[1] = trace[0] - dtr, frob[0] - (quad + 2.0 * dtr)
        a, b = np.array([frob[0], frob[1]]), np.array([trace[0], trace[1]])
        eps = abs(float(np.diff(propagated_inner(u_v, a, b, b, d))[0]))  # as rounded
        eps *= 1.0 + draw(st.integers(-4, 4)) * 2.0**-52
    j2 = j_values(schedule, np.arange(horizon + 1)) ** 2
    if kind == "step":  # eps on pair (0, K-1)'s float distance at one step
        s = rng.integers(0, horizon + 1)
        f = propagated_inner(j2[s], frob, trace, trace, d)
        value = draw(st.sampled_from([abs(tops[0] - tops[-1]) * j2[s], abs(f[0] - f[-1])]))
        if value > 0:
            eps = float(np.nextafter(value, draw(st.sampled_from([0.0, value, np.inf]))))
    if magnitude is not None:
        size = (np.max(np.abs(tops)) if magnitude == "top_eigen_abs"
                else np.max(np.abs(frob)) + 4.0 * np.max(np.abs(trace)))
        top = 1024 - math.frexp(size)[1]  # size 2^top in [DBL_MAX / 2, DBL_MAX]
        power = draw(st.one_of(st.just(0), st.integers(0, top), st.just(top)))
        with np.errstate(over="ignore"):  # eps may scale to inf
            tops, frob, trace, eps = (np.ldexp(v, power) for v in (tops, frob, trace, eps))
    return schedule, j2, step0_stats(tops, frob, trace, d), eps


@st.composite
def linkage_matrices(draw):
    """Symmetric K x K merge times, K in 0..25, off-diagonal heights drawn
    from 2, 3, 4 or 50 distinct values."""
    k = draw(st.integers(0, 25))
    count = draw(st.sampled_from([2, 3, 4, 50]))
    levels = draw(st.lists(st.integers(0, 1000), min_size=count, max_size=count, unique=True))
    upper = draw(st.lists(st.sampled_from(levels), min_size=k * (k - 1) // 2,
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
        return ConditionalMoments(np.diag([lam, 1.0]))

    def test_rule_arithmetic(self):
        assert default_epsilon([self.make(10.0)]) == pytest.approx(0.025)
        assert default_epsilon([self.make(400.0)]) == pytest.approx(1.0)

    def test_max_rule(self):
        eps = default_epsilon([self.make(10.0), self.make(4.0)])
        assert eps == pytest.approx(10.0 / 400)

    def test_degenerate(self):
        zero = ConditionalMoments(np.zeros((2, 2)))
        with pytest.raises(DegenerateError):
            default_epsilon([zero])


class TestDetectSeries:
    def test_duplicate_halves_merge_at_zero(self, ddpm):
        sw = halves_sweep(ddpm)
        part = partition_by_label(sw.dataset)
        mt, values = detect_series(sw, part)
        assert mt[0, 1] == 0
        assert np.all(values == 1.0)

    def test_two_class_fixture_matches_oracle(self, two_class_sweep, ddpm):
        sw, part = two_class_sweep
        mt, _ = detect_series(sw, part, epsilon=0.06, metric="top_eigen_abs")
        oracle = closed_form_merge_step(ddpm, 6.0, 0.06)
        assert abs(mt[0, 1] - oracle) <= 2

    def test_tiny_epsilon_never_merges_before_horizon(self, two_class_sweep):
        sw, part = two_class_sweep
        mt, values = detect_series(sw, part, epsilon=1e-300)
        assert mt[0, 1] == sw.horizon
        assert values[0, -1] == 1.0

    def test_stickiness(self, two_class_sweep):
        sw, part = two_class_sweep
        mt, values = detect_series(sw, part, epsilon=0.06)
        istar = mt[0, 1]
        after = [v for t, v in zip(sw.steps, values[0]) if t >= istar]
        assert all(v == 1.0 for v in after)
        assert istar <= sw.horizon

    def test_values_in_unit_interval(self, two_class_sweep):
        sw, part = two_class_sweep
        _, values = detect_series(sw, part, epsilon=0.06)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_empirical_mode_agrees_roughly(self, ddpm):
        ds = two_class_dataset(seed=3, n_per_class=20000)
        sw = sweep(ds, ddpm, range(0, 1001, 10), SeedPolicy(base_seed=5))
        part = partition_by_label(ds)
        ana, _ = detect_series(sw, part, epsilon=0.06)
        emp, _ = detect_series(sw, part, epsilon=0.06, mode="empirical")
        # the stochastic estimate carries per-step MC noise; agreement is
        # coarse, the analytic mode is the calibrated path
        assert abs(emp[0, 1] - ana[0, 1]) <= 60

    def test_overlapping_events_accepted(self, two_class_sweep):
        # as in pairwise_merge_times: one class passed twice merges at step 0
        sw, part = two_class_sweep
        mt, values = detect_series(sw, [part[0], part[0]], epsilon=0.1)
        assert mt[0, 1] == 0 and np.all(values == 1.0)
        assert np.array_equal(mt, pairwise_merge_times(sw, [part[0], part[0]], epsilon=0.1))

    def test_bad_epsilon(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError):
            detect_series(sw, part, epsilon=-1.0)


class TestPairwiseMergeTimes:
    def test_two_classes(self, two_class_sweep):
        sw, part = two_class_sweep
        series_mt, _ = detect_series(sw, part, epsilon=0.06)
        mt = pairwise_merge_times(sw, part, epsilon=0.06)
        assert mt[0, 0] == mt[1, 1] == 0
        assert mt[0, 1] == mt[1, 0] == series_mt[0, 1]

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
    def test_matches_per_pair_series(self, ddpm, metric):
        sw = five_class_sweep(ddpm, [0, 500, 1000])
        part = partition_by_label(sw.dataset)
        mt = pairwise_merge_times(sw, part, epsilon=0.02, metric=metric)
        for i in range(5):
            for j in range(i + 1, 5):
                series_mt, _ = detect_series(sw, [part[i], part[j]],
                                             epsilon=0.02, metric=metric)
                assert mt[i, j] == mt[j, i] == series_mt[0, 1]

    def test_unknown_metric_rejected(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError, match="metric"):
            pairwise_merge_times(sw, part, epsilon=0.06, metric="l2")

    def test_unknown_mode_rejected(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError, match="unknown mode"):
            pairwise_merge_times(sw, part, epsilon=0.06, mode="bogus")

    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    def test_any_subset_of_events(self, ddpm, metric, mode):
        """At an explicit eps, the merge steps of some classes, in any order,
        are their entries of the all-class matrix.  Under the default eps this
        does not hold: it is taken over the events passed."""
        sw = five_class_sweep(ddpm, range(0, 1001, 50))
        part = partition_by_label(sw.dataset)
        full = pairwise_merge_times(sw, part, epsilon=0.05, metric=metric, mode=mode)
        assert len(np.unique(full)) > 3
        for subset in ([4, 0, 2], [1, 3], [3, 2, 4, 1]):
            mt = pairwise_merge_times(sw, [part[i] for i in subset], epsilon=0.05,
                                      metric=metric, mode=mode)
            assert np.array_equal(mt, full[np.ix_(subset, subset)]), subset


class TestMergeSteps:
    # the scan up to ties (scan_relation); at the two examples eps is within
    # rounding of the distance at a step and the two differ by one step: the
    # scan gives 1 and the closed form 2 (top-eigen), the scan 23 and the
    # closed form 22 (trace)
    @settings(max_examples=300, deadline=None)
    @given(merge_step_cases())
    @example(tie_case(NoiseSchedule(1e-3, 1e-3, 2), [16.35876966440531, 18.298733756915574],
                      [1.0, 1.0], [1.0, 1.0], 2, 1.9380250980765519))
    def test_top_eigen_matches_the_scan(self, case):
        schedule, j2, moments0, eps = case
        tops = np.array([m.top_eigenvalue for m in moments0])
        got = merger._merge_steps(schedule, moments0, eps, "top_eigen_abs")
        steps = np.arange(schedule.horizon_T + 1)
        if not scan_relation(schedule, moments0, "top_eigen_abs", eps, got, steps):
            assert np.array_equal(got, scan_oracle(j2, tops, eps))

    @settings(max_examples=300, deadline=None)
    @given(merge_step_cases())
    @example(tie_case(NoiseSchedule(0.002644300301811709, 0.999, 27), [1.0, 1.0],
                      [15.384206704771989, 15.384206704772092],
                      [3.5189074607362483, 3.5189074607400572], 1, 1e-15))
    def test_trace_matches_the_scan(self, case):
        schedule, j2, moments0, eps = case
        frob = np.array([m.frobenius_sq for m in moments0])
        trace = np.array([np.trace(m.tensor) for m in moments0])
        got = merger._merge_steps(schedule, moments0, eps, "trace_l1")
        steps = np.arange(schedule.horizon_T + 1)
        if not scan_relation(schedule, moments0, "trace_l1", eps, got, steps):
            assert np.array_equal(got, trace_scan_oracle(j2, frob, trace, moments0[0].dim, eps))

    # the decimal oracle up to ties (decimal_merge_step), at up to three
    # classes and up to statistics above DBL_MAX / 2; the examples: the scan
    # tests' ties, the pair of test_no_table_over_the_horizon (T = 4e8, where
    # at eps 1e-300 the float scan stops at 345421), and statistics above
    # DBL_MAX / 2, where lin + root (top-eigen, as the band with A = 0) or
    # c = 2 sqrt(|A| eps) (trace) overflows a full-scale sum, and a subnormal
    # gap of 3 units, whose half rounds to 2
    @settings(max_examples=300, deadline=None)
    @given(merge_step_cases(max_classes=3, magnitude="top_eigen_abs"))
    @example(tie_case(NoiseSchedule(1e-3, 1e-3, 2), [16.35876966440531, 18.298733756915574],
                      [1.0, 1.0], [1.0, 1.0], 2, 1.9380250980765519))
    @example((NoiseSchedule(1e-4, 0.02, 400_000_000), None,
              step0_stats([8.0, 1.0], [80.0, 20.0], [13.0, 6.0], 6), 0.02))
    @example((NoiseSchedule(), None, step0_stats([1.5e308, 1e307], [1.0, 1.0], [1.0, 1.0], 2),
              1e306))
    @example((NoiseSchedule(), None, step0_stats([1.5e-323, 0.0], [1.0, 1.0], [1.0, 1.0], 2),
              5e-324))
    def test_top_eigen_matches_the_decimal_oracle(self, case):
        schedule, _, moments0, eps = case
        assert_matches_the_decimal_oracle(schedule, moments0, "top_eigen_abs", eps)

    @settings(max_examples=300, deadline=None)
    @given(merge_step_cases(max_classes=3, magnitude="trace_l1"))
    @example(tie_case(NoiseSchedule(0.002644300301811709, 0.999, 27), [1.0, 1.0],
                      [15.384206704771989, 15.384206704772092],
                      [3.5189074607362483, 3.5189074607400572], 1, 1e-15))
    @example((NoiseSchedule(1e-4, 0.02, 400_000_000), None,
              step0_stats([8.0, 1.0], [80.0, 20.0], [13.0, 6.0], 6), 1e-300))
    @example((NoiseSchedule(1e-4, 0.02, 400_000_000), None,
              step0_stats([8.0, 1.0], [80.0, 20.0], [13.0, 6.0], 6), 1e-100))
    @example((NoiseSchedule(1e-4, 0.02, 400_000_000), None,
              step0_stats([8.0, 1.0], [80.0, 20.0], [13.0, 6.0], 6), 0.02))
    @example((NoiseSchedule(), None,
              step0_stats([1.0, 1.0], [1.7e308, 1e307], [1e150, 2e150], 6), 1e308))
    def test_trace_matches_the_decimal_oracle(self, case):
        schedule, _, moments0, eps = case
        assert_matches_the_decimal_oracle(schedule, moments0, "trace_l1", eps)

    @pytest.mark.parametrize("schedule", [NoiseSchedule(1e-17, 0.5, 3000),
                                          NoiseSchedule(1e-300, 1e-300, 50)])
    def test_steps_below_rounding_match_the_scan(self, schedule):
        # beta0 so small that J^2 moves by less than its rounding from one
        # step to the next (or never moves): the windows span many steps
        rng = np.random.default_rng(5)
        tops, trace = rng.uniform(0.5, 20.0, 8), rng.uniform(1.0, 5.0, 8)
        moments0 = step0_stats(tops, trace**2 * rng.uniform(0.2, 1.0, 8), trace, 3)
        frob = np.array([m.frobenius_sq for m in moments0])
        j2 = j_values(schedule, np.arange(schedule.horizon_T + 1)) ** 2
        for eps in (1e-9, 0.3, 4.0):
            assert np.array_equal(merger._merge_steps(schedule, moments0, eps, "top_eigen_abs"),
                                  scan_oracle(j2, tops, eps))
            assert np.array_equal(merger._merge_steps(schedule, moments0, eps, "trace_l1"),
                                  trace_scan_oracle(j2, frob, trace, 3, eps))

    @pytest.mark.parametrize("scale", [1e60, 1e75])
    def test_large_magnitudes_do_not_overflow(self, scale):
        # features times scale: an isotropic class against a spiked one of a
        # smaller trace but a larger ||S||_F^2 (quad < 0), where 4 |quad| eps
        # overflows at the default eps (the pair never merges before T) and at
        # an eps of order ||S||_F^2 (it merges at a positive step)
        s = scale**2
        frob, trace = np.array([2.0, 2.25]) * s * s, np.array([2.0, 1.5]) * s
        moments0 = step0_stats([s, 1.5 * s], frob, trace, 2)
        schedule = NoiseSchedule(1e-4, 0.02, 1000)
        j2 = j_values(schedule, np.arange(schedule.horizon_T + 1)) ** 2
        for eps, want in ((1.5 * s / 400, schedule.horizon_T), (0.1 * s * s, None)):
            got = merger._merge_steps(schedule, moments0, eps, "trace_l1")
            assert 0 < got[0, 1] < schedule.horizon_T if want is None else got[0, 1] == want
            assert not scan_relation(schedule, moments0, "trace_l1", eps, got,
                                     np.arange(schedule.horizon_T + 1))
            assert np.array_equal(got, trace_scan_oracle(j2, frob, trace, 2, eps))

    def test_zero_gap_merges_at_step_zero(self):
        # beta = 1e-300 keeps J^2 at exactly 1: the pairs (0, 1), (0, 2), (1, 2)
        # of top eigenvalues 2, 2, 5 merge at step 0 or never
        moments0 = step0_stats([2.0, 2.0, 5.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2)
        got = merger._merge_steps(NoiseSchedule(1e-300, 1e-300, 10), moments0, 0.5,
                                  "top_eigen_abs")
        assert got[np.triu_indices(3, 1)].tolist() == [0, 10, 10]

    @pytest.mark.parametrize("metric, eps", [
        pytest.param("top_eigen_abs", 0.02, id="top_eigen_abs"),
        pytest.param("trace_l1", 0.02, id="trace_l1"),
        pytest.param("trace_l1", 1e-300, id="trace_l1-tiny-eps")])
    def test_no_table_over_the_horizon(self, metric, eps):
        # T = 4e8 would need a 3.2 GB J^2 table; the merge step is found with
        # no T-sized array, and the scan of 0..step + 1 (in blocks) agrees with
        # it: exactly at eps = 0.02, where no step is a tie, and up to ties at
        # 1e-300, where the float trace difference cancels to 0 long before the
        # real one reaches eps (the scan's step 345421, the closed form's 3639398)
        schedule = NoiseSchedule(1e-4, 0.02, 400_000_000)
        moments0 = step0_stats([8.0, 1.0], [80.0, 20.0], [13.0, 6.0], 6)
        got = merger._merge_steps(schedule, moments0, eps, metric)
        assert 0 < got[0, 1] < schedule.horizon_T
        ties = [scan_relation(schedule, moments0, metric, eps, got,
                              np.arange(lo, min(lo + 2**18, got[0, 1] + 2)))
                for lo in range(0, got[0, 1] + 2, 2**18)]
        assert any(ties) == (eps == 1e-300)


class TestPairwiseSeries:
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("epsilon", [None, 0.02])
    def test_matches_per_pair_detect_series(self, ddpm, mode, metric, epsilon):
        sw = five_class_sweep(ddpm, [0, 100, 250, 500, 1000])
        part = partition_by_label(sw.dataset)
        # epsilon None is one threshold over all classes, not per pair
        eps = epsilon or default_epsilon(
            [conditional_fluctuation(sw, ev, 0) for ev in part])
        mt, values = detect_series(sw, part, epsilon=epsilon, metric=metric, mode=mode)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert values.shape == (len(pairs), len(sw.steps))
        for (i, j), row in zip(pairs, values):
            ref_mt, ref_values = detect_series(sw, [part[i], part[j]], epsilon=eps,
                                               metric=metric, mode=mode)
            assert mt[i, j] == mt[j, i] == ref_mt[0, 1]
            assert row.tobytes() == ref_values[0].tobytes()
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

        mt, values = detect_series(sw, part, epsilon=epsilon, metric=metric)
        assert np.array_equal(mt, pairwise_merge_times(sw, part, epsilon=epsilon, metric=metric))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), row in zip(pairs, values):
            pair = (part[i], part[j])
            ref, istar = reference_series(sw, *pair, eps_over(part), metric)
            assert row.tobytes() == ref.tobytes()
            assert mt[i, j] == mt[j, i] == istar
            single_mt, single = detect_series(sw, pair, epsilon=epsilon, metric=metric)
            ref, istar = reference_series(sw, *pair, eps_over(pair), metric)
            assert single[0].tobytes() == ref.tobytes()
            assert single_mt[0, 1] == istar
        assert len(set(mt[np.triu_indices(5, 1)])) > 3  # the pairs merge at different steps

    def test_zero_norm_tensor_raises_only_before_merging(self, ddpm):
        # class 0 is one repeated row (a zero covariance, so a zero-norm tensor
        # at step 0); class 2 is close enough to it to merge at step 0
        rng = np.random.default_rng(3)
        feats = np.vstack([np.zeros((50, 3)), 3.0 * rng.standard_normal((50, 3)),
                           1e-3 * rng.standard_normal((50, 3))])
        ds = LabeledDataset(features=feats, labels=np.repeat([0, 1, 2], 50))
        sw = sweep(ds, ddpm, [0, 500, 1000], SeedPolicy(base_seed=3))
        ev = partition_by_label(ds)
        merged_mt, merged = detect_series(sw, [ev[0], ev[2]], epsilon=0.01)
        assert merged_mt[0, 1] == 0 and np.all(merged == 1.0)
        assert reference_series(sw, ev[0], ev[2], 0.01, "top_eigen_abs")[1] == 0
        with pytest.raises(DegenerateError) as want:
            reference_series(sw, ev[0], ev[1], 0.01, "top_eigen_abs")
        with pytest.raises(DegenerateError) as got:
            detect_series(sw, [ev[0], ev[1]], epsilon=0.01)
        assert str(got.value) == str(want.value) == "zero-norm tensor at step 0"
        with pytest.raises(DegenerateError, match="at step 0"):
            detect_series(sw, partition_by_label(ds), epsilon=0.01)

    def test_needs_two_events(self, two_class_sweep):
        sw, part = two_class_sweep
        one = (np.concatenate(part),)
        with pytest.raises(DataError, match="two events"):
            detect_series(sw, one)


class TestEmpiricalWalk:
    @pytest.mark.parametrize("metric", ["top_eigen_abs", "trace_l1"])
    @pytest.mark.parametrize("epsilon", [None, 0.02])
    def test_matches_per_pair_reference(self, ddpm, metric, epsilon):
        sw = five_class_sweep(ddpm, range(0, 1001, 50))
        part = partition_by_label(sw.dataset)

        def eps_over(events):  # the default is over the events passed in
            return epsilon or default_epsilon(
                [conditional_fluctuation(sw, ev, 0) for ev in events])

        eps_all = eps_over(part)
        mt, values = detect_series(sw, part, epsilon=epsilon, metric=metric, mode="empirical")
        assert np.array_equal(mt, pairwise_merge_times(sw, part, epsilon=epsilon, metric=metric,
                                                       mode="empirical"))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for (i, j), row in zip(pairs, values):
            pair = (part[i], part[j])
            ref, istar = reference_empirical_series(sw, *pair, eps_all, metric)
            assert row.tobytes() == ref.tobytes()
            assert mt[i, j] == mt[j, i] == istar
            single_mt, single = detect_series(sw, pair, epsilon=epsilon, metric=metric,
                                              mode="empirical")
            ref, istar = reference_empirical_series(sw, *pair, eps_over(pair), metric)
            assert single[0].tobytes() == ref.tobytes()
            assert single_mt[0, 1] == istar

    def test_merge_times_compute_no_similarity(self, ddpm, monkeypatch):
        # ||S||_F^2 and <S_a, S_b> are read only for a series
        sw = five_class_sweep(ddpm, range(0, 1001, 100))
        part = partition_by_label(sw.dataset)
        calls = []
        monkeypatch.setattr(merger, "normalized_M",
                            lambda a, b: calls.append(1) or normalized_M(a, b))
        pairwise_merge_times(sw, part, epsilon=0.02, mode="empirical")
        assert calls == []
        detect_series(sw, part, epsilon=0.02, mode="empirical")
        assert calls

    def test_one_snapshot_per_grid_step(self, ddpm, monkeypatch):
        sw = five_class_sweep(ddpm, range(0, 1001, 50))
        taken = []
        snapshot = TrajectorySweep.snapshot
        monkeypatch.setattr(TrajectorySweep, "snapshot",
                            lambda self, t, *args, **kwargs:
                            taken.append(t) or snapshot(self, t, *args, **kwargs))
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

    @settings(max_examples=200, deadline=None)
    @given(linkage_matrices())
    def test_linkage_matches_the_loop(self, m):
        assert list(merger._single_linkage(m)) == list(linkage_oracle(m))

    def test_at_most_one_class_has_no_merges(self):
        assert list(merger._single_linkage(np.zeros((0, 0)))) == []
        assert list(merger._single_linkage(np.zeros((1, 1)))) == []

    def test_no_classes_rejected(self):
        with pytest.raises(DomainError, match="no classes"):
            build_cascade(np.zeros((0, 0)))

    def test_validation(self):
        with pytest.raises(DomainError):
            build_cascade(np.array([[0, 1], [2, 0]]))
        with pytest.raises(DomainError):
            build_cascade(np.array([[0, -1], [-1, 0]]))
        with pytest.raises(DomainError, match="square"):
            build_cascade(np.zeros((2, 3)))
        # merge times are finite whole steps, exactly symmetric
        for bad in ([[0, 1000], [1000.001, 0]], [[0, np.inf], [np.inf, 0]], [[0, 2.5], [2.5, 0]]):
            with pytest.raises(DomainError):
                build_cascade(np.array(bad))


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
        ddpm = NoiseSchedule()
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


def lattice_jump_oracle(series, tau, order, eps_disc):
    """lattice_jump's differences one index at a time."""
    phi = np.asarray(series, dtype=np.float64)
    coeff = np.array([(-1) ** j * math.comb(order, j) for j in range(order + 1)])
    out = []
    for t in range(order * tau, len(phi) - order * tau):
        left = sum(coeff[j] * phi[t - j * tau] for j in range(order + 1))
        right = sum(coeff[j] * phi[t + (order - j) * tau] for j in range(order + 1))
        if abs(left - right) / tau**order >= eps_disc:
            out.append(t)
    return out


class TestLatticeJump:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_index_oracle(self, data):
        order, tau = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        length = data.draw(st.integers(2 * order * tau + 1, 2 * order * tau + 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["noisy", "rounded", "step"]))
        series = rng.standard_normal(length)
        if kind == "rounded":  # ties of the differences with eps_disc
            series = np.round(series, 1)
        elif kind == "step":
            series = np.cumsum(rng.random(length) < 0.1) + 1e-3 * series
        eps_disc = data.draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0]))
        hits = lattice_jump(series, tau=tau, order=order, eps_disc=eps_disc)
        assert hits == lattice_jump_oracle(series, tau, order, eps_disc)
        assert all(type(h) is int for h in hits)

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

    @pytest.mark.parametrize("eps_disc", [0.0, -1.0, math.nan])
    def test_eps_disc_positive(self, eps_disc):
        with pytest.raises(DomainError, match="eps_disc must be positive"):
            lattice_jump(np.ones(20), tau=1, order=1, eps_disc=eps_disc)

    def test_recovers_merger_step(self, ddpm):
        ds = two_class_dataset(seed=0)
        sw = sweep(ds, ddpm, range(0, 1001), SeedPolicy(base_seed=1))
        part = partition_by_label(ds)
        mt, values = detect_series(sw, part, epsilon=0.06)
        vals = values[0]
        ld = vals[1:-1] - vals[:-2]
        rd = vals[2:] - vals[1:-1]
        eps_disc = np.abs(ld - rd).max() / 2
        hits = lattice_jump(vals, tau=1, order=1, eps_disc=eps_disc)
        steps = [sw.steps[h] for h in hits]
        assert mt[0, 1] in steps


@st.composite
def phase_cases(draw):
    """A sweep of K classes with patched step-0 statistics, drawn from a pool of
    three classes with exact copies and near ones (relatively one ulp or 1e-12
    apart), a horizon T, a metric and an increasing eps grid on and beside the
    gaps between the sorted statistics."""
    k = draw(st.integers(2, 16))
    horizon = draw(st.sampled_from([1, 2, 50, 1000, 100_000]))
    metric = draw(st.sampled_from(["top_eigen_abs", "trace_l1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top, trace, frob = rng.uniform(0.5, 20.0, (3, 3))[:, rng.integers(0, 3, k)]
    near = rng.choice([1.0, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-12], (2, k))
    tops, frob = top * near[0], frob * near[1]
    moments0 = step0_stats(tops, frob, trace, 3)
    gaps = np.diff(np.sort(tops if metric == "top_eigen_abs" else frob))
    grid = np.concatenate([gaps, np.nextafter(gaps, 0.0), np.nextafter(gaps, np.inf),
                           rng.uniform(0.0, 20.0, 3)])
    grid = np.unique(grid[grid > 0.0])
    ds = LabeledDataset(features=np.zeros((k, 1)), labels=np.arange(k))
    sw = sweep(ds, NoiseSchedule(1e-4, 0.02, horizon), [0], SeedPolicy(base_seed=0))
    return sw, partition_by_label(ds), moments0, metric, grid


class TestPhaseSpectrum:
    @settings(max_examples=120, deadline=None)
    @given(phase_cases())
    def test_counts_the_gaps_between_sorted_statistics(self, case):
        # the oracle: a merge-step search and a cascade per epsilon, whose
        # positive-step merges are counted; phase_spectrum runs neither
        sw, part, moments0, metric, grid = case

        def forbidden(*args, **kwargs):
            raise AssertionError("phase_spectrum searched merge steps or built a cascade")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(merger, "_moments0", lambda sweep, events: moments0)
            want = [sum(node["step"] > 0 for node in internal_nodes(build_cascade(
                pairwise_merge_times(sw, part, epsilon=eps, metric=metric)))) for eps in grid]
            mp.setattr(merger, "_merge_steps", forbidden)
            mp.setattr(merger, "_single_linkage", forbidden)
            assert phase_spectrum(sw, part, grid, metric=metric) == want

    def test_duplicates_have_no_positive_mergers(self, ddpm):
        sw = halves_sweep(ddpm)
        part = partition_by_label(sw.dataset)
        eps0 = default_epsilon([
            __import__("vpmerge").conditional_fluctuation(sw, ev, 0)
            for ev in part
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
        assert len(calls) == len(part)

    def test_grid_validation(self, two_class_sweep):
        sw, part = two_class_sweep
        with pytest.raises(DomainError):
            phase_spectrum(sw, part, epsilon_grid=[])
        with pytest.raises(DomainError):
            phase_spectrum(sw, part, epsilon_grid=[0.2, 0.1])
        for grid in ([1e-3, math.nan], [math.nan, 1.0]):  # nan passes no comparison
            with pytest.raises(DomainError, match="positive and increasing"):
                phase_spectrum(sw, part, epsilon_grid=grid)
