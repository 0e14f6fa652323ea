"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are pinned here; every expected value is either
closed-form arithmetic or comes from an in-test oracle (quadrature,
dense eigensolvers, truncated-moment formulas, reference statistics).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from vpmerge import (
    ConditionalMoments,
    LabeledDataset,
    NoiseSchedule,
    SeedPolicy,
    SyntheticSpec,
    conditional_fluctuation,
    convergence_step,
    detect_series,
    empirical_cf_distance,
    lattice_jump,
    moment_tv_check,
    normalized_M,
    pairwise_merge_times,
    partition_by_label,
    phase_spectrum,
    predict_mixing_step,
    sweep,
    synth_gaussian_mixture,
    tv_distance_1d,
    weight_law,
)
from vpmerge.cli import execute
from vpmerge.fluctuation import moments_from_rows
from vpmerge.schedule import j_values

from conftest import two_class_dataset

DDPM = NoiseSchedule()


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def merge_oracle(delta_lambda, eps, sched=DDPM):
    """Closed-form solve of J(t)^2 * delta = eps through the schedule."""
    target = math.log(delta_lambda / eps)
    a = 0.5 * (sched.betaT - sched.beta0) / sched.horizon_T
    b = sched.beta0
    return (-b + math.sqrt(b * b + 4 * a * target)) / (2 * a)


def spiked_gaussians(seed, tops, d=8, n=20000, mean_sep=0.0):
    spectra = np.vstack([np.r_[lam, np.ones(d - 1)] for lam in tops])
    means = np.zeros((len(tops), d))
    for k in range(len(tops)):
        means[k, k % d] = mean_sep
    spec = SyntheticSpec(means=means, spectra=spectra,
                         samples_per_class=(n,) * len(tops))
    return synth_gaussian_mixture(spec, seed=seed)


def test_01_mixing_time_reproduction():
    t0 = time.time()
    rows = {3072: 0.602, 784: 0.543, 4096: 0.614}
    errs = {d: abs(predict_mixing_step(DDPM, d)["t_mix_fraction"] - v)
            for d, v in rows.items()}
    elapsed = time.time() - t0
    ok = all(e <= 0.005 for e in errs.values()) and elapsed < 1.0
    report(1, ok, f"mixing fractions off by {max(errs.values()):.2e}, "
                  f"{elapsed * 1e3:.0f} ms")


def test_02_merger_time_oracle():
    t0 = time.time()
    oracle = merge_oracle(6.0, 0.06)
    detected = []
    for seed in range(5):
        ds = two_class_dataset(seed=seed, n_per_class=20000, d=16)
        sw = sweep(ds, DDPM, [0, 1000], SeedPolicy(base_seed=seed))
        part = partition_by_label(ds)
        mt, _ = detect_series(sw, part, epsilon=0.06, metric="top_eigen_abs")
        detected.append(int(mt[0, 1]))
    elapsed = time.time() - t0
    devs = [abs(i - oracle) for i in detected]
    ok = all(dv <= 2.0 for dv in devs) and elapsed < 120.0
    report(2, ok, f"i* = {detected} vs oracle {oracle:.1f}, {elapsed:.1f} s")


def test_03_eigenvalue_contraction():
    ds = spiked_gaussians(seed=3, tops=[10.0], d=16, n=50000)
    steps = [int(t) for t in np.linspace(0, 700, 11)]
    sw = sweep(ds, DDPM, steps, SeedPolicy(base_seed=30))
    rows = np.arange(ds.count)
    lam0 = conditional_fluctuation(sw, rows, 0).top_eigenvalue
    worst = 0.0
    for t in steps[1:]:
        emp = conditional_fluctuation(sw, rows, t).top_eigenvalue
        j2 = float(j_values(DDPM, t)) ** 2
        law = lam0 * j2 + (1.0 - j2)
        worst = max(worst, abs(emp - law) / law)
    report(3, worst < 0.03, f"max relative deviation {worst:.4f} over 11 steps")


def test_04_one_sweep_estimator():
    # half-space of a standard Gaussian: conditional covariance is
    # diag(1 - 2/pi, 1, ..., 1) (truncated-normal oracle)
    d = 6
    rng = np.random.default_rng(40)
    feats = rng.standard_normal((100000, d))
    ds = LabeledDataset(features=feats, labels=np.zeros(100000, dtype=int))
    sw = sweep(ds, DDPM, [0], SeedPolicy(base_seed=41))
    event = np.flatnonzero(feats[:, 0] > 0)
    est = conditional_fluctuation(sw, event, 0).tensor
    var_trunc = stats.truncnorm.var(0, np.inf)
    assert abs(var_trunc - (1 - 2 / math.pi)) < 1e-12
    target = np.eye(d)
    target[0, 0] = var_trunc
    cov_err = np.linalg.norm(est - target, ord=2) / np.linalg.norm(target, ord=2)

    # ratio-estimator consistency: error shrinks from N=1e3 to N=1e4
    spec_a, spec_b = np.r_[10.0, np.ones(7)], np.r_[4.0, 2.0, np.ones(6)]
    truth = float(np.sum(spec_a * spec_b)
                  / math.sqrt(np.sum(spec_a**2) * np.sum(spec_b**2)))

    def avg_err(n):
        errs = []
        for s in range(20):
            r = np.random.default_rng(s)
            xa = r.standard_normal((n, 8)) * np.sqrt(spec_a)
            xb = r.standard_normal((n, 8)) * np.sqrt(spec_b)
            ma = moments_from_rows(xa)
            mb = moments_from_rows(xb)
            errs.append(abs(normalized_M(ma, mb) - truth))
        return float(np.mean(errs))

    e_small, e_big = avg_err(1000), avg_err(10000)
    ok = cov_err < 0.02 and e_big < e_small
    report(4, ok, f"half-space cov err {cov_err:.4f}; "
                  f"M err {e_small:.4f} (N=1e3) -> {e_big:.4f} (N=1e4)")


def test_05_fourth_moment_identity():
    rng = np.random.default_rng(50)
    worst = 0.0
    a_grid = np.arange(0, DDPM.horizon_T + 1)
    a_vals = -2.0 * np.log(j_values(DDPM, a_grid))
    for j4_target in (0.75, 0.5, 0.25):
        t = int(a_grid[np.argmin(np.abs(a_vals - (-math.log(j4_target) / 2.0)))])
        j = float(j_values(DDPM, t))
        x0 = rng.laplace(0.0, 1 / math.sqrt(2), size=100000)
        xt = j * x0 + math.sqrt(1 - j * j) * rng.standard_normal(100000)
        emp = float(np.mean((xt - xt.mean()) ** 4))
        pred = j**4 * 6.0 + (1 - j**4) * 3.0
        worst = max(worst, abs(emp - pred) / pred)
    report(5, worst < 0.05, f"max relative deviation {worst:.4f} at 3 points")


def test_06_convergence_detection():
    rng = np.random.default_rng(60)
    cube = LabeledDataset(
        features=rng.uniform(-math.sqrt(3), math.sqrt(3), size=(20000, 64)),
        labels=np.zeros(20000, dtype=int),
    )
    sw = sweep(cube, DDPM, range(0, 1001, 10), SeedPolicy(base_seed=61))
    rep = convergence_step(sw, projections=64, seed=62, stop_at_detection=True)
    predicted = predict_mixing_step(DDPM, 64)["t_mix_steps"]
    gap = abs(rep.detected_step - predicted)

    gauss = LabeledDataset(features=rng.standard_normal((20000, 64)),
                           labels=np.zeros(20000, dtype=int))
    sw_g = sweep(gauss, DDPM, [0, 10], SeedPolicy(base_seed=63))
    rep_g = convergence_step(sw_g, projections=64, seed=64)
    ok = gap <= 0.1 * DDPM.horizon_T and rep_g.detected_step == 0
    report(6, ok, f"cube detected {rep.detected_step} vs predicted "
                  f"{predicted:.0f}; gaussian detected {rep_g.detected_step}")


def test_07_cka_property_suite():
    rng = np.random.default_rng(70)
    checks = []
    for _ in range(50):
        ra, rb = rng.standard_normal((2, 5, 5))
        a = ConditionalMoments(ra @ ra.T + 1e-9 * np.eye(5))
        b = ConditionalMoments(rb @ rb.T + 1e-9 * np.eye(5))
        m = normalized_M(a, b)
        checks.append(0.0 <= m <= 1.0)
        checks.append(abs(m - normalized_M(b, a)) <= 1e-12)
        checks.append(abs(normalized_M(a, a) - 1.0) <= 1e-12)

    # exact cases
    eye2 = ConditionalMoments(np.eye(2))
    d10 = ConditionalMoments(np.diag([1.0, 0.0]))
    d01 = ConditionalMoments(np.diag([0.0, 1.0]))
    d20 = ConditionalMoments(np.diag([2.0, 0.0]))
    checks.append(abs(normalized_M(d10, d01) - 0.0) <= 1e-9)
    checks.append(abs(normalized_M(eye2, d20) - 1 / math.sqrt(2)) <= 1e-9)
    checks.append(abs(normalized_M(d10, d10) - 1.0) <= 1e-9)

    # orthogonal mixing and isotropic scaling leave the n=2 statistic fixed
    xa = rng.standard_normal((3000, 6)) * np.sqrt(np.r_[4.0, np.ones(5)])
    xb = rng.standard_normal((3000, 6)) * np.sqrt(np.r_[2.0, 2.0, np.ones(4)])
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q *= np.sign(np.diag(r))

    def cka_of(u, v):
        mu = moments_from_rows(u)
        mv = moments_from_rows(v)
        return normalized_M(mu, mv)

    drift = abs(cka_of(2.5 * xa @ q.T, 2.5 * xb @ q.T) - cka_of(xa, xb))
    checks.append(drift <= 1e-8)
    report(7, all(checks), f"{len(checks)} property checks, invariance drift {drift:.1e}")


def test_08_lattice_and_phase():
    ds = two_class_dataset(seed=0)
    sw = sweep(ds, DDPM, range(0, 1001), SeedPolicy(base_seed=80))
    part = partition_by_label(ds)
    mt, values = detect_series(sw, part, epsilon=0.06)
    vals = values[0]
    gaps = np.abs((vals[1:-1] - vals[:-2]) - (vals[2:] - vals[1:-1]))
    hits = lattice_jump(vals, tau=1, order=1, eps_disc=float(gaps.max()) / 2)
    recovered = mt[0, 1] in [sw.steps[h] for h in hits]

    ds3 = spiked_gaussians(seed=81, tops=[10.0, 4.0, 2.0], d=8, n=20000)
    sw3 = sweep(ds3, DDPM, [0, 1000], SeedPolicy(base_seed=82))
    grid = list(np.geomspace(1e-4, 20.0, 8))
    counts = phase_spectrum(sw3, partition_by_label(ds3), epsilon_grid=grid)
    monotone = all(b <= a for a, b in zip(counts, counts[1:]))
    report(8, recovered and monotone,
           f"merger step recovered={recovered}, phase counts {counts}")


def test_09_moment_tv():
    x = np.linspace(-12, 12, 40001)
    rng = np.random.default_rng(90)
    all_hold = True
    for _ in range(20):
        def mixture():
            dens = np.zeros_like(x)
            for _ in range(int(rng.integers(1, 4))):
                mu, sig = rng.uniform(-2, 2), rng.uniform(0.5, 1.5)
                dens += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / sig) ** 2)
            return dens / np.trapezoid(dens, x)

        p, q = mixture(), mixture()
        for n in (2, 3):
            all_hold &= moment_tv_check(p, q, x, n=n, c0=1.0)["holds"]

    worst_tv = 0.0
    for delta in (0.1, 0.5, 3.0):
        p = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
        q = np.exp(-0.5 * (x - delta) ** 2) / math.sqrt(2 * math.pi)
        got = tv_distance_1d(p, q, x)
        want = math.erf(delta / (2 * math.sqrt(2)))  # 2 Phi(delta/2) - 1
        worst_tv = max(worst_tv, abs(got - want))
    ok = all_hold and worst_tv <= 1e-4
    report(9, ok, f"20 bound pairs hold={all_hold}, max TV gap {worst_tv:.2e}")


def test_10_fluctuation_adaptation():
    ds = two_class_dataset(seed=0)
    pert = LabeledDataset(
        features=ds.features + 0.05 * np.sin(ds.features),
        labels=ds.labels.copy(),
    )
    delta = empirical_cf_distance(ds.features, pert.features,
                                  freq_count=64, seed=100)["delta"]

    def merge_steps(d):
        sw = sweep(d, DDPM, [0, 1000], SeedPolicy(base_seed=101))
        mt = pairwise_merge_times(sw, partition_by_label(d), epsilon=0.06)
        return mt[0, 1]

    m_src, m_pert = merge_steps(ds), merge_steps(pert)
    ok = delta < 0.05 and abs(m_src - m_pert) <= 5
    report(10, ok, f"delta {delta:.4f}; merge {m_src} vs {m_pert}")


def test_11_speciation_ordering():
    ok, rows = True, []
    for seed in range(5):
        ds = spiked_gaussians(seed=seed, tops=[8.0, 4.0, 2.0], d=8,
                              n=20000, mean_sep=14.0)
        sw = sweep(ds, DDPM, range(0, 1001, 10), SeedPolicy(base_seed=110 + seed))
        part = partition_by_label(ds)
        mt = pairwise_merge_times(sw, part)
        latest = int(mt[np.triu_indices(3, 1)].max())
        rep = convergence_step(sw, projections=64, seed=111, stop_at_detection=True)
        rows.append((latest, rep.detected_step))
        ok &= latest < rep.detected_step
    report(11, ok, f"(latest merge, detected) per seed: {rows}")


def test_12_cli_reproducibility(tmp_path):
    fixture = tmp_path / "two.fvec1"
    execute(["simulate", "--classes", "2", "--dim", "6", "--spectra", "8,1/3,1",
             "--n-per-class", "2000", "--seed", "7", "--out", str(fixture)])
    gauss_csv = tmp_path / "g.csv"
    rng = np.random.default_rng(120)
    gauss_csv.write_text("\n".join(
        "0," + ",".join(repr(float(v)) for v in row)
        for row in rng.standard_normal((2000, 4))
    ) + "\n")
    dens_csv = tmp_path / "dens.csv"
    x = np.linspace(-8, 8, 2001)
    p = np.exp(-0.5 * x**2)
    p /= np.trapezoid(p, x)
    q = np.exp(-0.5 * (x - 0.3) ** 2)
    q /= np.trapezoid(q, x)
    dens_csv.write_text("\n".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, p, q)
    ) + "\n")

    cases = {
        "mixing": ["mixing", "--dim", "3072"],
        "simulate": ["simulate", "--classes", "2", "--dim", "4",
                     "--spectra", "5,1/2,1", "--n-per-class", "300",
                     "--seed", "3"],
        "analyze": ["analyze", "--input", str(fixture), "--steps", "11",
                    "--epsilon", "0.06", "--seed", "1"],
        "windows": ["windows", "--input", str(fixture), "--steps", "11",
                    "--epsilon", "0.06", "--projections", "8", "--seed", "1"],
        "converge": ["converge", "--input", str(gauss_csv), "--steps", "3",
                     "--projections", "8", "--seed", "2"],
        "probe": ["probe", "--input", str(fixture), "--steps", "4",
                  "--merge-step", "600", "--seed", "4"],
        "cf": ["cf", "--input-a", str(fixture), "--input-b", str(fixture),
               "--seed", "5"],
        "tvcheck": ["tvcheck", "--input", str(dens_csv), "--order", "2"],
    }
    stable = {}
    for name, args in cases.items():
        out = tmp_path / f"{name}.out"
        argv = args + ["--out", str(out)]
        assert execute(argv) == 0, name
        first = out.read_bytes()
        assert execute(argv) == 0, name
        stable[name] = out.read_bytes() == first
    report(12, all(stable.values()),
           f"byte-identical reruns: {sorted(k for k, v in stable.items() if v)}")
