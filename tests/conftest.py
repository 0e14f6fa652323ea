import math
import tracemalloc

import numpy as np
import pytest

from vpmerge import (
    NoiseSchedule,
    SeedPolicy,
    SyntheticSpec,
    partition_by_label,
    synth_gaussian_mixture,
    sweep,
)


@pytest.fixture(scope="session")
def ddpm():
    return NoiseSchedule()


def discrete_product_oracle(sched, t):
    """Independent oracle for the DDPM attenuation: explicit product of
    sqrt(1 - beta_i) over steps 1..t."""
    out = 1.0
    for i in range(1, t + 1):
        frac = (i - 1) / (sched.horizon_T - 1)
        out *= math.sqrt(1.0 - (sched.beta0 + (sched.betaT - sched.beta0) * frac))
    return out


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def two_class_dataset(seed, n_per_class=20000, d=16, lam_a=10.0, lam_b=4.0):
    """Two zero-mean Gaussian classes with leading eigenvalues lam_a, lam_b."""
    spec_a = np.r_[lam_a, np.ones(d - 1)]
    spec_b = np.r_[lam_b, np.ones(d - 1)]
    spec = SyntheticSpec(
        means=np.zeros((2, d)),
        spectra=np.vstack([spec_a, spec_b]),
        samples_per_class=(n_per_class, n_per_class),
    )
    return synth_gaussian_mixture(spec, seed=seed)


def five_class_sweep(ddpm, steps):
    rng = np.random.default_rng(8)
    spectra = np.vstack([np.r_[lam, np.ones(5)] for lam in (9.0, 6.0, 5.5, 2.0, 1.2)])
    spec = SyntheticSpec(means=rng.normal(0, 0.5, (5, 6)), spectra=spectra,
                         samples_per_class=(400,) * 5)
    ds = synth_gaussian_mixture(spec, seed=8)
    return sweep(ds, ddpm, steps, SeedPolicy(base_seed=8))


@pytest.fixture(scope="session")
def two_class_sweep(ddpm):
    ds = two_class_dataset(seed=0)
    sw = sweep(ds, ddpm, range(0, 1001, 10), SeedPolicy(base_seed=1))
    return sw, partition_by_label(ds)
