"""Merger analysis for variance-preserving diffusion forward processes.

Simulates the empirical forward process on labeled data, estimates
conditional fluctuation tensors, detects cross-fluctuation mergers
between class events, and exports convergence indices, merger cascades,
guidance windows, and weight schedules for downstream samplers.
"""

__version__ = "0.1.0"

from .convergence import (
    CFDistance,
    NormalityReport,
    RandomProjections,
    TVBoundReport,
    convergence_step,
    dagostino_pearson,
    empirical_cf_distance,
    moment_tv_check,
    tv_distance_1d,
)
from .data import (
    EventPartition,
    LabeledDataset,
    SyntheticSpec,
    load_dataset,
    partition_by_label,
    save_dataset,
    standardize,
    synth_gaussian_mixture,
)
from .errors import (
    DataError,
    DegenerateError,
    DomainError,
    NumericError,
    VpmergeError,
)
from .fluctuation import (
    ConditionalMoments,
    conditional_fluctuation,
    cross_fluctuation_G,
    gaussian_central_moment,
    normalized_M,
    scalar_moment_trajectory,
    top_eigenvalue,
)
from .forward import SeedPolicy, TrajectorySweep, noised_at, step_ddpm, sweep
from .merger import (
    EtaSchedule,
    GuidanceWindow,
    MergerCascade,
    MergerSeries,
    build_cascade,
    default_epsilon,
    detect_series,
    guidance_windows,
    interpolation_schedule,
    lattice_jump,
    pairwise_merge_times,
    phase_spectrum,
)
from .probe import (
    ProbeResult,
    WeightLaw,
    load_logits_csv,
    probe_through_time,
    train_linear_probe,
    weight_law,
    weighted_score_aggregate,
)
from .schedule import (
    MixingPrediction,
    NoiseSchedule,
    attenuation,
    beta_at,
    marginal_params,
    predict_mixing_step,
    snr,
)
