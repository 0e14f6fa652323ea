"""Merger analysis for variance-preserving diffusion forward processes.

Simulates the empirical forward process on labeled data, estimates
conditional fluctuation tensors, detects cross-fluctuation mergers
between class events, and exports convergence indices, merger cascades,
guidance windows, and weight schedules for downstream samplers.

The package namespace holds the entry points the scripts and the
acceptance suite use, plus the error classes; everything else is
imported from its module (``vpmerge.merger``, ``vpmerge.data`` ...).
"""

__version__ = "0.1.0"

from .convergence import (
    convergence_step,
    empirical_cf_distance,
    moment_tv_check,
    tv_distance_1d,
)
from .data import (
    LabeledDataset,
    SyntheticSpec,
    load_dataset,
    partition_by_label,
    synth_gaussian_mixture,
)
from .errors import DataError, DegenerateError, DomainError, VpmergeError
from .fluctuation import ConditionalMoments, conditional_fluctuation, normalized_M
from .forward import SeedPolicy, sweep
from .merger import (
    detect_series,
    lattice_jump,
    pairwise_merge_times,
    phase_spectrum,
)
from .probe import weight_law
from .schedule import NoiseSchedule, predict_mixing_step
