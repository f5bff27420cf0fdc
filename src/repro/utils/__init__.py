"""Shared utilities: RNG, parallel sweeps, caching, profiling, validation."""

from repro.utils.parallel import TaskFailure, parallel_map, resolve_jobs, task_seed
from repro.utils.profiling import MetricsRegistry, StageStats, profile, profiling_enabled
from repro.utils.rng import derive_rng, seed_everything
from repro.utils.scratch import ScratchCache
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_shape,
)

__all__ = [
    "TaskFailure",
    "parallel_map",
    "resolve_jobs",
    "task_seed",
    "MetricsRegistry",
    "StageStats",
    "profile",
    "profiling_enabled",
    "ScratchCache",
    "derive_rng",
    "seed_everything",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_shape",
]
