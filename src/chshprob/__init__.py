"""Finite-round CHSH statistics under a classical fair-coin model.

Computes the probability that a four-channel experiment with fixed round
counts produces a correlation past the classical |C| <= 2 bound, by exact
dyadic-rational enumeration, by the Gaussian tail formula erfc(d), or by
seeded Monte Carlo simulation.
"""

from .errors import CorruptRecordError, InvalidConfigError, LimitError
from .model import (
    CHANNEL_SIGNS,
    CHANNELS,
    CLASSICAL_BOUND,
    DEFAULT_ENUMERATION_BUDGET,
    MAXIMAL_VIOLATION_RECORDS,
    METHODS,
    NON_STRICT,
    STRICT,
    THRESHOLDS,
    TSIRELSON_BOUND,
    ExperimentConfig,
    MeasurementRecord,
    RoundTally,
    ViolationProbability,
    analytic_violation_probability,
    chsh_correlation,
    enumeration_cost,
    exact_violation_probability,
    gaussian_tail_probability,
    is_violation,
    tally,
)
from .montecarlo import (
    McEstimate,
    estimate_violation_probability,
    wilson_interval,
)
from .walks import (
    DEFAULT_STEP_LIMIT,
    WalkPmf,
    erfc,
    walk_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "CHANNEL_SIGNS",
    "CLASSICAL_BOUND",
    "CorruptRecordError",
    "DEFAULT_ENUMERATION_BUDGET",
    "DEFAULT_STEP_LIMIT",
    "ExperimentConfig",
    "InvalidConfigError",
    "LimitError",
    "MAXIMAL_VIOLATION_RECORDS",
    "METHODS",
    "McEstimate",
    "MeasurementRecord",
    "NON_STRICT",
    "RoundTally",
    "STRICT",
    "THRESHOLDS",
    "TSIRELSON_BOUND",
    "ViolationProbability",
    "WalkPmf",
    "analytic_violation_probability",
    "chsh_correlation",
    "enumeration_cost",
    "erfc",
    "estimate_violation_probability",
    "exact_violation_probability",
    "gaussian_tail_probability",
    "is_violation",
    "tally",
    "walk_pmf",
    "wilson_interval",
]
