"""Finite-round CHSH statistics under a classical fair-coin model.

Computes the probability that a four-channel experiment with fixed round
counts produces a correlation past the classical |C| <= 2 bound, by exact
dyadic-rational enumeration, by the Gaussian tail formula erfc(d), or by
seeded Monte Carlo simulation.

The package root holds the three routes, their inputs and their errors;
everything else is importable from its submodule (``chshprob.model``, the
experiment's types and the tail formula; ``chshprob.exact``, the exact
count with its budget and the binomial path-count rows;
``chshprob.montecarlo`` and ``chshprob.cli``; ``chshprob.walks`` holds
only the ``Fraction`` pmf view of a row that the benchmark times, and no
command loads it).  ``exact_violation_probability`` and
``estimate_violation_probability`` are loaded on first access, so
importing the package loads neither the exact route nor the sampler; nor
does it import ``fractions``, which only the functions that build a
``Fraction`` load when they are called.
"""

from .errors import CorruptRecordError, InvalidConfigError, LimitError
from .model import (
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    analytic_violation_probability,
)

__version__ = "0.1.0"

__all__ = [
    "CorruptRecordError",
    "ExperimentConfig",
    "InvalidConfigError",
    "LimitError",
    "NON_STRICT",
    "STRICT",
    "analytic_violation_probability",
    "estimate_violation_probability",
    "exact_violation_probability",
]


def __getattr__(name: str):
    # PEP 562: the exact route and the sampler are imported on first use,
    # so that a command loads only the one it runs
    if name == "exact_violation_probability":
        from .exact import exact_violation_probability

        return exact_violation_probability
    if name == "estimate_violation_probability":
        from .montecarlo import estimate_violation_probability

        return estimate_violation_probability
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
