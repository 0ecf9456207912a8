"""Fair one-dimensional walk distributions and the complementary error function.

This module holds the small, exact pieces everything else is built from:
the binomial row that counts the paths of an n-step fair +-1 walk (plain
integers, so downstream probabilities stay bit-exact), a dyadic-rational
view of the same row as the walk's endpoint distribution, and the
complementary error function behind the Gaussian tail formula.

All functions are pure; every value is safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InvalidConfigError, LimitError

# Cap on walk length: binomial numerators near the cap run to ~1200 digits,
# beyond it exact arithmetic cost grows with no practical payoff.
DEFAULT_STEP_LIMIT = 4096


def binomial_row(n: int, *, limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Path counts [C(n, 0), ..., C(n, n)] of the n-step fair walk.

    Entry i counts the paths ending at displacement 2*i - n; the row sums
    to 2**n.  Raises InvalidConfigError for n < 1 and LimitError for
    n > limit.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidConfigError(f"walk length must be a positive integer, got {n!r}")
    if n > limit:
        raise LimitError(f"walk length {n} exceeds the step limit {limit}")
    row = [1]
    for i in range(n):
        row.append(row[-1] * (n - i) // (i + 1))
    return row


@dataclass(frozen=True)
class WalkPmf:
    """Exact endpoint distribution of an n-step fair +-1 walk.

    ``mass`` maps each reachable displacement m to its probability as a
    dyadic rational (an integer over 2**n).  Only displacements with the
    same parity as ``steps`` and |m| <= steps appear; anything else has
    probability zero and is simply absent.
    """

    steps: int
    mass: Mapping[int, Fraction]

    def probability(self, displacement: int) -> Fraction:
        """Probability of ending at ``displacement`` (0 if unreachable)."""
        return self.mass.get(displacement, Fraction(0))


def walk_pmf(n: int, *, limit: int = DEFAULT_STEP_LIMIT) -> WalkPmf:
    """Exact pmf of the n-step fair walk: P(m) = C(n, (n+m)/2) / 2**n.

    Raises InvalidConfigError for n < 1 and LimitError for n > limit.
    """
    row = binomial_row(n, limit=limit)
    denominator = 1 << n
    mass = {2 * i - n: Fraction(count, denominator) for i, count in enumerate(row)}
    return WalkPmf(steps=n, mass=mass)


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) * integral_x..inf exp(-t^2) dt.

    Delegates to the platform libm through :func:`math.erfc`, which is
    monotone non-increasing, gives erfc(0) == 1 exactly, and stays well
    within 1e-12 relative error on moderate arguments (the test suite pins
    this against an independent exact-rational series).  For very large x
    the result underflows toward 0 far below any 1e-300 floor.  Non-finite
    input is rejected rather than propagated.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfc requires a finite argument, got {x!r}")
    return math.erfc(x)
