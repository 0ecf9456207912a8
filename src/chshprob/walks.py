"""The fair walk's endpoint distribution as dyadic rationals.

``walk_pmf`` is a ``Fraction`` view of the binomial row that
:mod:`chshprob.model` builds for the exact kernel.  No package code calls
it; ``benchmarks/tracing.py`` is its last reader, which times it.  It is
pure, and its values are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

from .model import binomial_row


def walk_pmf(n: int) -> dict[int, Fraction]:
    """Exact pmf of the n-step fair walk: P(m) = C(n, (n+m)/2) / 2**n.

    Maps each reachable displacement m (|m| <= n, same parity as n) to its
    probability; unreachable displacements are absent.  Raises
    InvalidConfigError for n < 1.
    """
    row = binomial_row(n)
    denominator = 1 << n
    return {2 * i - n: Fraction(count, denominator) for i, count in enumerate(row)}
