"""Fair one-dimensional walk distributions.

The binomial row counts the paths of an n-step fair +-1 walk in plain
integers, so downstream probabilities stay bit-exact; the exact kernel in
:mod:`chshprob.model` reads it for its tables of the shorter groups only,
never for the longest group, whose row tails it sums without the row.
``walk_pmf`` is a dyadic-rational view of the same row as the walk's
endpoint distribution.

Lengths are not limited here: :mod:`chshprob.model` prices the rows of
its plan in the enumeration budget and refuses over-budget work before any
row is built.  All functions are pure; every value is safe to share across
workers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidConfigError


def binomial_row(n: int) -> list[int]:
    """Path counts [C(n, 0), ..., C(n, n)] of the n-step fair walk.

    Entry i counts the paths ending at displacement 2*i - n; the row sums
    to 2**n.  Only C(n, 0..n//2) are computed; the rest mirror them
    (C(n, i) = C(n, n - i)) and share their int objects.  Raises
    InvalidConfigError for n < 1.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidConfigError(f"walk length must be a positive integer, got {n!r}")
    row = [1]
    for i in range(n // 2):
        row.append(row[-1] * (n - i) // (i + 1))
    return row + row[n - n // 2 - 1 :: -1]


def walk_pmf(n: int) -> dict[int, Fraction]:
    """Exact pmf of the n-step fair walk: P(m) = C(n, (n+m)/2) / 2**n.

    Maps each reachable displacement m (|m| <= n, same parity as n) to its
    probability; unreachable displacements are absent.  Raises
    InvalidConfigError for n < 1.
    """
    row = binomial_row(n)
    denominator = 1 << n
    return {2 * i - n: Fraction(count, denominator) for i, count in enumerate(row)}
