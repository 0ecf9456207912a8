"""Independent reference computations for the test suite.

Deliberately separate from the package and deliberately naive: raw
enumeration over every possible sign sequence, a plain sum over every
displacement tuple with exact-rational C, a replay of the Monte Carlo
sampler's short-row bit planes row by row, an exact-rational Maclaurin
series for erfc, the continuous Gaussian density that approximates a long
walk, a Monte Carlo integral of the Gaussian measure outside the
violation boundary, Cramer's large-deviation exponent of the exact tail,
and the closed form of one long channel beside three single rounds.
Slow but first-principles; nothing in here shares code with the
implementation paths it checks (the replay judges its rows by the
package's one-line ``is_violation``, which the sampler never calls).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from chshprob.model import is_violation

# 2/sqrt(pi) to 53 significant digits (enough for series results far below
# any tolerance used in the tests).
TWO_OVER_SQRT_PI = Fraction(
    11283791670955125738961589031215451716881012586579977, 10**52
)

_SERIES_TAIL = Fraction(1, 10**30)


def erfc_series(x) -> tuple[Fraction, Fraction]:
    """erfc at an exact rational point by the alternating Maclaurin series
    of erf, with a rigorous truncation bound.

    Returns (value, bound) with |value - erfc(x)| <= bound.  The series
    term x^(2k+1)/(k!(2k+1)) decreases monotonically once k > x^2, so the
    first omitted term bounds the remainder; the frozen constant adds less
    than 1e-45.  Intended for |x| <= 8 or so, where convergence is quick.
    """
    x = Fraction(x)
    if x < 0:
        value, bound = erfc_series(-x)
        return 2 - value, bound
    x2 = x * x
    power_over_factorial = x  # x^(2k+1) / k!
    total = Fraction(0)
    k = 0
    while True:
        term = power_over_factorial / (2 * k + 1)
        total += term if k % 2 == 0 else -term
        k += 1
        power_over_factorial = power_over_factorial * x2 / k
        omitted = power_over_factorial / (2 * k + 1)
        if k > x2 and omitted < _SERIES_TAIL:
            break
    value = 1 - TWO_OVER_SQRT_PI * total
    bound = TWO_OVER_SQRT_PI * omitted + Fraction(1, 10**45)
    return value, bound


def brute_force_violation_probability(rounds, threshold: str) -> Fraction:
    """Violation probability by enumerating all 2^N raw sign sequences.

    The first n1 entries of each sequence are channel 1's outcomes, the
    next n2 channel 2's, and so on; the (1,2) channel enters C with a
    minus sign.  Exponential cost, usable up to N around 16.
    """
    n1, n2, n3, n4 = rounds
    total = n1 + n2 + n3 + n4
    hits = 0
    for sequence in product((-1, 1), repeat=total):
        m1 = sum(sequence[:n1])
        m2 = sum(sequence[n1 : n1 + n2])
        m3 = sum(sequence[n1 + n2 : n1 + n2 + n3])
        m4 = sum(sequence[n1 + n2 + n3 :])
        correlation = (
            Fraction(m1, n1) - Fraction(m2, n2) + Fraction(m3, n3) + Fraction(m4, n4)
        )
        magnitude = abs(correlation)
        if (magnitude > 2) if threshold == "strict" else (magnitude >= 2):
            hits += 1
    return Fraction(hits, 2**total)


def plane_replay_sums(rounds, seed: int, batch_index: int, count: int) -> Counter:
    """How many of ``count`` short-row trials have each tuple of channel sums
    (m1, m2, m3, m4), redrawn from stream 3's bit planes.

    Batch ``batch_index`` of seed s draws from
    ``random.Random((s mod 2**64) | batch_index << 64)``: round j of every
    trial is the plane ``getrandbits(count)``, drawn in round order, and
    bit t of plane j is round j of trial t.  Each trial's row is decoded
    from the planes, its first n1 rounds channel 1's, the next n2 channel
    2's and so on, a set bit a +1 round and a clear one a -1 round.
    """
    rng = random.Random((seed & 0xFFFFFFFFFFFFFFFF) | batch_index << 64)
    # each plane as a string of its count bits, trial 0's first
    planes = [format(rng.getrandbits(count), f"0{count}b")[::-1] for _ in range(sum(rounds))]
    offsets = list(accumulate(rounds, initial=0))
    sums: Counter = Counter()
    for row, times in Counter(zip(*planes)).items():
        ones = [row[lo : lo + n].count("1") for lo, n in zip(offsets, rounds)]
        sums[tuple(2 * k - n for k, n in zip(ones, rounds))] += times
    return sums


def plane_replay_hits(rounds, sums: Counter, threshold: str) -> int:
    """Violations among the trials of ``plane_replay_sums``, each judged by
    ``is_violation`` on its exact correlation, with the minus sign on the
    (1,2) channel."""
    n1, n2, n3, n4 = rounds
    return sum(
        times
        for (m1, m2, m3, m4), times in sums.items()
        if is_violation(
            Fraction(m1, n1) - Fraction(m2, n2) + Fraction(m3, n3) + Fraction(m4, n4), threshold
        )
    )


def lattice_violation_probability(rounds, threshold: str) -> Fraction:
    """Violation probability by visiting every displacement tuple.

    Each tuple (m1, m2, m3, m4), m_k = 2*i_k - n_k, carries the product of
    its channels' path counts C(n_k, i_k); C is summed as a Fraction with
    the (1,2) minus sign written out.  No common-denominator scaling, no
    symmetry and no pairing of channels.  Cost prod(n_k + 1).
    """
    ratios = [[Fraction(2 * i - n, n) for i in range(n + 1)] for n in rounds]
    hits = 0
    for i1, i2, i3, i4 in product(*(range(n + 1) for n in rounds)):
        correlation = ratios[0][i1] - ratios[1][i2] + ratios[2][i3] + ratios[3][i4]
        magnitude = abs(correlation)
        if (magnitude > 2) if threshold == "strict" else (magnitude >= 2):
            hits += math.prod(math.comb(n, i) for n, i in zip(rounds, (i1, i2, i3, i4)))
    return Fraction(hits, 2 ** sum(rounds))


def one_long_channel_probability(n: int, threshold: str) -> Fraction:
    """Violation probability of the counts (1, 1, 1, n) in closed form.

    C = m1 - m2 + m3 + m4/n with |m4/n| <= 1.  |C| > 2 needs
    |m1 - m2 + m3| = 3 (2 of the 8 sign patterns) and then every m4 but
    the one that cancels it, so p = (2**n - 1) / 2**(n + 2).  With the
    boundary, |m1 - m2 + m3| = 3 always violates and |m1 - m2 + m3| = 1
    (6 of 8) does when m4 = +-n has its sign, so p = 1/4 + (3/4) / 2**n.
    """
    if threshold == "strict":
        return Fraction(2**n - 1, 2 ** (n + 2))
    return Fraction(1, 4) + Fraction(3, 2 ** (n + 2))


def brute_force_walk_distribution(n: int) -> dict[int, Fraction]:
    """Endpoint distribution of the n-step fair walk by listing all 2^n paths."""
    counts: dict[int, int] = {}
    for sequence in product((-1, 1), repeat=n):
        endpoint = sum(sequence)
        counts[endpoint] = counts.get(endpoint, 0) + 1
    return {m: Fraction(c, 2**n) for m, c in counts.items()}


def gaussian_density(n: int, x: float) -> float:
    """Continuous density approximating the n-step walk endpoint.

    Evaluates (1/sqrt(2*pi*n)) * exp(-x**2 / (2n)).  Note the walk lives on
    a lattice of spacing 2, so matching a single pmf value requires a
    factor 2 on this density.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"step count must be a positive integer, got {n!r}")
    return math.exp(-(x * x) / (2.0 * n)) / math.sqrt(2.0 * math.pi * n)


# Per-coordinate standard deviation of the isotropized measure, density
# exp(-z^2)/sqrt(pi) per coordinate.
_ISOTROPIC_SIGMA = math.sqrt(0.5)
_ORACLE_CHUNK = 1 << 18


def gaussian_halfspace_oracle(rounds, samples: int, seed: int) -> float:
    """Monte Carlo integral of the Gaussian measure outside |C| <= 2.

    After rescaling each channel sum by sqrt(2*n_k) the boundary C = 2 is
    the plane sum_k sqrt(2/n_k) z_k = 2.  Draws 4D points from the
    isotropized Gaussian and returns the fraction landing past either
    boundary plane; channel signs are irrelevant because each coordinate is
    symmetric.
    """
    if samples < 10_000:
        raise ValueError(f"oracle needs at least 10000 samples, got {samples}")
    # SeedSequence rejects negative entropy; keep the 64-bit pattern instead.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF))
    coefficients = np.array([math.sqrt(2.0 / n) for n in rounds])
    hits = 0
    remaining = samples
    while remaining:
        chunk = min(remaining, _ORACLE_CHUNK)
        z = rng.normal(0.0, _ISOTROPIC_SIGMA, size=(chunk, 4))
        hits += int(np.count_nonzero(np.abs(z @ coefficients) > 2.0))
        remaining -= chunk
    return hits / samples


def large_deviation_exponent(rounds) -> float:
    """Cramer's exponent R*N of the violation probability, p ~ exp(-R*N).

    R*N is the least sum_k n_k*I(x_k) over channel means with
    sum_k |x_k| = 2, where I(x) = ((1+x)ln(1+x) + (1-x)ln(1-x))/2 is the
    rate of the mean of n fair +-1 steps.  As I'(x) = atanh(x), the
    minimiser is x_k = tanh(lam/n_k), with lam solving
    sum_k tanh(lam/n_k) = 2 by bisection.  By Bahadur-Rao, -ln p - R*N
    grows like a multiple of ln N.
    """
    def excess(lam: float) -> float:
        return sum(math.tanh(lam / n) for n in rounds) - 2

    low, high = 0.0, 1.0
    while excess(high) < 0:
        high *= 2
    for _ in range(100):
        middle = (low + high) / 2
        low, high = (middle, high) if excess(middle) < 0 else (low, middle)
    exponent = 0.0
    for n in rounds:
        t = high / n
        # I(tanh t), written without the 0*log(0) of a mean that rounds to 1
        exponent += n * (t * math.tanh(t) - math.log(math.cosh(t)))
    return exponent
