"""Independent reference computations for the test suite.

Deliberately separate from the package and deliberately naive: raw
enumeration over every possible sign sequence, a plain sum over every
displacement tuple with exact-rational C, a replay of the Monte Carlo
sampler's bit planes and strata bit by bit, an exact-rational Maclaurin
series for erfc, the continuous Gaussian density that approximates a long
walk, a Monte Carlo integral of the Gaussian measure outside the
violation boundary, Cramer's large-deviation exponent of the exact tail,
and the closed form of one long channel beside three single rounds.
Slow but first-principles; nothing in here shares code with the
implementation paths it checks (the replay judges its rows by the
package's one-line ``is_violation``, which the sampler never calls).
Beside them, ``int_digit_limit`` sets the interpreter's int-to-str limit
for the tests that read or print integers of more than 4300 digits.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from chshprob.model import is_violation

# 2/sqrt(pi) to 53 significant digits (enough for series results far below
# any tolerance used in the tests).
TWO_OVER_SQRT_PI = Fraction(
    11283791670955125738961589031215451716881012586579977, 10**52
)

_SERIES_TAIL = Fraction(1, 10**30)


@contextmanager
def int_digit_limit(digits: int = 0):
    """Set the int-to-str digit limit to ``digits`` (0 lifts it) for the
    block, and give the caller's limit back after it.  Python before
    3.10.7 has no limit, and the block runs as it is."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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


def _replay_planes(rng, n: int, count: int):
    """Each plane of a channel of ``n`` rounds in a batch of ``count``
    trials, as every trial's set bits in it.

    A plane holds L = min(n, 2**16 // count) of the channel's rounds, in
    round order, as lanes of ``count`` bits: it is ``getrandbits(L *
    count)``, bit l * count + t round l of the plane's rounds for trial t,
    and the channel's last plane holds only the rounds left.  A set bit is
    a round that adds +1 to C and a clear one a round that adds -1.
    """
    lanes = min(n, 2**16 // count)
    for first in range(0, n, lanes):
        width = min(lanes, n - first) * count
        # the plane as a string of its bits, bit 0 first
        bits = format(rng.getrandbits(width), f"0{width}b")[::-1]
        if count <= width // count:
            # trial t's rounds are every count-th bit from bit t
            yield [bits[t::count].count("1") for t in range(count)]
        else:
            ones = [0] * count
            for lane in range(0, width, count):
                ones = [k + (bit == "1") for k, bit in zip(ones, bits[lane : lane + count])]
            yield ones


def _batch_generator(seed: int, batch_index: int) -> random.Random:
    """Batch ``batch_index``'s generator: seed s draws from
    ``random.Random((s mod 2**64) | batch_index << 64)``."""
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) | batch_index << 64)


def _drawing_order(rounds) -> list[int]:
    """The channels' indices in stable ascending order of their counts."""
    return sorted(range(4), key=lambda k: rounds[k])


def plane_replay_sums(rounds, seed: int, batch_index: int, count: int) -> Counter:
    """How many of ``count`` trials have each tuple of channel contribution
    sums, every round redrawn bit by bit from the planes of stream 7.

    Channel k's contribution sum s_k is what its rounds add to n_k * C,
    its set bits less its clear ones: m_k, or -m_2 for the (1,2) channel.
    So C = sum_k s_k / n_k, and each s_k has the law of m_k.

    The batch's generator draws the channels in stable ascending order of
    their counts, each as ``_replay_planes`` reads it.
    """
    rng = _batch_generator(seed, batch_index)
    channels = [[0] * count for _ in rounds]
    for k in _drawing_order(rounds):
        for plane in _replay_planes(rng, rounds[k], count):
            channels[k] = [a + b for a, b in zip(channels[k], plane)]
    return Counter(tuple(2 * k - n for k, n in zip(trial, rounds)) for trial in zip(*channels))


def plane_replay_hits(rounds, seed: int, batch_index: int, count: int, threshold: str, split: int = 0) -> int:
    """Violations among ``count`` trials of a batch, redrawn bit by bit from
    the planes and strata of stream 7, each trial judged by
    ``is_violation`` on its exact correlation; the batch splits after its
    first ``split`` channels, or not at all if that is 0.

    Channel k adds (2*ones - n_k) / n_k, between -1 and 1, to a trial's
    correlation, ones its set bits.  The batch draws its channels in stable
    ascending order of their counts (see ``plane_replay_sums``).  At a split
    its trials are grouped by their correlation so far.  Raising the
    channels left from -1 to 1 a round at a time walks from the lowest
    correlation any completion can reach to the highest, by at most 2 a
    step, less than the 4 between -2 and 2; so a group meets one verdict on
    the walk when every completion gives it, and takes it.  Every other
    group, in ascending order of its correlation so far, draws the channels
    left as a batch of its own size from the same generator, and does not
    split again.  The last channel of a batch or group stops after its first
    ceil(2 * size.bit_length() / L) planes, L its lanes, if rounds remain
    and every trial has one verdict at its set bits so far and at those plus
    every round left.
    """
    rng = _batch_generator(seed, batch_index)
    order = _drawing_order(rounds)

    def share(k: int, ones: int) -> Fraction:
        return Fraction(2 * ones - rounds[k], rounds[k])

    def replay(channels, size: int, start: Fraction, last: bool) -> Counter:
        # how many of ``size`` trials end at each correlation
        drawn: list[list[int]] = []
        for i, k in enumerate(channels):
            ones = [0] * size
            lanes = min(rounds[k], 2**16 // size)
            head = -(-2 * size.bit_length() // lanes)
            left = rounds[k] - head * lanes
            for p, plane in enumerate(_replay_planes(rng, rounds[k], size), 1):
                ones = [a + b for a, b in zip(ones, plane)]
                if last and i == len(channels) - 1 and p == head and left > 0:
                    # each trial's correlation before this channel, and its set bits here
                    states = {
                        (start + sum(share(j, o) for j, o in zip(channels, state)), state[-1])
                        for state in set(zip(*drawn, ones))
                    }
                    if all(
                        is_violation(c + share(k, o), threshold) == is_violation(c + share(k, o + left), threshold)
                        for c, o in states
                    ):
                        break
            drawn.append(ones)
        ends: Counter = Counter()
        for state, times in Counter(zip(*drawn)).items():
            ends[start + sum(share(k, o) for k, o in zip(channels, state))] += times
        return ends

    def violations(ends: Counter) -> int:
        return sum(times for c, times in ends.items() if is_violation(c, threshold))

    if not split:
        return violations(replay(order, count, Fraction(0), True))
    rest, hits = order[split:], 0
    groups = replay(order[:split], count, Fraction(0), False)
    for start in sorted(groups):
        walk = [start - len(rest)]
        for k in rest:
            walk += [walk[-1] + Fraction(2 * r, rounds[k]) for r in range(1, rounds[k] + 1)]
        verdicts = {is_violation(c, threshold) for c in walk}
        if len(verdicts) == 1:
            hits += groups[start] * verdicts.pop()
        else:
            hits += violations(replay(rest, groups[start], start, True))
    return hits


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


def gaussian_halfspace_oracle(rounds, samples: int, seed: int) -> float:
    """Monte Carlo integral of the Gaussian measure outside |C| <= 2.

    After rescaling each channel sum by sqrt(2*n_k) the boundary C = 2 is
    the plane sum_k sqrt(2/n_k) z_k = 2.  Draws 4D points from the
    isotropized Gaussian, density exp(-z^2)/sqrt(pi) per coordinate, and
    returns the fraction landing past either boundary plane; channel signs
    are irrelevant because each coordinate is symmetric.  Each pair of
    coordinates is a Box-Muller pair of standard normals, scaled by
    sqrt(1/2), from ``random.Random``.
    """
    if samples < 10_000:
        raise ValueError(f"oracle needs at least 10000 samples, got {samples}")
    uniform = random.Random(seed & 0xFFFFFFFFFFFFFFFF).random
    # sqrt(2/n_k) times the isotropized coordinate's deviation sqrt(1/2)
    c1, c2, c3, c4 = (math.sqrt(1.0 / n) for n in rounds)
    log, sqrt, cos, sin, tau = math.log, math.sqrt, math.cos, math.sin, math.tau
    hits = 0
    for _ in range(samples):
        # 1 - random() lies in (0, 1], so the log is finite
        r1, t1 = sqrt(-2.0 * log(1.0 - uniform())), tau * uniform()
        r2, t2 = sqrt(-2.0 * log(1.0 - uniform())), tau * uniform()
        if abs(r1 * (c1 * cos(t1) + c2 * sin(t1)) + r2 * (c3 * cos(t2) + c4 * sin(t2))) > 2.0:
            hits += 1
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
