"""The four-channel CHSH experiment on classical fair-coin rounds.

An experiment fixes four round counts (n1..n4), one per polarizer pair
(i, j) in the order (1,1), (1,2), (2,1), (2,2).  Every round yields a
product outcome c = a*b in {-1, +1}; the per-channel sums m_k are endpoints
of independent fair walks, and the measured correlation is

    C = m1/n1 - m2/n2 + m3/n3 + m4/n4

with the minus sign on the (1,2) channel.  A violation is |C| > 2 (strict)
or |C| >= 2 (non-strict); the two differ because finite samples put real
probability mass on the boundary C = +-2.

Two routes to the violation probability live here: an exact count of
violating sign patterns in plain integers (bit-exact), met in the middle
between groups of equal counts, and the Gaussian tail formula
erfc(sqrt(2 / sum_k 1/n_k)).  The third route, Monte Carlo simulation,
lives in :mod:`chshprob.montecarlo`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .errors import CorruptRecordError, InvalidConfigError, LimitError
from .walks import binomial_row

# Channel order everywhere in this package; the (1,2) channel carries the
# minus sign in C.
CHANNELS = ((1, 1), (1, 2), (2, 1), (2, 2))
CHANNEL_SIGNS = (1, -1, 1, 1)

CLASSICAL_BOUND = 2
# Quantum ceiling 2*sqrt(2); documented for context, never computed here.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

STRICT = "strict"
NON_STRICT = "non-strict"
THRESHOLDS = (STRICT, NON_STRICT)

# Default ceiling on ``enumeration_cost``, the work of the exact kernel:
# every configuration it accepts runs in about a second or less at about
# 130 MiB peak RSS or less (measured on a 2-core x86 host, Python 3.11).
DEFAULT_ENUMERATION_BUDGET = 4 * 10**7


def _check_threshold(threshold: str) -> None:
    if threshold not in THRESHOLDS:
        raise InvalidConfigError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Round counts (n1, n2, n3, n4) for the four channels, each >= 1."""

    rounds: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        rounds = tuple(self.rounds)
        object.__setattr__(self, "rounds", rounds)
        if len(rounds) != 4:
            raise InvalidConfigError(f"exactly four round counts required, got {len(rounds)}")
        for n in rounds:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidConfigError(f"round counts must be positive integers, got {rounds}")

    @property
    def total(self) -> int:
        """Total number of measurement rounds N."""
        return sum(self.rounds)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement row: outcomes a, b, their product c, and the
    polarizer pair (i, j) active at that time step."""

    time_index: int
    a: int
    b: int
    c: int
    i: int
    j: int

    def __post_init__(self) -> None:
        if not isinstance(self.time_index, int) or self.time_index < 1:
            raise CorruptRecordError(f"time_index must be a positive integer, got {self.time_index!r}")
        if self.a not in (-1, 1) or self.b not in (-1, 1):
            raise CorruptRecordError(f"outcomes must be -1 or +1, got a={self.a!r} b={self.b!r}")
        if self.c != self.a * self.b:
            raise CorruptRecordError(f"c must equal a*b, got c={self.c!r} for a={self.a} b={self.b}")
        if self.i not in (1, 2) or self.j not in (1, 2):
            raise CorruptRecordError(f"polarizer indices must be 1 or 2, got i={self.i!r} j={self.j!r}")

    @property
    def channel(self) -> tuple[int, int]:
        return (self.i, self.j)


# One round per channel, product outcomes lined up with the channel signs so
# every round contributes +1 to C; the largest value C = 4 an experiment can
# produce, perfectly legal on finite data.
MAXIMAL_VIOLATION_RECORDS = (
    MeasurementRecord(time_index=1, a=+1, b=+1, c=+1, i=1, j=1),
    MeasurementRecord(time_index=2, a=+1, b=-1, c=-1, i=1, j=2),
    MeasurementRecord(time_index=3, a=+1, b=+1, c=+1, i=2, j=1),
    MeasurementRecord(time_index=4, a=+1, b=+1, c=+1, i=2, j=2),
)


@dataclass(frozen=True)
class RoundTally:
    """Aggregated per-channel counts: m = sum of c outcomes, n = rounds.

    Tuples follow the channel order of ``CHANNELS``.  Channels may be empty
    (m=0, n=0); correlation computation rejects those later.
    """

    m: tuple[int, int, int, int]
    n: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        m = tuple(self.m)
        n = tuple(self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if len(m) != 4 or len(n) != 4:
            raise InvalidConfigError("tally needs four (m, n) channel entries")
        for mk, nk in zip(m, n):
            if nk < 0:
                raise InvalidConfigError(f"round count cannot be negative, got {nk}")
            if abs(mk) > nk or (mk - nk) % 2 != 0:
                raise InvalidConfigError(
                    f"channel sum m={mk} unreachable in n={nk} rounds (needs |m| <= n, m = n mod 2)"
                )


def tally(records: Iterable[MeasurementRecord]) -> RoundTally:
    """Aggregate measurement rows into per-channel (m, n) counts."""
    m = [0, 0, 0, 0]
    n = [0, 0, 0, 0]
    for record in records:
        if record.c != record.a * record.b:
            raise CorruptRecordError(f"record {record!r} has c != a*b")
        k = CHANNELS.index((record.i, record.j))
        m[k] += record.c
        n[k] += 1
    return RoundTally(m=tuple(m), n=tuple(n))


def chsh_correlation(counts: RoundTally) -> Fraction:
    """The measured correlation C as an exact rational.

    Requires every channel to have at least one round.
    """
    for (i, j), nk in zip(CHANNELS, counts.n):
        if nk == 0:
            raise InvalidConfigError(f"channel {(i, j)} has no rounds; correlation undefined")
    return sum(
        sign * Fraction(mk, nk)
        for sign, mk, nk in zip(CHANNEL_SIGNS, counts.m, counts.n)
    )


def is_violation(correlation, threshold: str = STRICT) -> bool:
    """Whether |C| exceeds the classical bound.

    Comparison is exact rational arithmetic; floats are converted to the
    exact rational they represent, so boundary cases never wobble.
    """
    _check_threshold(threshold)
    magnitude = abs(Fraction(correlation))
    if threshold == STRICT:
        return magnitude > CLASSICAL_BOUND
    return magnitude >= CLASSICAL_BOUND


@dataclass(frozen=True)
class ViolationProbability:
    """A violation probability tagged with how it was computed.

    ``value`` is an exact Fraction for method "exact" and a float for the
    analytic and Monte Carlo methods.
    """

    value: Fraction | float
    method: str
    threshold: str
    config: ExperimentConfig

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)
        if not 0 <= self.value <= 1:
            raise InvalidConfigError(f"probability out of range: {self.value!r}")


def _plan(rounds: Sequence[int]) -> tuple[list, list, tuple[int, int]]:
    """Split the channels into the exact kernel's three parts.

    Channels with equal counts share the coefficient q = lcm/n, so they
    add up to one fair walk of their combined length (Vandermonde's
    identity).  The 1 to 4 groups, as (length, q) sorted by length, split
    into the streamed outer part (the shortest group when there are four),
    the tabulated middle part, and the longest group, whose row is streamed.
    """
    scale = math.lcm(*rounds)
    *rest, longest = sorted((n * rounds.count(n), scale // n) for n in set(rounds))
    # len(rest) // 3 is 1 only when there are four groups
    return rest[: len(rest) // 3], rest[len(rest) // 3 :], longest


def enumeration_cost(config: ExperimentConfig) -> int:
    """Work of the exact kernel's plan, the unit the enumeration budget caps.

    Counts the entries the outer and middle sums are built from, the
    streamed (outer sum, longest-group step) pairs and the binomial row
    entries (about N).  Each is weighted by the width of the kernel's
    integers, ceil(N/64) words, plus a constant for the interpreter work
    per entry, so the price tracks both time and memory.  Computed from the
    counts alone, before any row is built.
    """
    outer, middle, (longest, _) = _plan(config.rounds)
    work = sum(sum(accumulate((n + 1 for n, _ in part), mul)) for part in (outer, middle))
    work += math.prod(n + 1 for n, _ in outer) * (longest + 1) + config.total
    # 60 words: the interpreter work of one entry (dict update, bisection,
    # loop step), fitted on timings of every plan shape
    return work * (-(-config.total // 64) + 60)


def _walk_sums(groups: Sequence[tuple[int, int]]) -> dict[int, int]:
    """Path counts of the joint walks of ``groups``, keyed by sum_k q_k*m_k
    for each group's (length, q); equal sums merge.  No groups leave the
    single empty sum {0: 1}."""
    sums = {0: 1}
    for length, q in groups:
        row = [(q * (2 * i - length), w) for i, w in enumerate(binomial_row(length))]
        merged: dict[int, int] = {}
        for s, count in sums.items():
            for step, w in row:
                merged[s + step] = merged.get(s + step, 0) + count * w
        sums = merged
    return sums


def _violation_numerator(rounds: Sequence[int], threshold: str) -> int:
    """Number of the 2**N sign patterns whose correlation violates.

    Works in integer units of lcm(n1..n4): C compares to 2 exactly as
    S = sum_k q_k*m_k compares to 2*lcm, with q_k = lcm/n_k.  Each channel's
    path counts are symmetric in m_k, so the minus sign on the (1,2)
    channel leaves the distribution of S unchanged and S is symmetric about
    0: the lower half-space holds as many patterns as the upper one.

    Meet in the middle over the equal-count groups of ``_plan``: the middle
    part's sums are sorted with suffix sums of their path counts, so for
    each outer sum s and each step of the longest group the violating
    middle sums, >= 2*lcm - s - step (+1 when strict), are one bisection
    away.  The outer part and the longest row are streamed rather than
    tabulated, which keeps memory at one binomial row when a group is long.
    """
    outer, middle, (length, q) = _plan(rounds)
    sums = _walk_sums(middle)
    keys = sorted(sums)
    # pop frees each count once it is in the suffix sums
    tail = list(accumulate((sums.pop(t) for t in reversed(keys)), initial=0))[::-1]
    offset = 2 * math.lcm(*rounds) + int(threshold == STRICT)
    # (r, path count) per step of the longest group: a middle sum t
    # violates with outer sum s exactly when t >= r - s
    row = [(offset - q * (2 * i - length), w) for i, w in enumerate(binomial_row(length))]
    upper = 0
    for s, count in _walk_sums(outer).items():
        upper += count * sum(w * tail[bisect_left(keys, r - s)] for r, w in row)
    return 2 * upper


def exact_violation_probability(
    config: ExperimentConfig,
    threshold: str = STRICT,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ViolationProbability:
    """Exact violation probability as a dyadic rational over 2**N.

    Counts the violating sign patterns over the four-channel displacement
    lattice, weighted by the binomial path counts; every comparison is
    integer arithmetic, so the result is bit-exact.  Refuses, before any
    binomial row is built, configurations whose ``enumeration_cost``
    exceeds ``budget`` (use the analytic method there).
    """
    _check_threshold(threshold)
    if budget < 0:
        raise InvalidConfigError(f"enumeration budget must be non-negative, got {budget}")
    cost = enumeration_cost(config)
    if cost > budget:
        raise LimitError(
            f"exact enumeration costs {cost} work units, over the budget {budget}; "
            "the analytic method has no such limit"
        )
    return ViolationProbability(
        value=Fraction(_violation_numerator(config.rounds, threshold), 1 << config.total),
        method="exact",
        threshold=threshold,
        config=config,
    )


def gaussian_tail_probability(rounds: Sequence[float]) -> float:
    """erfc(sqrt(2 / (1/n1 + 1/n2 + 1/n3 + 1/n4))) for the given round counts.

    After rescaling each channel sum by sqrt(2*n_k) the Gaussian measure is
    rotation invariant, and this is erfc of the distance from the origin to
    the boundary plane C = 2.  Accurate for large counts, increasingly
    optimistic for very small ones.  Accepts non-integer counts so
    continuous sweeps can evaluate the same formula.  Integer counts may lie
    past float range: 1 / n rounds correctly for any int, and when every 1/n
    underflows to 0 the tail is 0.0, as erfc of a huge distance is.
    """
    # comparing an int with inf is exact, so counts past float range pass
    if not rounds or any(
        not (isinstance(n, (int, float)) and 0 < n < math.inf) for n in rounds
    ):
        raise InvalidConfigError(f"round counts must be positive and finite, got {tuple(rounds)}")
    inverse_sum = math.fsum(1 / n for n in rounds)
    return math.erfc(math.sqrt(2.0 / inverse_sum)) if inverse_sum else 0.0


def analytic_violation_probability(config: ExperimentConfig) -> ViolationProbability:
    """Gaussian-tail approximation of the violation probability.

    Tagged "strict" by convention: the continuous measure puts zero mass on
    the boundary C = +-2, so the strict and non-strict probabilities
    coincide in this approximation.
    """
    return ViolationProbability(
        value=gaussian_tail_probability(config.rounds),
        method="analytic",
        threshold=STRICT,
        config=config,
    )
