"""The four-channel CHSH experiment on classical fair-coin rounds.

An experiment fixes four round counts (n1..n4), one per polarizer pair
(i, j) in the order (1,1), (1,2), (2,1), (2,2).  Every round yields a
product outcome c = a*b in {-1, +1}; the per-channel sums m_k are endpoints
of independent fair walks, and the measured correlation is

    C = m1/n1 - m2/n2 + m3/n3 + m4/n4

with the minus sign on the (1,2) channel.  A violation is |C| > 2 (strict)
or |C| >= 2 (non-strict); the two differ because finite samples put real
probability mass on the boundary C = +-2.

Two routes to the violation probability live here: exact enumeration over
channel displacements, weighted by integer binomial rows (bit-exact), and
the Gaussian tail formula erfc(sqrt(2 / sum_k 1/n_k)).  The third route,
Monte Carlo simulation, lives in :mod:`chshprob.montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CorruptRecordError, InvalidConfigError, LimitError
from .walks import binomial_row, erfc

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

METHODS = ("exact", "analytic", "monte-carlo")

# Default ceiling on the displacement-tuple count (n1+1)(n2+1)(n3+1)(n4+1)
# accepted by exact enumeration.
DEFAULT_ENUMERATION_BUDGET = 10**8


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

    def channel(self, i: int, j: int) -> tuple[int, int]:
        """(m, n) for polarizer pair (i, j)."""
        return self.m[CHANNELS.index((i, j))], self.n[CHANNELS.index((i, j))]


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
        if self.method not in METHODS:
            raise InvalidConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        _check_threshold(self.threshold)
        if not 0 <= self.value <= 1:
            raise InvalidConfigError(f"probability out of range: {self.value!r}")


def enumeration_cost(config: ExperimentConfig) -> int:
    """Displacement-tuple count (n1+1)(n2+1)(n3+1)(n4+1) of exact enumeration."""
    cost = 1
    for n in config.rounds:
        cost *= n + 1
    return cost


def _violation_numerator(rounds: Sequence[int], threshold: str) -> int:
    """Sum of binomial weight products over violating displacement tuples.

    Works in integer units of lcm(n1..n4): C compares to 2 exactly as
    sum_k q_k*m_k compares to 2*lcm, with q_k = lcm/n_k.  Each channel's
    weight sequence is symmetric in m_k, so flipping the sign of the
    subtracted channel leaves the distribution of C unchanged; all channels
    can therefore be summed with a plus sign.  The innermost (largest)
    channel is resolved through prefix sums instead of iteration, which
    drops the cost from prod(n_k+1) to the product over the other three.
    """
    strict = threshold == STRICT
    order = sorted(range(4), key=lambda k: rounds[k])
    ns = [rounds[k] for k in order]
    weights = [binomial_row(n) for n in ns]
    scale = math.lcm(*ns)
    bound = 2 * scale
    qs = [scale // n for n in ns]
    contribs = [
        [q * (2 * i - n) for i in range(n + 1)] for q, n in zip(qs, ns)
    ]

    n4, q4 = ns[3], qs[3]
    prefix = [0]
    for w in weights[3]:
        prefix.append(prefix[-1] + w)
    total_w4 = prefix[-1]
    top = n4 + 1

    total = 0
    for c1, w1 in zip(contribs[0], weights[0]):
        for c2, w2 in zip(contribs[1], weights[1]):
            c12 = c1 + c2
            w12 = w1 * w2
            for c3, w3 in zip(contribs[2], weights[2]):
                s = c12 + c3
                # upper half space: m*q4 > bound - s (>= when non-strict)
                r = bound - s
                if strict:
                    m_min = r // q4 + 1
                else:
                    m_min = -((-r) // q4)
                i0 = (m_min + n4 + 1) // 2
                if i0 < 0:
                    i0 = 0
                elif i0 > top:
                    i0 = top
                count = total_w4 - prefix[i0]
                # lower half space: m*q4 < -bound - s (<= when non-strict)
                r = -bound - s
                if strict:
                    m_max = -((-r) // q4) - 1
                else:
                    m_max = r // q4
                i1 = (m_max + n4) // 2 + 1
                if i1 < 0:
                    i1 = 0
                elif i1 > top:
                    i1 = top
                count += prefix[i1]
                if count:
                    total += w12 * w3 * count
    return total


def exact_violation_probability(
    config: ExperimentConfig,
    threshold: str = STRICT,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ViolationProbability:
    """Exact violation probability as a dyadic rational over 2**N.

    Enumerates the four-channel displacement lattice weighted by the
    binomial path counts; every comparison is integer arithmetic, so the
    result is bit-exact.  Refuses configurations whose lattice exceeds
    ``budget`` tuples (use the analytic method there).
    """
    _check_threshold(threshold)
    if budget < 0:
        raise InvalidConfigError(f"enumeration budget must be non-negative, got {budget}")
    cost = enumeration_cost(config)
    if cost > budget:
        raise LimitError(
            f"exact enumeration needs {cost} displacement tuples, over the budget {budget}; "
            "the analytic method has no such limit"
        )
    numerator = _violation_numerator(config.rounds, threshold)
    return ViolationProbability(
        value=Fraction(numerator, 1 << config.total),
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
    continuous sweeps can evaluate the same formula.
    """
    if not rounds or any(
        not (isinstance(n, (int, float)) and math.isfinite(n) and n > 0) for n in rounds
    ):
        raise InvalidConfigError(f"round counts must be positive and finite, got {tuple(rounds)}")
    return erfc(math.sqrt(2.0 / math.fsum(1.0 / n for n in rounds)))


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
