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

The exact count weighs sign patterns by the binomial path counts of fair
walks, all from one recurrence, C(n, i+1) = C(n, i) * (n - i) // (i + 1):
``binomial_row`` builds the rows of the shorter groups' tables, and the
kernel takes the same steps along the longest group's row without building
it.  Row lengths are not limited by ``binomial_row``: the enumeration
budget prices every row of a plan and refuses over-budget work before any
row is built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import accumulate

from .errors import CorruptRecordError, InvalidConfigError, LimitError

# Type checkers read this block; at run time only the functions that build an
# exact value import fractions, so floats-only work never loads it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

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

# Default ceiling on ``enumeration_cost``, the price of an exact run: on a
# 2-core x86 host (Python 3.11) where a pure-Python loop of 10**6
# ``t += i*i`` takes 0.2 s, the largest configurations it accepts in 16 plan
# shapes ran in 0.5 to 2.7 s end to end with printing, at 173 MiB peak RSS
# or less; (1, 1, 16639, 16640) took 0.5 s.
DEFAULT_ENUMERATION_BUDGET = 7 * 10**7


def _check_threshold(threshold: str) -> None:
    if threshold not in THRESHOLDS:
        raise InvalidConfigError(f"threshold must be one of {THRESHOLDS}, got {threshold!r}")


class _Record:
    """An immutable value: its fields are its ``__slots__``, set once by
    ``__init__``, and equality, hashing, repr, pickling and copying go by
    the field values."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled record is validated too
        return type(self), self._values()


class ExperimentConfig(_Record):
    """Round counts (n1, n2, n3, n4) for the four channels, each >= 1."""

    __slots__ = ("rounds",)

    def __init__(self, rounds: tuple[int, int, int, int]) -> None:
        rounds = tuple(rounds)
        super().__init__(rounds)
        if len(rounds) != 4:
            raise InvalidConfigError(f"exactly four round counts required, got {len(rounds)}")
        for n in rounds:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidConfigError(f"round counts must be positive integers, got {rounds}")

    @property
    def total(self) -> int:
        """Total number of measurement rounds N."""
        return sum(self.rounds)


class MeasurementRecord(_Record):
    """One measurement row: outcomes a, b, their product c, and the
    polarizer pair (i, j) active at that time step."""

    __slots__ = ("time_index", "a", "b", "c", "i", "j")

    def __init__(self, time_index: int, a: int, b: int, c: int, i: int, j: int) -> None:
        super().__init__(time_index, a, b, c, i, j)
        for name in self.__slots__:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CorruptRecordError(f"{name} must be an integer, got {value!r}")
        if self.time_index < 1:
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


class RoundTally(_Record):
    """Aggregated per-channel counts: m = sum of c outcomes, n = rounds.

    Tuples follow the channel order of ``CHANNELS``.  Channels may be empty
    (m=0, n=0); correlation computation rejects those later.
    """

    __slots__ = ("m", "n")

    def __init__(self, m: tuple[int, int, int, int], n: tuple[int, int, int, int]) -> None:
        m = tuple(m)
        n = tuple(n)
        super().__init__(m, n)
        if len(m) != 4 or len(n) != 4:
            raise InvalidConfigError("tally needs four (m, n) channel entries")
        for count in m + n:
            if not isinstance(count, int) or isinstance(count, bool):
                raise InvalidConfigError(f"tally entries must be integers, got m={m} n={n}")
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
    from fractions import Fraction

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
    from fractions import Fraction

    _check_threshold(threshold)
    magnitude = abs(Fraction(correlation))
    if threshold == STRICT:
        return magnitude > CLASSICAL_BOUND
    return magnitude >= CLASSICAL_BOUND


class ViolationProbability(_Record):
    """A violation probability tagged with how it was computed.

    ``value`` is an exact Fraction for method "exact" and a float for the
    analytic and Monte Carlo methods.
    """

    __slots__ = ("value", "method", "threshold", "config")

    def __init__(
        self, value: Fraction | float, method: str, threshold: str, config: ExperimentConfig
    ) -> None:
        super().__init__(value, method, threshold, config)
        _check_threshold(self.threshold)
        if not 0 <= self.value <= 1:
            raise InvalidConfigError(f"probability out of range: {self.value!r}")


# Weights of the price, in units of about 10 ns of work on that host.
# A unit is one 64-bit word of linear integer work: a row step multiplies
# and divides a path count by small ints, and a table word held costs about
# as much again in cache misses.  Besides those: a fixed cost per call, a
# loop step or dict update per entry visited, and a fifth of a unit per
# word-by-word product of two wide integers.
_BASE_COST = 2000
_ENTRY_COST = 12
_PRODUCTS_PER_UNIT = 5
# Peak memory is priced apart, at 5 units per 12 bytes: each middle-table
# sum holds its count, 8 bytes per 64-bit word, and about 200 bytes of dict,
# key and suffix-sum slots (fitted on peak RSS).
_TABLE_SUM_BYTES = 200

# The plan finds the walk's reach exactly by enumerating the sums of the
# groups other than the longest, up to this many; past it the walk is priced
# at its longest, half the row.
_REACH_ENUMERATION_LIMIT = 4096


def _words(bits: int) -> int:
    """64-bit words of a typical path count below 2**bits, at least one.

    C(n, i) has n * H(i/n) bits, n / (2 ln 2) or about 0.72 n on average
    over i; taken as three quarters of the bound.
    """
    return max(1, -(-3 * bits // 256))


def _product(a: int, b: int) -> int:
    """Word-by-word work of multiplying integers of a and b 64-bit words:
    a*b, less a quarter per halving of the shorter one past 32 words, where
    CPython's Karatsuba multiplication does three half-size products
    instead of four."""
    shorter, work = min(a, b), a * b
    while shorter > 32:
        shorter, work = shorter // 2, work * 3 // 4
    return work


def _distinct_sums(groups: Sequence[tuple[int, int]]) -> int:
    """Number of distinct sums of the joint walks of at most two groups.

    Two groups (a, q_a) and (b, q_b) reach equal sums exactly when their
    step counts differ by a multiple of (q_b/g, -q_a/g), g = gcd(q_a, q_b);
    the pairs with a partner one such move away are the repeats.
    """
    if len(groups) < 2:
        return math.prod(n + 1 for n, _ in groups)
    (a, q_a), (b, q_b) = groups
    g = math.gcd(q_a, q_b)
    return (a + 1) * (b + 1) - max(0, a + 1 - q_b // g) * max(0, b + 1 - q_a // g)


def _walk_reach(rest: Sequence[tuple[int, int]], longest: tuple[int, int], scale: int) -> int:
    """Steps the kernel walks along the longest group's row.

    The walk goes up from C(L, 0) to the deepest prefix point that a
    threshold k in 1..L folds into, min(k - 1, L - k), over every sum u of
    the other groups and both thresholds.  Past ``_REACH_ENUMERATION_LIMIT``
    sums it is priced at its longest, half the row.
    """
    length, q = longest
    if math.prod(n + 1 for n, _ in rest) > _REACH_ENUMERATION_LIMIT:
        return (length - 1) // 2
    sums = {0}
    for n, r in rest:
        sums = {s + r * (2 * i - n) for s in sums for i in range(n + 1)}
    reach = 0
    for u in sums:
        for offset in (2 * scale, 2 * scale + 1):
            k = -((u - offset - q * length) // (2 * q))
            if 1 <= k <= length:
                reach = max(reach, min(k - 1, length - k))
    return reach


def _plan(rounds: Sequence[int]) -> tuple[list, list, tuple[int, int], int]:
    """Split the channels into the exact kernel's parts and price the run.

    Channels with equal counts share the coefficient q = lcm/n, so they
    add up to one fair walk of their combined length (Vandermonde's
    identity).  The 1 to 4 groups, as (length, q) sorted by length, split
    into the outer part (the shortest group when there are four), the
    tabulated middle part, and the longest group.

    The price follows the kernel's work, counted before any row is built:
    the tables and the middle table's suffix sums; per outer sum, at most
    min(middle sums, L + 2) visits, each a bisection into the sorted table
    and one product; one product per threshold, which bounds the kernel's
    one product per prefix point; and the walk along the longest row to
    the deepest prefix point (``_walk_reach``).

    Returns (outer, middle, longest, cost).  cost, the run's price, is the
    larger of two: time (that work, a fixed cost per call, and the
    result's reduction and printing, quadratic in its N/64 words) and peak
    memory (the middle table).  One price covers both thresholds; it is at
    least 1.
    """
    scale = math.lcm(*rounds)
    *rest, longest = sorted((n * rounds.count(n), scale // n) for n in set(rounds))
    outer, middle = rest[: len(rest) // 3], rest[len(rest) // 3 :]
    length = longest[0]
    entries = products = 0
    for part in (outer, middle):
        size, bits = 1, 0
        for n, _ in part:
            entries += size * (n + 1)
            products += size * (n + 1) * _product(_words(bits), _words(n))
            size *= n + 1
            bits += n
    outer_sums, middle_sums = _distinct_sums(outer), _distinct_sums(middle)
    outer_words = _words(sum(n for n, _ in outer))
    middle_words = _words(sum(n for n, _ in middle))
    row_words = _words(length)
    visits = outer_sums * min(middle_sums, length + 2)
    thresholds = min(visits, length)
    reach = _walk_reach(rest, longest, scale)
    entries += middle_sums + visits + thresholds + reach
    products += visits * _product(outer_words, middle_words)
    products += thresholds * _product(outer_words + middle_words, row_words)
    linear = middle_sums * middle_words + reach * row_words
    time = _ENTRY_COST * entries + products // _PRODUCTS_PER_UNIT + linear
    # the result k / 2**N is reduced and printed in time quadratic in its
    # N/64 words: about 11 ns per square word on Python 3.10 and 3.11 (3.12
    # prints long ints faster), priced at half a unit
    time += _BASE_COST + (-(-sum(rounds) // 64)) ** 2 // 2
    held_bytes = middle_sums * (8 * -(-sum(n for n, _ in middle) // 64) + _TABLE_SUM_BYTES)
    memory = held_bytes * 5 // 12
    return outer, middle, longest, max(time, memory)


def enumeration_cost(config: ExperimentConfig) -> int:
    """Price of an exact run, the unit the enumeration budget caps.

    The larger of a time price and a memory price (``_plan``).  Time
    counts the entries the kernel visits, its word-by-word products and
    its linear integer work on the middle table and along the longest
    row, plus a fixed cost per call and the result's reduction and
    printing, quadratic in its N/64 words; a unit is about 10 ns on the
    host the weights were fitted on.  Memory counts the bytes the middle
    table holds, 5 units per 12 bytes.  Computed from the counts alone,
    before any row is built.
    """
    return _plan(config.rounds)[-1]


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


def _violation_numerator(rounds: Sequence[int], threshold: str, plan: tuple) -> int:
    """Number of the 2**N sign patterns whose correlation violates.

    Works in integer units of lcm(n1..n4): C compares to 2 exactly as
    S = sum_k q_k*m_k compares to 2*lcm, with q_k = lcm/n_k.  Each channel's
    path counts are symmetric in m_k, so the minus sign on the (1,2)
    channel leaves the distribution of S unchanged and S is symmetric about
    0: the lower half-space holds as many patterns as the upper one.

    The upper half-space is one double sum over the groups of ``_plan``:
    for each outer sum s (count c_s), middle sum t (count c_t) and step i of
    the longest group (length L, coefficient q), the pattern violates when
    s + t + q*(2i - L) >= 2*lcm (+1 when strict), that is when i >= k(s, t)
    = ceil((base - t) / 2q) with base = 2*lcm (+1) - s + q*L.  k falls as t
    grows, so the middle sums sharing one k are a run of the sorted table,
    found by bisection, and the run's count is a difference of suffix sums.
    The weights c_s times that count merge per distinct k, each to be
    multiplied by the row's upper tail at k, sum_{i >= k} C(L, i).  With
    prefix sums P(j) = sum_{i <= j} C(L, i), that tail is 2**L - P(k - 1)
    in the lower half of the row (2k <= L + 1) and P(L - k) in the upper,
    so the weights fold into 2**L times the lower half's weights plus one
    signed coefficient per prefix point min(k - 1, L - k): mirrored
    thresholds share a point, and their weights often nearly cancel.  k = 0
    lands on P(-1) = 0 and drops.  One walk up from C(L, 0), holding two
    integers, reads the points off in order; the row is never built.
    """
    outer, middle, (length, q), _ = plan
    sums = _walk_sums(middle)
    keys = sorted(sums)
    # pop frees each count once it is in the suffix sums
    suffix = list(accumulate((sums.pop(t) for t in reversed(keys)), initial=0))[::-1]
    offset = 2 * math.lcm(*rounds) + int(threshold == STRICT)
    step, size = 2 * q, len(keys)
    weights: defaultdict[int, int] = defaultdict(int)
    for s, count in _walk_sums(outer).items():
        base = offset - s + q * length
        # middle sums below base - 2qL violate at no step (k > L)
        j = bisect_left(keys, base - step * length)
        while j < size:
            k = -((keys[j] - base) // step)
            if k <= 0:
                # every step violates, with this sum and all larger ones
                weights[0] += count * suffix[j]
                break
            end = bisect_left(keys, base - step * (k - 1), j)
            weights[k] += count * (suffix[j] - suffix[end])
            j = end
    total = sum(w for k, w in weights.items() if 2 * k <= length + 1) << length
    at: defaultdict[int, int] = defaultdict(int)
    for k, w in weights.items():
        at[min(k - 1, length - k)] += -w if 2 * k <= length + 1 else w
    at.pop(-1, None)
    entry = prefix = 1
    i = 0
    for j in sorted(at):
        while i < j:
            entry = entry * (length - i) // (i + 1)
            i += 1
            prefix += entry
        total += at[j] * prefix
    return 2 * total


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
    exceeds ``budget`` (use the analytic method there).  ``budget`` must be
    a non-negative Python int: a float, a bool or a numpy integer is refused
    with InvalidConfigError.
    """
    _check_threshold(threshold)
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise InvalidConfigError(f"enumeration budget must be an integer, got {budget!r}")
    if budget < 0:
        raise InvalidConfigError(f"enumeration budget must be non-negative, got {budget}")
    plan = _plan(config.rounds)
    cost = plan[-1]
    if cost > budget:
        raise LimitError(
            f"exact enumeration costs {cost} work units, over the budget {budget}; "
            "the analytic method has no such limit"
        )
    from fractions import Fraction

    return ViolationProbability(
        value=Fraction(_violation_numerator(config.rounds, threshold, plan), 1 << config.total),
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
    continuous sweeps can evaluate the same formula; a bool is not a count.
    Integer counts may lie past float range: 1 / n rounds correctly for any
    int, and when every 1/n underflows to 0 the tail is 0.0, as erfc of a
    huge distance is.
    """
    # comparing an int with inf is exact, so counts past float range pass
    if not rounds or any(
        isinstance(n, bool) or not (isinstance(n, (int, float)) and 0 < n < math.inf)
        for n in rounds
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
