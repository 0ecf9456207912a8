"""The exact route: the violation probability as a dyadic rational.

The probability is k / 2**N, k the number of the 2**N equally likely sign
patterns whose correlation violates.  ``violation_count`` counts k in plain
integers (bit-exact), met in the middle between groups of equal counts;
``exact_violation_probability`` wraps k / 2**N as a ``Fraction``, and
``format_dyadic`` prints it without one, as ``str`` and ``float`` of that
``Fraction`` would.

The count weighs sign patterns by the binomial path counts of fair walks,
all from one recurrence, C(n, i+1) = C(n, i) * (n - i) // (i + 1):
``binomial_row`` builds the rows of the shorter groups' tables, and the
kernel takes the same steps along the longest group's row without building
it.  Row lengths are not limited by ``binomial_row``: the enumeration
budget prices every row of a plan (``enumeration_cost``) and refuses
over-budget work before any row is built.

Only the commands that print an exact value (``toy``, ``exact`` and
``sweep --intervals``) load this module, and each prints its values
through ``format_dyadic``.  Only ``exact_violation_probability`` imports
``fractions``, and no command calls it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from itertools import accumulate

from .errors import InvalidConfigError, LimitError
from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    STRICT,
    THRESHOLDS,
    ExperimentConfig,
    ViolationProbability,
    _add_walk,
    _bounds,
)

# Weights of the price, fitted on one host.  A unit is one 64-bit word of
# linear integer work: a row step multiplies and divides a path count by
# small ints, and a table word held costs about as much again in cache
# misses.  Besides those: a fixed cost per call, a loop step or dict update
# per entry visited, and a fifth of a unit per word-by-word product of two
# wide integers.
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
    sums = {0: 1}
    for n, r in rest:
        sums = _add_walk(sums, r, (1,) * (n + 1))
    highs = [_bounds(scale, threshold)[1] for threshold in THRESHOLDS]
    reach = 0
    for u in sums:
        for high in highs:
            k = -((u - high) // q)
            if 1 <= k <= length:
                reach = max(reach, min(k - 1, length - k))
    return reach


def _plan(rounds: Sequence[int]) -> tuple[list, list, tuple[int, int], int]:
    """Split the channels into the exact kernel's parts and price the run.

    Channels with equal counts share the coefficient q = lcm/n, so they
    add up to one fair walk of their combined length (Vandermonde's
    identity).  The 1 to 4 groups, as (length, q) sorted by length, split
    into the longest group and the rest, whose shorter half is the streamed
    outer part and the other half the tabulated middle part.

    The price follows the kernel's work, counted before any row is built:
    the tables and the middle table's suffix sums; per outer sum, at most
    min(middle sums, L + 2) visits, each a bisection into the sorted table
    and one product; one product per prefix point min(k - 1, L - k), no
    more than (L + 1) // 2, the visits, or the side groups' distinct sums
    s + t, on which k depends; and the walk to the deepest (``_walk_reach``).

    Returns (outer, middle, longest, cost).  cost, the run's price, is the
    larger of two: time (that work, a fixed cost per call, and the
    result's reduction and printing, quadratic in its N/64 words) and peak
    memory (the middle table).  One price covers both thresholds; it is at
    least 1.
    """
    scale = math.lcm(*rounds)
    *rest, longest = sorted((n * rounds.count(n), scale // n) for n in set(rounds))
    outer, middle = rest[: len(rest) // 2], rest[len(rest) // 2 :]
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
    thresholds = min(visits, (length + 1) // 2, _distinct_sums(rest[:-2]) * _distinct_sums(rest[-2:]))
    reach = _walk_reach(rest, longest, scale)
    entries += middle_sums + visits + thresholds + reach
    products += visits * _product(outer_words, middle_words)
    products += thresholds * _product(outer_words + middle_words, row_words)
    linear = middle_sums * middle_words + reach * row_words
    time = _ENTRY_COST * entries + products // _PRODUCTS_PER_UNIT + linear
    # the result k / 2**N is reduced and printed in time quadratic in its
    # N/64 words on Python 3.10 and 3.11 (3.12 prints long ints faster),
    # priced at half a unit per square word
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
    printing, quadratic in its N/64 words; a unit is one 64-bit word of
    linear integer work.  Memory counts the bytes the middle table holds,
    5 units per 12 bytes.  Computed from the counts alone, before any row
    is built.
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
    """Path counts of the joint walks of ``groups``, each a (length, q),
    keyed by their part sum q*c of V (``model._bounds``); equal sums merge.
    No groups leave the single empty sum {0: 1}."""
    sums = {0: 1}
    for length, q in groups:
        sums = _add_walk(sums, q, binomial_row(length))
    return sums


def _violation_numerator(high: int, plan: tuple) -> int:
    """Number of the 2**N sign patterns whose correlation violates.

    Counts the integer V of ``model._bounds``, whose law is symmetric, so
    the patterns with V < low are as many as those with V >= ``high``.

    Those are one double sum over the groups of ``_plan``: for each outer
    sum s (count c_s), middle sum t (count c_t) and count i of the longest
    group (length L, step q), the pattern violates when s + t + q*i >= high,
    that is when i >= k(s, t) = ceil((base - t) / q) with base = high - s.
    k falls as t grows, so the middle sums sharing one k are a run of the
    sorted table, found by bisection, and the run's count is a difference of
    suffix sums.  The weights c_s times that count merge per distinct k,
    each to be multiplied by the row's upper tail at k,
    sum_{i >= k} C(L, i).  With prefix sums P(j) = sum_{i <= j} C(L, i),
    that tail is 2**L - P(k - 1) in the lower half of the row
    (2k <= L + 1) and P(L - k) in the upper, so the weights fold into 2**L
    times the lower half's weights plus one signed coefficient per prefix
    point min(k - 1, L - k): mirrored thresholds share a point, and their
    weights often nearly cancel.  k = 0 lands on P(-1) = 0 and drops.  One
    walk up from C(L, 0), holding two integers, reads the points off in
    order; the row is never built.
    """
    outer, middle, (length, step), _ = plan
    sums = _walk_sums(middle)
    keys = sorted(sums)
    # pop frees each count once it is in the suffix sums
    suffix = list(accumulate((sums.pop(t) for t in reversed(keys)), initial=0))[::-1]
    size = len(keys)
    weights: defaultdict[int, int] = defaultdict(int)
    for s, count in _walk_sums(outer).items():
        base = high - s
        # middle sums below base - qL violate at no step (k > L)
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


def violation_count(
    config: ExperimentConfig,
    threshold: str = STRICT,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Number k of the 2**N sign patterns whose correlation violates.

    Counts the violating sign patterns over the four-channel displacement
    lattice, weighted by the binomial path counts; every comparison is
    integer arithmetic, so the count is bit-exact.  Refuses, before any
    binomial row is built, configurations whose ``enumeration_cost``
    exceeds ``budget`` (use the analytic method there).  ``budget`` must be
    a non-negative Python int: a float, a bool or a numpy integer is refused
    with InvalidConfigError.
    """
    _, high = _bounds(math.lcm(*config.rounds), threshold)
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
    return _violation_numerator(high, plan)


def exact_violation_probability(
    config: ExperimentConfig,
    threshold: str = STRICT,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ViolationProbability:
    """Exact violation probability as a dyadic rational over 2**N.

    The ``Fraction`` k / 2**N of ``violation_count``'s k, with its checks
    and its refusal of configurations over ``budget``.
    """
    count = violation_count(config, threshold, budget=budget)
    from fractions import Fraction

    return ViolationProbability(
        value=Fraction(count, 1 << config.total),
        method="exact",
        threshold=threshold,
        config=config,
    )


def format_dyadic(count: int, bits: int) -> tuple[str, float]:
    """count / 2**bits as text in lowest terms, and as the nearest float.

    Byte for byte what ``str`` and ``float`` of ``Fraction(count, 2**bits)``
    give ("0", "1", "p/q"), for 0 <= count <= 2**bits, without building the
    ``Fraction``: the only common factors are the factors of 2 that
    ``count``'s trailing zero bits hold, and int division rounds correctly,
    as ``Fraction.__float__`` does.
    """
    shift = min(bits, (count & -count).bit_length() - 1) if count else bits
    numerator, denominator = count >> shift, 1 << (bits - shift)
    text = str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    return text, numerator / denominator
