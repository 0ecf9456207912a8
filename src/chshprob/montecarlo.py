"""Seeded Monte Carlo simulation of finite-round experiments.

Round-level sampling: every channel round is an independent fair +-1 draw,
an experiment is a full tally, and the violation frequency over many
experiments estimates the same probability the exact and analytic routes
compute.  Streams are derived from a user seed through numpy SeedSequence
spawning, so runs are reproducible bit-for-bit regardless of how many
workers execute the trial batches.

Rounds are packed 64 to a word: one experiment is a row of
ceil(sum(n_k) / 64) raw PCG64 outputs, bit j of the row (bit j % 64 of word
j // 64) is round j, and bit 1 is a +1 round.  Channel k owns the n_k bits
that follow channels 1..k-1.  ``STREAM_VERSION`` names this layout;
version 1 was one int8 draw per round per channel.  Hit counts differ
between versions for the same seed.

A row is weighed, not counted channel by channel: a +1 round of channel k
weighs sign_k * lcm(n) / n_k, one pass of popcounts sums a row's weights W
(a word that one channel owns entirely times that channel's weight, and a
masked segment per channel of each word that channels share), and the row
violates when |W - lcm| > lcm, or >= when non-strict.  Rows longer than
16 rounds are drawn and weighed GROUP_WORDS words (128 KiB) at a time, so
a worker holds about one group of draws, never a whole batch, and the
weights of a row's words are built once a batch: a weight per word for a
row that fits a group or a piece that holds a channel edge, and one weight
read through a zero stride for a piece inside one channel.  A short
row, one whose 2**sum(n_k) possible values fit in one batch
(sum(n_k) <= 16), is looked up instead: the low sum(n_k) bits of its word
index a table of which rows violate, built by the same weighing and
comparison, so both read the same stream and give the same hits.  A
process keeps the 32 tables it used last, one per (rounds, threshold), at
most 2 MiB.

A small run is drawn without numpy: while numpy is not loaded, a run of
at most PYTHON_RUN_WORDS words, always one batch, reads the same PCG64
words from ``_pcg64_words``, numpy's seeding and generator written out in
Python integers, and weighs each row with ``int.bit_count``.  It gives the
same hits, and a short ``mc`` process never pays numpy's import.  numpy is
imported only when a run needs it, so this module loads without numpy.

One function, ``_pooled_hits``, decides a run's engine, batches and pool.
With k = min(workers, batches, CPU count) workers, worker i sums batches
i, i + k, i + 2k, ...; the calling thread is worker 0 and the other k - 1
are threads, each adding its batches' hits into its own list slot.  A
worker that raises stops the others between batches, and the run raises
its error.  The worker count never changes the hits.  Batches are made
one at a time, so memory does not grow with the trial count.  A run is
priced at trials * ceil(sum(n_k) / 64) words before any draw, and a run
over RUN_WORD_BUDGET is refused with LimitError.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from functools import lru_cache, partial
from itertools import accumulate, islice

from .errors import InvalidConfigError, LimitError
from .model import (
    CHANNEL_SIGNS,
    STRICT,
    ExperimentConfig,
    _check_threshold,
    _Record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

# Fixed batching rule: batch b of a run draws from the child stream
# SeedSequence(seed, spawn_key=(b,)).  Batch size depends only on the
# config (bounding a batch's packed rows to WORD_BUDGET uint64 words,
# 4 MiB), never on the worker count, which is what makes 1-worker and
# k-worker runs bit-identical.  Only short rows are drawn a batch at a
# time; longer rows are drawn and weighed GROUP_WORDS words (128 KiB) at a
# time, a row longer than that in pieces.
WORD_BUDGET = 1 << 19
MAX_BATCH_TRIALS = 1 << 16
GROUP_WORDS = 1 << 14
# The same budget in bytes; benchmarks/tracing.py still reads this name.
BATCH_ELEMENT_BUDGET = 8 * WORD_BUDGET
STREAM_VERSION = 2
# Words one run may draw: 40 s to 2 minutes at one worker for rows of two
# words or more, which draw and weigh 7e7-2.3e8 words/s on a 2-core test
# machine, and 30-50 s for short rows, looked up at 1.7e8-3e8.  One-word
# rows of 17-64 rounds run at 4.4e7-6.6e7 words/s, so theirs takes up to
# 3.5 minutes.  Rows whose weights pass int64 (4*lcm >= 2**62) weigh one
# Python product per word, 9e6-1.1e7 words/s there, so theirs takes 13-16
# minutes.
RUN_WORD_BUDGET = 1 << 33
# Words a run may draw in pure Python, if numpy is not loaded yet; see
# _pooled_hits.  At most MAX_BATCH_TRIALS and WORD_BUDGET, so such a run is
# one batch whatever its row length.  Half the measured crossover: on a
# 2-core test machine an mc process drawing 2**15 words in Python took
# 138-163 ms against 226-236 ms for one that imports numpy, and at 2**16
# one-word rows were 6-8% faster, within the noise.
PYTHON_RUN_WORDS = 1 << 15

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# statistics.NormalDist().inv_cdf(0.975), written out so importing costs nothing
_Z95 = 1.9599639845400536


class McEstimate(_Record):
    """Violation-frequency estimate with its 95% Wilson interval."""

    __slots__ = (
        "trials", "hits", "estimate", "ci_low", "ci_high", "seed", "threshold", "config", "stream"
    )

    def __init__(
        self,
        trials: int,
        hits: int,
        estimate: float,
        ci_low: float,
        ci_high: float,
        seed: int,
        threshold: str,
        config: ExperimentConfig,
        stream: int = STREAM_VERSION,
    ) -> None:
        super().__init__(trials, hits, estimate, ci_low, ci_high, seed, threshold, config, stream)
        if not 0 <= self.hits <= self.trials:
            raise InvalidConfigError(f"hits {self.hits} outside 0..{self.trials}")
        if not (0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0):
            raise InvalidConfigError(
                f"interval disordered: {self.ci_low} <= {self.estimate} <= {self.ci_high} required"
            )
        _check_threshold(self.threshold)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because it stays sensible when hits is 0
    or tiny, the usual regime for rare violations.  ``hits`` and ``trials``
    must be int counts; a bool or any other type is refused.
    """
    for value in (hits, trials):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidConfigError(f"counts must be integers, got {value!r}")
    if trials < 1 or not 0 <= hits <= trials:
        raise InvalidConfigError(f"need 0 <= hits <= trials, got hits={hits} trials={trials}")
    p = hits / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the true interval always contains p; the clamps only absorb last-ulp rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _row_words(rounds: tuple[int, ...]) -> int:
    return -(-sum(rounds) // 64)


def _batch_trials(rounds: tuple[int, ...]) -> int:
    return max(1, min(MAX_BATCH_TRIALS, WORD_BUDGET // _row_words(rounds)))


def _layout(rounds: tuple[int, ...], first_word: int, span: int) -> tuple:
    """How ``_weigh`` weighs words ``first_word`` .. ``first_word + span - 1`` of a row.

    A +1 round of channel k weighs sign_k * lcm(rounds) / n_k.  ``whole[w]``
    is the weight of the channel that owns word w entirely, and 0 for a
    split word, one that holds a channel edge or the row's unused tail
    bits.  A split word is cut into one segment per channel in it: the
    word, the channel's bits in it as a mask, and the channel's weight.
    Built from the channel offsets in O(channels), whatever the row length.
    A piece of a long row that lies inside one channel's whole words, as
    all but the few that hold an edge do, has no split word, and its
    ``whole`` is that channel's weight read through a zero stride, so it
    fills nothing of the piece's length.  Every partial sum of weights lies
    within 4*lcm, so the weights are int64 below 2**62 and Python integers
    beyond.
    """
    import numpy as np

    scale = math.lcm(*rounds)
    dtype = np.int64 if 4 * scale < 2**62 else object
    whole, cut_words, masks, cut_weights = np.zeros(span, dtype=dtype), [], [], []
    for sign, n, lo in zip(CHANNEL_SIGNS, rounds, accumulate(rounds, initial=0)):
        weight = sign * (scale // n)
        if -(-lo // 64) <= first_word and first_word + span <= (lo + n) // 64:
            # this channel owns every word of the piece, and the channels
            # before it end before the piece, so no word was cut
            whole = np.broadcast_to(np.array(weight, dtype=dtype), span)
            break
        whole[max(-(-lo // 64) - first_word, 0) : max((lo + n) // 64 - first_word, 0)] = weight
        for word in {lo // 64, (lo + n - 1) // 64}:
            if 0 <= word - first_word < span and not lo <= 64 * word <= lo + n - 64:
                cut_words.append(word - first_word)
                masks.append((1 << min(lo + n - 64 * word, 64)) - (1 << max(lo - 64 * word, 0)))
                cut_weights.append(weight)
    return whole, np.array(cut_words, int), np.array(masks, np.uint64), np.array(cut_weights, dtype)


def _weigh(bits: np.ndarray, layout: tuple) -> np.ndarray:
    """Each row's summed weight over its +1 rounds in ``bits`` (trials x words).

    ``layout`` (from ``_layout``) says which row words ``bits`` holds.
    Unless no word is split, the split words' segments are copied out as
    segments x trials, masked, popcounted in place and weighed; then,
    unless no word is whole, ``bits`` is popcounted in place and its whole
    words weighed by one matrix-vector product.  ``bits`` is overwritten.
    The products are int64 or Python integers, which numpy multiplies in
    its own loops, never in BLAS.
    """
    import numpy as np

    whole, cut_words, masks, cut_weights = layout
    weight = 0
    if cut_words.size:
        cut = bits.T[cut_words]
        cut &= masks[:, np.newaxis]
        weight = np.dot(cut_weights, np.bitwise_count(cut, out=cut.view(np.int64)))
    if whole.any():
        weight += np.dot(np.bitwise_count(bits, out=bits.view(np.int64)), whole)
    return weight


def _violates(distance: np.ndarray, rounds: tuple[int, ...], threshold: str) -> np.ndarray:
    """Which rows violate, given ``distance`` = W - lcm(rounds) for each.

    W is a row's summed weight (see ``_layout``).  With m_k = 2*ones_k - n_k
    and q_k = lcm/n_k, sum_k sign_k*q_k*m_k is 2W - 2*lcm, since
    sum_k sign_k*q_k*n_k = lcm*(1 - 1 + 1 + 1).  So the correlation
    inequality with denominators cleared, |2W - 2*lcm| > 2*lcm, is
    |W - lcm| > lcm, and >= when non-strict; on integers, > lcm is >= lcm + 1.
    """
    return abs(distance) >= math.lcm(*rounds) + (threshold == STRICT)


@lru_cache(maxsize=32)
def _violation_table(rounds: tuple[int, ...], threshold: str) -> np.ndarray:
    """``table[r]``: whether the one-word row ``r`` violates, for every r < 2**sum(rounds).

    Weighed by ``_weigh`` and compared by ``_violates``, exactly as
    ``_batch_hits`` treats drawn rows.  Read-only, since every caller shares
    it.  The 32 tables used last stay cached, so a run builds its table
    once; a table is at most 2**16 bools, so the cache holds at most 2 MiB.
    """
    import numpy as np

    rows = np.arange(1 << sum(rounds), dtype=np.uint64)[:, np.newaxis]
    table = _violates(_weigh(rows, _layout(rounds, 0, 1)) - math.lcm(*rounds), rounds, threshold)
    table.flags.writeable = False
    return table


def _batch_hits(
    rounds: tuple[int, ...],
    seed: int,
    batch_index: int,
    count: int,
    threshold: str,
) -> int:
    """Violations among ``count`` experiments drawn from batch substream ``batch_index``.

    The substream's raw PCG64 words are read in order as ``count`` packed
    rows of ceil(sum(n_k) / 64) words, trial after trial; channel k's
    rounds are the n_k bits after channels 1..k-1, bit 1 a +1 round.

    A row of w = sum(n_k) bits with 2**w <= MAX_BATCH_TRIALS is looked up:
    the low w bits of its word index ``_violation_table``, which holds the
    verdict on every such row.  The mask is applied to the drawn words in
    place: a second batch-sized array (512 KiB) would take the heap past
    glibc's trim threshold, so every batch would give its pages back and
    fault them in again.  Longer rows are drawn GROUP_WORDS words at a
    time, as many whole rows as fit or one row in pieces, weighed by
    ``_weigh`` and compared by ``_violates``, group by group: the threads
    of a pooled run draw in one process, so their buffers add up.
    Sequential draws read the same stream as one.
    """
    import numpy as np

    # SeedSequence rejects negative entropy; keep the 64-bit pattern instead.
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(batch_index,))
    )
    width = sum(rounds)
    # 2**width <= MAX_BATCH_TRIALS, without building 2**width for a long row
    if width < MAX_BATCH_TRIALS.bit_length():
        # int64 is numpy's index type, so take() indexes without a conversion
        low_bits = bit_generator.random_raw(count).view(np.int64)
        np.bitwise_and(low_bits, (1 << width) - 1, out=low_bits)
        return int(np.count_nonzero(_violation_table(rounds, threshold).take(low_bits)))

    words = _row_words(rounds)
    piece = min(words, GROUP_WORDS)
    rows = max(1, GROUP_WORDS // words)
    # each piece's layout is built once a batch: a batch of two rows or more
    # holds rows of at most WORD_BUDGET // GROUP_WORDS // 2 pieces, and only
    # a piece that holds an edge, at most K + 1 a row, has a weight per word
    layout_of = lru_cache(maxsize=WORD_BUDGET // GROUP_WORDS)(partial(_layout, rounds))
    hits = 0
    for left in range(count, 0, -rows):
        distance = -math.lcm(*rounds)
        for first_word in range(0, words, piece):
            span = min(piece, words - first_word)
            layout = layout_of(first_word, span)
            distance += _weigh(bit_generator.random_raw((min(rows, left), span)), layout)
        hits += int(np.count_nonzero(_violates(distance, rounds, threshold)))
    return hits


def _pcg64_words(entropy: int, spawn_key: int) -> Iterator[int]:
    """The raw words of ``PCG64(SeedSequence(entropy, spawn_key=(spawn_key,)))``, endlessly.

    numpy's algorithms written out in Python integers, for 0 <= entropy <
    2**64 and any spawn key >= 0.  SeedSequence hashes the entropy's 32-bit
    words, padded with zeros to its four-word pool, into the pool, mixes
    every pool word into every other, then hashes in the spawn key's 32-bit
    words; four 64-bit words hashed out of the pool seed PCG64's 128-bit
    state and increment.  Each draw steps the 128-bit LCG and outputs the
    XSL-RR permutation of the new state (O'Neill 2014).
    """

    def hasher(constant: int, factor: int):
        def hashmix(value: int) -> int:
            nonlocal constant
            value ^= constant
            constant = constant * factor & _MASK32
            value = value * constant & _MASK32
            return value ^ value >> 16

        return hashmix

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy & _MASK32, entropy >> 32, 0, 0)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for shift in range(0, max(spawn_key.bit_length(), 1), 32):
        word = spawn_key >> shift & _MASK32
        for target in range(4):
            pool[target] = mix(pool[target], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    seed = [low | high << 32 for low, high in zip(out[::2], out[1::2])]
    increment = ((seed[2] << 64 | seed[3]) << 1 | 1) & _MASK128
    state = ((increment + (seed[0] << 64 | seed[1])) * _PCG64_MULTIPLIER + increment) & _MASK128
    while True:
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rotation = state >> 122
        yield (word >> rotation | word << 64 - rotation) & _MASK64


def _python_batch_hits(
    rounds: tuple[int, ...], seed: int, batch_index: int, count: int, threshold: str
) -> int:
    """``_batch_hits`` without numpy: the same words, rows and verdicts.

    The substream's words come from ``_pcg64_words``, one row at a time,
    least significant word first.  Each channel's +1 rounds are counted
    with ``int.bit_count``, weighed as in ``_layout`` and compared as in
    ``_violates``.  Python integers hold every weight, so ``_layout``'s
    int64 and Python-integer tiers are one case here.
    """
    rows = words = _pcg64_words(seed & _MASK64, batch_index)
    width = _row_words(rounds)
    if width > 1:
        rows = (
            int.from_bytes(b"".join(w.to_bytes(8, "little") for w in islice(words, width)), "little")
            for _ in range(count)
        )
    scale = math.lcm(*rounds)
    bound = scale + (threshold == STRICT)
    offsets = accumulate(rounds, initial=0)
    channels = [
        (lo, (1 << n) - 1, sign * (scale // n)) for sign, n, lo in zip(CHANNEL_SIGNS, rounds, offsets)
    ]
    hits = 0
    for row in islice(rows, count):
        distance = -scale
        for lo, mask, weight in channels:
            distance += weight * (row >> lo & mask).bit_count()
        hits += abs(distance) >= bound
    return hits


def _pooled_hits(
    rounds: tuple[int, ...], seed: int, trials: int, threshold: str, workers: int
) -> int:
    """Hits of a ``trials``-trial run, its batches split among a pool of shares.

    This is the one place a run's engine, batches and pool are decided.  A
    run of at most PYTHON_RUN_WORDS words, while numpy is not loaded, is
    drawn by ``_python_batch_hits`` in the calling thread, since its one
    batch takes less time in Python than numpy's import would; once numpy
    is loaded, its import is paid and it draws faster.  Every other run
    imports numpy here, before any thread starts, and is drawn by
    ``_batch_hits`` in batches of ``_batch_trials`` trials, the last taking
    the trials left over, and k = min(workers, batches, CPU count) shares,
    share i summing batches i, i + k, i + 2k, ...  Batches are made one at a time, so no input
    makes the run hold a per-batch list.  The calling thread runs share 0
    and starts a thread for each other share; numpy draws and counts with
    the GIL released, so the shares may run in parallel, but on the 2-core
    test host two threads drew no faster than one, so no gain from more
    workers has been measured.  A share that raises, the calling thread's
    ``KeyboardInterrupt`` included, sets the run's stop event, no share
    draws a batch once it is set, and the first error is raised once every
    thread has been joined; no partial sum is returned.
    """
    if trials * _row_words(rounds) <= PYTHON_RUN_WORDS and sys.modules.get("numpy") is None:
        return _python_batch_hits(rounds, seed, 0, trials, threshold)
    # loaded here, before any pool thread starts, not first in a thread's
    # batch: there numpy's import grew the run's peak RSS by 0.5 MiB
    import numpy  # noqa: F401

    batch = _batch_trials(rounds)
    batches = -(-trials // batch)
    # more workers than batches or cores only cost start-up time
    pool_size = min(workers, batches, os.cpu_count() or 1)
    counts = [0] * pool_size
    errors: list[BaseException] = []
    stop = threading.Event()

    def share(first: int) -> None:
        try:
            for index in range(first, batches, pool_size):
                if stop.is_set():
                    break
                count = min(batch, trials - index * batch)
                counts[first] += _batch_hits(rounds, seed, index, count, threshold)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=share, args=(first,)) for first in range(1, pool_size)]
    try:
        for thread in threads:
            thread.start()
        share(0)
        for thread in threads:
            thread.join()
    except BaseException:
        # a thread that could not start, or an interrupt while joining
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    if errors:
        raise errors[0]
    return sum(counts)


def estimate_violation_probability(
    config: ExperimentConfig,
    trials: int,
    seed: int,
    threshold: str = STRICT,
    *,
    workers: int = 1,
) -> McEstimate:
    """Estimate the violation probability from ``trials`` simulated experiments.

    Deterministic in (seed, trials, config, threshold): trials are cut into
    fixed-size batches with per-batch substreams and hits are summed, so any
    worker count reproduces the sequential result exactly.  The seed is a
    signed 64-bit integer, -2**63 .. 2**63 - 1, and the streams read its
    two's-complement pattern, so a negative seed s draws the stream of
    s + 2**64, which no accepted seed shares.  ``trials``, ``workers`` and
    ``seed`` must be Python ints: a float, a bool or a numpy integer is
    refused with InvalidConfigError, as is a seed outside that range, before
    any draw, and a run of more than RUN_WORD_BUDGET words with LimitError.
    """
    _check_threshold(threshold)
    for name, value in (("trials", trials), ("workers", workers), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    if not -(1 << 63) <= seed < 1 << 63:
        raise InvalidConfigError(f"seed must be in -2**63 .. 2**63 - 1, got {seed}")
    words = trials * _row_words(config.rounds)
    if words > RUN_WORD_BUDGET:
        raise LimitError(
            f"Monte Carlo run draws {words} words, over the budget {RUN_WORD_BUDGET}; "
            "the analytic method has no such limit"
        )
    hits = _pooled_hits(config.rounds, seed, trials, threshold, workers)

    low, high = wilson_interval(hits, trials)
    return McEstimate(
        trials=trials,
        hits=hits,
        estimate=hits / trials,
        ci_low=low,
        ci_high=high,
        seed=seed,
        threshold=threshold,
        config=config,
    )
