"""Seeded Monte Carlo simulation of finite-round experiments.

Round-level sampling: every channel round is an independent fair +-1 draw,
an experiment is a full tally, and the violation frequency over many
experiments estimates the same probability the exact and analytic routes
compute.  Trials are cut into batches of a size fixed by the config, and
batch b of a run with seed s has a stream of its own, so runs are
reproducible bit-for-bit regardless of how many workers execute the
batches.  ``STREAM_VERSION`` names the streams: version 1 drew one int8
per round per channel, version 2 drew every row as PCG64 words, and
version 3 draws short rows as bit planes.  Hit counts differ between
versions for the same seed.

A short row, of w = sum(n_k) <= SHORT_ROW_ROUNDS (16) rounds, is drawn
from ``random.Random((s & (2**64 - 1)) | b << 64)``, the standard
library's MT19937: round j of a batch of ``count`` trials is the plane
``getrandbits(count)``, planes drawn in round order, channel 1's rounds
first, and bit t of plane j is round j of trial t, bit 1 a +1 round.  The
batch is counted bit-sliced: every operation on a Python integer handles
one round of every trial at once (Biham 1997).  Bit-sliced counters give
each channel's +1 count, adders weigh them and a comparator tests every
trial against the bounds, all in C loops over the whole batch.  Short
rows need no numpy.  Their operations hold the GIL, so workers do not
speed them up; they do not change their hits either.

A longer row is stream 2's: a row of ceil(w / 64) raw PCG64 words of
``SeedSequence(s, spawn_key=(b,))``, bit j of the row (bit j % 64 of word
j // 64) is round j, and bit 1 is a +1 round.  Channel k owns the n_k bits
that follow channels 1..k-1.  A row is weighed, not counted channel by
channel: a +1 round of channel k weighs sign_k * lcm(n) / n_k, one pass
of popcounts sums a row's weights W (a word that one channel owns entirely
times that channel's weight, and a masked segment per channel of each word
that channels share), and the row violates when |W - lcm| > lcm, or >=
when non-strict.  Long rows are drawn and weighed GROUP_WORDS words
(128 KiB) at a time, so a worker holds about one group of draws, never a
whole batch, and the weights of a row's words are built once a batch: a
weight per word for a row that fits a group or a piece that holds a
channel edge, and one weight read through a zero stride for a piece
inside one channel.  Every run of long rows imports numpy, at any trial
count; only such a run needs it, so this module loads without numpy.

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
import random
import threading
from functools import lru_cache, partial
from itertools import accumulate

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
    import numpy as np

# Fixed batching rule: batch b of a run draws from a stream of its own (see
# the module docstring).  Batch size depends only on the config (bounding a
# batch's packed rows to WORD_BUDGET uint64 words, 4 MiB), never on the
# worker count, which is what makes 1-worker and k-worker runs
# bit-identical.  Short rows are drawn a batch at a time, as one plane of
# MAX_BATCH_TRIALS bits (8 KiB) per round; longer rows are drawn and
# weighed GROUP_WORDS words (128 KiB) at a time, a row longer than that in
# pieces.
WORD_BUDGET = 1 << 19
MAX_BATCH_TRIALS = 1 << 16
GROUP_WORDS = 1 << 14
# The same budget in bytes; benchmarks/tracing.py still reads this name.
BATCH_ELEMENT_BUDGET = 8 * WORD_BUDGET
STREAM_VERSION = 3
# Rows of at most this many rounds are drawn as bit planes and counted
# bit-sliced: the rows stream 2 looked up in a table of verdicts, so that
# every longer row keeps stream 2's words and hits.
SHORT_ROW_ROUNDS = 16
# Words one run may draw: 40 s to 2 minutes at one worker for rows of two
# words or more, which draw and weigh 7e7-2.3e8 words/s on a 2-core test
# machine, and 11 s to 1.5 minutes for short rows, of one word, counted
# bit-sliced at 1e8-7.5e8 words/s: a 1.6e8-trial run of (4,4,4,4) took
# 0.73 s, so its full budget takes about 40 s, and the slowest 16-round
# rows, whose weights lcm/n_k have the most set bits (lcm 105), run at
# 1e8.  One-word rows of 17-64 rounds run at 4.4e7-6.6e7 words/s, so
# theirs takes up to 3.5 minutes.  Rows whose weights pass int64
# (4*lcm >= 2**62) weigh one Python product per word, 9e6-1.1e7 words/s
# there, so theirs takes 13-16 minutes.
RUN_WORD_BUDGET = 1 << 33

_MASK64 = (1 << 64) - 1

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


def _plane_sum(columns: list[list[int]]) -> list[int]:
    """The planes of sum_p 2**p * (how many planes of ``columns[p]`` are set), trial by trial.

    A plane holds one bit of every trial, bit t trial t's.  A
    carry-save reduction: three planes of a column become their sum there
    and their carry one column up (a full adder, five big-integer
    operations), two become one and a carry (a half adder, two), until
    every column holds one plane, or none, which reads as 0.  Consumes
    ``columns``, which must have a column for every carry; for every row
    of at most SHORT_ROW_ROUNDS rounds, one column per bit of the sum's
    largest value is enough.
    """
    sums = []
    for position, column in enumerate(columns):
        while len(column) > 1:
            a, b = column.pop(), column.pop()
            total, carry = a ^ b, a & b
            if column:
                c = column.pop()
                carry |= total & c
                total ^= c
            column.append(total)
            columns[position + 1].append(carry)
        sums.append(column[0] if column else 0)
    return sums


def _sliced_violations(planes: list[int], rounds: tuple[int, ...], threshold: str, ones: int) -> int:
    """The trials that violate, bit t for trial t, given round j of every trial as ``planes[j]``.

    ``ones`` has a bit set for every trial.  With q_k = lcm(rounds) / n_k
    and channel 2's planes inverted, V = sum_k q_k * (channel k's set
    rounds) is W + q_2*n_2 = W + lcm, W the weight ``_layout`` gives a row,
    so ``_violates``' |W - lcm| >= lcm + strict is V >= 3*lcm + strict or
    V <= lcm - strict.  Each round's plane joins the column of every set
    bit of its q, so the rounds of channels that share q are counted
    together, and ``_plane_sum`` gives V's planes.  They are compared
    against both bounds from the lowest plane up, without building the
    bounds' planes: V >= c on the planes so far is plane & r at a set bit
    of c and plane | r at a clear one.
    """
    scale = math.lcm(*rounds)
    columns: list[list[int]] = [[] for _ in range((4 * scale).bit_length())]
    for sign, n, lo in zip(CHANNEL_SIGNS, rounds, accumulate(rounds, initial=0)):
        weight = scale // n
        channel = planes[lo : lo + n] if sign > 0 else [plane ^ ones for plane in planes[lo : lo + n]]
        for shift in range(weight.bit_length()):
            if weight >> shift & 1:
                columns[shift] += channel
    strict = threshold == STRICT
    low_bound, high_bound = scale + 1 - strict, 3 * scale + strict
    low = high = ones
    for position, plane in enumerate(_plane_sum(columns)):
        low = plane & low if low_bound >> position & 1 else plane | low
        high = plane & high if high_bound >> position & 1 else plane | high
    # the trials at least the high bound are among those at least the low one
    return ones ^ low ^ high


def _batch_hits(
    rounds: tuple[int, ...],
    seed: int,
    batch_index: int,
    count: int,
    threshold: str,
) -> int:
    """Violations among ``count`` experiments drawn from batch ``batch_index``'s stream.

    A short row, of at most SHORT_ROW_ROUNDS rounds, is drawn as one plane
    of ``count`` bits per round from the batch's MT19937 stream and
    counted by ``_sliced_violations``, without numpy.  A longer row, in a
    batch of any size, is read with numpy from the batch's raw PCG64
    words as ``count`` packed rows of
    ceil(sum(n_k) / 64) words, trial after trial; channel k's rounds are
    the n_k bits after channels 1..k-1, bit 1 a +1 round.  It is drawn
    GROUP_WORDS words at a time, as many whole rows as fit or one row in
    pieces, weighed by ``_weigh`` and compared by ``_violates``, group by
    group: the threads of a pooled run draw in one process, so their
    buffers add up.  Sequential draws read the same stream as one.
    """
    if sum(rounds) <= SHORT_ROW_ROUNDS:
        draw = random.Random(seed & _MASK64 | batch_index << 64).getrandbits
        planes = [draw(count) for _ in range(sum(rounds))]
        return _sliced_violations(planes, rounds, threshold, (1 << count) - 1).bit_count()

    import numpy as np

    # SeedSequence rejects negative entropy; keep the 64-bit pattern instead.
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(batch_index,))
    )
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


def _pooled_hits(
    rounds: tuple[int, ...], seed: int, trials: int, threshold: str, workers: int
) -> int:
    """Hits of a ``trials``-trial run, its batches split among a pool of shares.

    This is the one place a run's engine, batches and pool are decided, and
    the row length alone picks the engine.  A run of short rows never
    imports numpy.  A run of longer rows imports numpy here, at any trial
    count, before any thread starts, and raises ImportError if numpy is
    missing or lacks ``bitwise_count`` (numpy < 2.0).  Every run is drawn by
    ``_batch_hits`` in batches of ``_batch_trials`` trials, the last taking
    the trials left over, and k = min(workers, batches, CPU count) shares,
    share i summing batches i, i + k, i + 2k, ...  Batches are made one at a
    time, so no input makes the run hold a per-batch list.  The calling
    thread runs share 0 and starts a thread for each other share.  numpy
    draws and weighs long rows with the GIL released, so their shares may
    run in parallel: on a shared 2-core test host 2 workers ran
    (1,1,1000,1000) x1e5 1.16x and x4e5 1.07x as fast as 1, and (1,1,1,2000)
    x1e5 1.11x, medians over five sets of 9 alternating in-process runs,
    single sets ranging from 0.95x to 1.93x.  Short rows are counted holding
    the GIL, so their shares take turns: on the same host 2 workers ran
    (2,2,2,2) x4e6 and x1.6e7 1.00-1.01x and (4,4,4,4) x1.6e7 0.97x as fast
    as 1, medians of 9 alternating in-process runs.  A share that raises,
    the calling thread's ``KeyboardInterrupt`` included, sets the run's stop
    event, no share draws a batch once it is set, and the first error is
    raised once every thread has been joined; no partial sum is returned.
    """
    if sum(rounds) > SHORT_ROW_ROUNDS:
        # loaded here, before any pool thread starts, not first in a thread's
        # batch: there numpy's import grew the run's peak RSS by 0.5 MiB
        import numpy

        if not hasattr(numpy, "bitwise_count"):
            raise ImportError(f"numpy {numpy.__version__} has no bitwise_count")

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
