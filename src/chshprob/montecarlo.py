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
that follow channels 1..k-1, and its +1 count is a popcount over them.
``STREAM_VERSION`` names this layout; version 1 was one int8 draw per round
per channel.  Hit counts differ between versions for the same seed.

A short row, one whose 2**sum(n_k) possible values fit in one batch
(sum(n_k) <= 16), is not counted channel by channel: the low sum(n_k) bits
of its word index a table of which rows violate.  The table is built once
per process per (rounds, threshold) by the same counting and comparison
that long rows run, so both read the same stream and give the same hits.

With k = min(workers, batches, CPU count) workers, worker i sums batches
i, i + k, i + 2k, ...; the calling thread is worker 0 and the other k - 1
are threads, each writing its count into a list slot.  A worker that
raises stops the others between batches, and the run raises its error.
The worker count never changes the hits.  Batches are made one at a time,
so memory does not grow with the trial count.  A run is priced at
trials * ceil(sum(n_k) / 64) words before any draw, and a run over
RUN_WORD_BUDGET is refused with LimitError.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InvalidConfigError, LimitError
from .model import (
    CHANNEL_SIGNS,
    STRICT,
    ExperimentConfig,
    _check_threshold,
    _Record,
)

# Fixed batching rule: batch b of a run draws from the child stream
# SeedSequence(seed, spawn_key=(b,)).  Batch size depends only on the
# config (bounding a batch's packed rows to WORD_BUDGET uint64 words,
# 4 MiB), never on the worker count, which is what makes 1-worker and
# k-worker runs bit-identical.  Long rows are drawn WORD_BUDGET // 4 words
# (1 MiB) at a time, a row longer than that in pieces.
WORD_BUDGET = 1 << 19
MAX_BATCH_TRIALS = 1 << 16
# The same budget in bytes; benchmarks/tracing.py still reads this name.
BATCH_ELEMENT_BUDGET = 8 * WORD_BUDGET
STREAM_VERSION = 2
# Words one run may draw: about a minute at one worker for long rows, which
# draw and count 1.3e8-2.3e8 words/s on a 2-core test machine.  One-word rows
# of 17-64 rounds run at 4e7-6e7 words/s, so theirs takes up to 3.5 minutes.
RUN_WORD_BUDGET = 1 << 33

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
    or tiny, the usual regime for rare violations.
    """
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


def _count_ones(bits: np.ndarray, first_word: int, offsets: list[int], ones: np.ndarray) -> None:
    """Add each channel's +1 count within ``bits`` to ``ones`` (channels x trials).

    ``bits`` holds words ``first_word`` onwards of each trial's row, and
    channel k owns row bits offsets[k] <= j < offsets[k+1].  Its count is the
    popcount of the whole words from offsets[k] // 64 up to offsets[k+1] // 64,
    less the bits below offsets[k] in its first word, plus the bits below
    offsets[k+1] in the word where it ends.
    """
    last_word = first_word + bits.shape[1]
    per_word = np.bitwise_count(bits)
    for channel in range(len(offsets) - 1):
        lo = max(offsets[channel] // 64, first_word)
        hi = min(offsets[channel + 1] // 64, last_word)
        if lo < hi:
            whole = per_word[:, lo - first_word : hi - first_word]
            ones[channel] += whole.sum(axis=1, dtype=np.int64)
    for boundary, offset in enumerate(offsets):
        word, bit = divmod(offset, 64)
        if bit and first_word <= word < last_word:
            below = np.bitwise_count(bits[:, word - first_word] & np.uint64((1 << bit) - 1))
            if boundary > 0:
                ones[boundary - 1] += below
            if boundary < len(offsets) - 1:
                ones[boundary] -= below


def _violations(rounds: tuple[int, ...], ones: np.ndarray, threshold: str) -> np.ndarray:
    """Which trials violate, given each channel's +1 counts ``ones`` (channels x trials).

    Compares the integer sum_k sign_k*q_k*m_k, with m_k = 2*ones_k - n_k and
    q_k = lcm(rounds)/n_k, against 2*lcm(rounds): the correlation inequality
    with denominators cleared.  int64 covers any |sum| up to 4*lcm, and
    configurations beyond that accumulate Python integers.
    """
    scale = math.lcm(*rounds)
    bound = 2 * scale
    dtype = np.int64 if 4 * scale < 2**62 else object
    acc = np.zeros(ones.shape[1], dtype=dtype)
    for sign, n, plus in zip(CHANNEL_SIGNS, rounds, ones):
        sums = 2 * plus - n
        acc += sign * (scale // n) * sums.astype(dtype, copy=False)
    magnitudes = np.abs(acc)
    if threshold == STRICT:
        return magnitudes > bound
    return magnitudes >= bound


@lru_cache
def _violation_table(rounds: tuple[int, ...], threshold: str) -> np.ndarray:
    """``table[r]``: whether the one-word row ``r`` violates, for every r < 2**sum(rounds).

    Counted by ``_count_ones`` and compared by ``_violations``, exactly as
    ``_batch_hits`` treats drawn rows.  Read-only, since every caller shares it.
    """
    rows = np.arange(1 << sum(rounds), dtype=np.uint64)[:, np.newaxis]
    ones = np.zeros((len(rounds), len(rows)), dtype=np.int64)
    _count_ones(rows, 0, list(accumulate(rounds, initial=0)), ones)
    table = _violations(rounds, ones, threshold)
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
    fault them in again.  Longer rows are counted channel by channel
    by ``_count_ones`` and compared by ``_violations``.  They are drawn a
    group of trials at a time, or a row in pieces when it is longer than
    WORD_BUDGET // 4 words: the threads of a pooled run draw in one
    process, so their buffers add up.  Sequential draws read the same
    stream as one.
    """
    # SeedSequence rejects negative entropy; keep the 64-bit pattern instead.
    bit_generator = np.random.PCG64(
        np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(batch_index,))
    )
    width = sum(rounds)
    # 2**width <= MAX_BATCH_TRIALS, without building 2**width for a long row
    if width < MAX_BATCH_TRIALS.bit_length():
        # int64 is numpy's index type, so take() indexes without a conversion
        low_bits = bit_generator.random_raw(count).view(np.int64)
        np.bitwise_and(low_bits, (1 << width) - 1, out=low_bits)
        return int(np.count_nonzero(_violation_table(rounds, threshold).take(low_bits)))

    offsets = list(accumulate(rounds, initial=0))
    words = _row_words(rounds)
    rows = max(1, WORD_BUDGET // 4 // words)
    piece = min(words, WORD_BUDGET // 4)
    ones = np.zeros((len(rounds), count), dtype=np.int64)
    for first_trial in range(0, count, rows):
        group = ones[:, first_trial : first_trial + rows]
        for first_word in range(0, words, piece):
            shape = (group.shape[1], min(piece, words - first_word))
            _count_ones(bit_generator.random_raw(shape), first_word, offsets, group)
    return int(np.count_nonzero(_violations(rounds, ones, threshold)))


def _strided_hits(
    rounds: tuple[int, ...],
    seed: int,
    trials: int,
    threshold: str,
    stride: int,
    first: int,
    stop: threading.Event,
) -> int:
    """Hits summed over batches first, first + stride, ... of a ``trials``-trial run.

    Batches are made one at a time, so no input makes the run hold a
    per-batch list; the last batch takes the trials left over.  Once
    ``stop`` is set, because another share of the run has failed, no
    further batch is drawn and the partial sum is returned.
    """
    batch = _batch_trials(rounds)
    hits = 0
    for index in range(first, -(-trials // batch), stride):
        if stop.is_set():
            break
        hits += _batch_hits(rounds, seed, index, min(batch, trials - index * batch), threshold)
    return hits


def _pooled_hits(
    rounds: tuple[int, ...], seed: int, trials: int, threshold: str, pool_size: int
) -> int:
    """Hits of a ``trials``-trial run split into ``pool_size`` strided shares.

    The calling thread runs share 0 and starts a thread for each other
    share; numpy draws and counts with the GIL released, so the shares run
    in parallel.  A share that raises, the calling thread's
    ``KeyboardInterrupt`` included, stops the others between batches, and
    the first error is raised once every thread has been joined; no
    partial sum is returned.
    """
    counts = [0] * pool_size
    errors: list[BaseException] = []
    stop = threading.Event()

    def share(first: int) -> None:
        try:
            counts[first] = _strided_hits(rounds, seed, trials, threshold, pool_size, first, stop)
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
    s + 2**64, which no accepted seed shares.  A seed outside that range
    is refused with InvalidConfigError before any draw, and a run of more
    than RUN_WORD_BUDGET words with LimitError.
    """
    _check_threshold(threshold)
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
    batches = -(-trials // _batch_trials(config.rounds))
    # more workers than batches or cores only cost start-up time
    pool_size = min(workers, batches, os.cpu_count() or 1)
    hits = _pooled_hits(config.rounds, seed, trials, threshold, pool_size)

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
