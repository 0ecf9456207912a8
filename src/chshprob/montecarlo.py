"""Seeded Monte Carlo simulation of finite-round experiments.

Round-level sampling: every channel round is an independent fair +-1 draw,
an experiment is a full tally, and the violation frequency over many
experiments estimates the same probability the exact and analytic routes
compute.  Trials are cut into batches of MAX_BATCH_TRIALS, the last taking
the trials left over, and batch b of a run with seed s has a stream of its
own, so runs are reproducible bit-for-bit.  ``STREAM_VERSION`` names the
streams: version 1 drew one int8 per round per channel, version 2 drew
every row as PCG64 words, version 3 drew rows of at most 16 rounds as bit
planes, and version 4 draws every row as bit planes.  Hit counts differ
between versions for the same seed.

Stream 4.  Batch b of seed s draws from ``random.Random((s & (2**64 - 1))
| b << 64)``, the standard library's MT19937, channel by channel, each
channel's rounds in order.  In a batch of ``count`` trials a plane holds
L = min(n_k, MAX_BATCH_TRIALS // count) rounds of channel k as L lanes of
``count`` bits: plane i is ``getrandbits(L * count)``, and its bit
l * count + t is round i * L + l of trial t, a set bit a +1 round.  The
channel's last plane holds the rounds left, drawn as that many lanes.  A
full batch has one round per plane.  The batch is counted bit-sliced:
every operation on a Python integer handles one bit of every trial at once
(Biham 1997).  One carry-save counter, ``_tally``, does every addition:
a channel's planes stream into one, so it holds O(log n_k) planes whatever
its length, and its lanes are folded into one count per trial.  Channel
2's planes are inverted, so its count is its -1 rounds.  The counts,
weighed by q_k = lcm(n) / n_k in exact Python integers at any lcm, are
tallied into one more counter, which a comparator resolves with a ripple
carry as it tests every trial against the bounds, all in C loops over
the whole batch.  No numpy is needed.
The last channel can stop early: after its first
ceil(2 * count.bit_length() / L) planes every trial is judged at the
lowest and the highest count its remaining rounds allow, and when each
verdict is the same at both the rest is never drawn.  Nothing is drawn
after that channel, so every hit is that of the full draw, and a batch
draws at most its rounds' bits.

Python keeps the ``getrandbits`` sequence of a seed stable in practice,
but promises it only for ``random()``.  The tests pin hit counts on every
Python version the CI runs (3.10-3.13), so a change there would fail them
rather than drift silently.

A run's batches fall into k = min(workers, batches, usable CPUs) strided
shares: share j draws batches j, j + k, and so on.  The calling process
forks a child for every share but share 0, which it sums itself; each
child writes its count to a pipe of its own and leaves through
``os._exit``, printing nothing and running none of the caller's cleanup.
Processes, unlike threads, do not take turns on the GIL.  A share whose
child gives no count (the fork failed, or the child raised or was killed)
is run again in the calling process, where a real error is raised with
its own type, since batches are deterministic.  An exception in the
caller, an interrupt included, first kills and reaps every child.  k is 1
where ``os.fork`` is missing or another thread is alive.  Every batch has
its own stream, so the hits are the same at any k.  Batches are made one
at a time, so memory does not grow with the trial count.  A run is priced
at trials * sum(n_k) rounds before any draw, an upper bound on the rounds
it draws, and a run over RUN_ROUND_BUDGET is refused with LimitError.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys

from .errors import InvalidConfigError, LimitError
from .model import (
    CHANNEL_SIGNS,
    STRICT,
    ExperimentConfig,
    _check_threshold,
    _Record,
)

# Trials of one batch, and bits of one plane: 8 KiB.
MAX_BATCH_TRIALS = 1 << 16
# The int8-era batch budget in bytes; only benchmarks/tracing.py reads it.
BATCH_ELEMENT_BUDGET = 1 << 22
STREAM_VERSION = 4
# Rounds one run is priced at, trials * sum(n_k), a generator bit each at
# most: under a minute of drawing.
RUN_ROUND_BUDGET = 1 << 37

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


def _tally(columns: list[list[int]], planes, position: int = 0) -> list[list[int]]:
    """Streams ``planes`` of weight 2**position into the carry-save counter ``columns``.

    The module's one adder.  A plane holds one bit of every trial, bit t
    trial t's.  Column p holds at most two planes of weight 2**p, so only
    O(log rounds) planes are held at once; the count of a bit is
    sum_p 2**p * (how many planes of column p have it set).  A third plane
    makes a full adder, five big-integer operations, whose carry goes one
    column up.  ``position`` is at most ``len(columns)``.  The counter is
    returned, and can take more planes later, at any position.
    """
    for plane in planes:
        # a channel streams at position 0, where a slice would copy for every plane
        for column in columns[position:] if position else columns:
            column.append(plane)
            if len(column) < 3:
                break
            a, b, c = column
            total = a ^ b
            column[:] = (total ^ c,)
            plane = a & b | total & c
        else:
            columns.append([plane])
    return columns


def _fold(columns: list[list[int]], lanes: int, count: int) -> list[list[int]]:
    """A tally of planes of ``lanes`` rounds, folded into one count per trial.

    Each plane holds ``lanes`` rounds as lanes of ``count`` bits, bit
    l * count + t round l of trial t.  The upper lanes are added onto the
    lower ones until one lane is left, in about log2(lanes) bit-sliced
    additions of shrinking planes: each column's halves are tallied into a
    fresh counter at that column's position.  ``columns`` is left as it is.
    """
    while lanes > 1:
        lanes = (lanes + 1) // 2
        shift = lanes * count
        low = (1 << shift) - 1
        folded: list[list[int]] = []
        for position, column in enumerate(columns):
            halves = [half for plane in column for half in (plane & low, plane >> shift)]
            _tally(folded, halves, position)
        columns = folded
    return columns


def _sliced_violations(counts: list[list[list[int]]], rounds: tuple[int, ...], threshold: str, ones: int) -> int:
    """The trials that violate, bit t for trial t, given each channel's count.

    ``counts[k]`` holds c_k, channel k's +1 rounds and channel 2's -1
    rounds, as ``_tally`` and ``_fold`` give it, and ``ones`` has a bit set
    for every trial.  With q_k = lcm(rounds) / n_k and m_k = 2*ones_k - n_k,
    the correlation inequality with denominators cleared is
    |sum_k sign_k*q_k*m_k| > 2*lcm, >= when non-strict.  V = sum_k q_k * c_k is half that sum plus 2*lcm,
    so the test is V >= 3*lcm + strict or V <= lcm - strict, on integers
    V >= 3*lcm + strict or not V >= lcm + 1 - strict.  Each count plane
    joins the position of every set bit of its q, shifted by its own
    column, and each position is tallied once into a counter of
    (4*lcm).bit_length() columns, enough for every bit of V <= 4*lcm and
    of both bounds.  The columns' one or two planes are resolved from the
    lowest up with a ripple carry, the sum a ^ b ^ carry and the carry the
    majority of the three, and compared against both bounds on the way,
    without building the bounds' planes: V >= c on the planes so far
    is plane & r at a set bit of c and plane | r at a clear one.
    """
    scale = math.lcm(*rounds)
    gathered: list[list[int]] = [[] for _ in range((4 * scale).bit_length())]
    for n, channel in zip(rounds, counts):
        weight = scale // n
        for shift in range(weight.bit_length()):
            if weight >> shift & 1:
                for position, planes in enumerate(channel, shift):
                    # a plane that is not 0 has a trial with q * c >= 2**position
                    gathered[position] += filter(None, planes)
    counter: list[list[int]] = [[] for _ in gathered]
    for position, planes in enumerate(gathered):
        _tally(counter, planes, position)
    strict = threshold == STRICT
    low_bound, high_bound = scale + 1 - strict, 3 * scale + strict
    low = high = ones
    carry = 0
    for position, column in enumerate(counter):
        plane, carry = carry, 0
        for addend in column:
            carry |= plane & addend
            plane ^= addend
        low = plane & low if low_bound >> position & 1 else plane | low
        high = plane & high if high_bound >> position & 1 else plane | high
    # the trials at least the high bound are among those at least the low one
    return ones ^ low ^ high


def _channel_planes(draw, n: int, lanes: int, count: int, flip: bool):
    """Channel planes of ``n`` rounds, ``lanes`` a plane, drawn by ``draw``, inverted if ``flip``."""
    width = lanes * count
    mask = (1 << width) - 1 if flip else 0
    for _ in range(n // lanes):
        yield draw(width) ^ mask
    if n % lanes:
        width = n % lanes * count
        yield draw(width) ^ (mask >> (lanes * count - width))


def _batch_hits(
    rounds: tuple[int, ...],
    seed: int,
    batch_index: int,
    count: int,
    threshold: str,
) -> int:
    """Violations among ``count`` experiments drawn from batch ``batch_index``'s stream.

    Each channel in turn is drawn from the batch's MT19937 stream as planes
    of min(n_k, MAX_BATCH_TRIALS // count) lanes (see the module
    docstring), counted by ``_tally`` and ``_fold`` and judged by
    ``_sliced_violations``.  The last channel's first
    ceil(2 * count.bit_length() / L) planes are counted, and if rounds
    remain every trial is judged at both ends of the count it can still
    reach, its count so far p and p plus the rounds left.  V grows with
    that count, by less than the 2*lcm between the bounds, so a trial with
    the same verdict at both ends has it at every count between.  When
    every trial does, the rest is not drawn; nothing is drawn after it, so
    the hits are those of the full draw.
    """
    draw = random.Random(seed & _MASK64 | batch_index << 64).getrandbits
    ones = (1 << count) - 1
    counts: list[list[list[int]]] = []
    for sign, n in zip(CHANNEL_SIGNS, rounds):
        lanes = min(n, MAX_BATCH_TRIALS // count)
        planes = _channel_planes(draw, n, lanes, count, sign < 0)
        columns: list[list[int]] = []
        head = -(-2 * count.bit_length() // lanes)
        rest = n - head * lanes
        if len(counts) == 3 and rest > 0:
            # a trial on a bound's edge settles with probability 1/2 a round,
            # so at this point a batch has settled with probability
            # at least 1 - 1/count
            low = _fold(_tally(columns, itertools.islice(planes, head)), lanes, count)
            high = [
                column + [ones] * (rest >> position & 1)
                for position, column in enumerate(low + [[]] * (rest.bit_length() - len(low)))
            ]
            verdict = _sliced_violations(counts + [low], rounds, threshold, ones)
            if verdict == _sliced_violations(counts + [high], rounds, threshold, ones):
                return verdict.bit_count()
        counts.append(_fold(_tally(columns, planes), lanes, count))
    return _sliced_violations(counts, rounds, threshold, ones).bit_count()


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
    fixed-size batches with per-batch substreams and hits are summed.
    ``workers`` caps the processes the batches are shared among, with the
    batches and the usable CPUs (see the module docstring); it does not
    change the hits.  An error in a forked share is raised once the
    caller's own share is done.  The
    seed is a signed 64-bit integer, -2**63 .. 2**63 - 1, and the streams
    read its two's-complement pattern, so a negative seed s draws the
    stream of s + 2**64, which no accepted seed shares.  ``trials``, ``workers`` and
    ``seed`` must be Python ints: a float, a bool or a numpy integer is
    refused with InvalidConfigError, as is a seed outside that range, before
    any draw, and a run of more than RUN_ROUND_BUDGET rounds with LimitError.
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
    drawn = trials * sum(config.rounds)
    if drawn > RUN_ROUND_BUDGET:
        raise LimitError(
            f"Monte Carlo run draws {drawn} rounds, over the budget {RUN_ROUND_BUDGET}; "
            "the analytic method has no such limit"
        )
    batches = -(-trials // MAX_BATCH_TRIALS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # a child forked while another thread runs may inherit a lock that
    # thread holds; threading is only looked up, never imported
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    k = min(workers, batches, cpus) if hasattr(os, "fork") and alone else 1

    def share_hits(share: int) -> int:
        # batches are made one at a time, so no input makes the run hold a
        # per-batch list; an error in a batch, an interrupt included, ends
        # the share before its next batch
        return sum(
            _batch_hits(
                config.rounds, seed, index, min(MAX_BATCH_TRIALS, trials - index * MAX_BATCH_TRIALS), threshold
            )
            for index in range(share, batches, k)
        )

    children: dict[int, tuple[int, int]] = {}  # share: (pid, read end of its pipe)
    try:
        for share in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if not pid:
                    # the child writes its count, or nothing if its share
                    # raised, and leaves without the caller's cleanup
                    try:
                        os.write(write, b"%d" % share_hits(share))
                    finally:
                        os._exit(0)
                children[share] = pid, read
            except OSError:
                os.close(read)
            finally:
                os.close(write)
        hits = share_hits(0)
        for share in range(1, k):
            # one write of a few bytes is atomic, so a read gets all of the
            # count or, once the child is gone without one, nothing; batches
            # are deterministic, so a share run again here gives its count,
            # or raises its error with its own type
            count = os.read(children[share][1], 32) if share in children else b""
            hits += int(count) if count else share_hits(share)
    finally:
        # a child that has written its count is leaving anyway; 9 is
        # SIGKILL, whose number POSIX fixes, and importing signal would
        # cost every run about 0.6 ms
        for pid, read in children.values():
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            os.close(read)

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
