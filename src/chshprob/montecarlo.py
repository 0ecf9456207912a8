"""Seeded Monte Carlo simulation of finite-round experiments.

Round-level sampling: every channel round is an independent fair +-1 draw,
an experiment is a full tally, and the violation frequency over many
experiments estimates the same probability the exact and analytic routes
compute.  Trials are cut into batches of at most MAX_BATCH_TRIALS, and
batch b of a run with seed s has a stream of its own, so runs are
reproducible bit-for-bit.  ``STREAM_VERSION`` names the stream, whose hit
counts differ from earlier versions' for the same seed; README describes
those.

Stream 7.  A run of T trials has B = ceil(T / MAX_BATCH_TRIALS) batches.
Batches 1 .. B - 2 are full, and batches 0 and B - 1 share the E trials
left, batch 0 taking E - E // 2 and batch B - 1 E // 2; a run of one
batch holds all T.  Batch b of seed s draws from
``random.Random((s & (2**64 - 1)) | b << 64)``, the standard library's
MT19937, channel by channel in ascending order of n_k, each channel's
rounds in order.  In a batch of ``count`` trials a plane holds
L = min(n_k, MAX_BATCH_TRIALS // count) rounds of channel k as L lanes
of ``count`` bits: plane i is ``getrandbits(L * count)``, and its bit
l * count + t is round i * L + l of trial t, a set bit a round that adds
+1 to C and a clear one a round that adds -1.  On the (1,2) channel, whose
sum enters C with a minus sign, a set bit is a -1 outcome: each sum is
that of a fair +-1 walk, whose law is symmetric, so C's law is the same.
The channel's last plane holds the rounds left, drawn as that many
lanes.  A full batch has one round per plane.  The batch is counted
bit-sliced: every operation on a Python integer handles one bit of every
trial at once (Biham 1997).  One carry-save counter, ``_tally``, does
every addition: a channel's planes stream into one, so it holds
O(log n_k) planes whatever its length, and its lanes are folded into one
count per trial.  Each count, weighed by q_k = lcm(n) / n_k in exact
Python integers at any lcm, is tallied once into one more counter, V's,
which a ripple carry resolves into the planes of V = sum_k q_k * c_k,
and a comparator tests every trial against the bounds, all in C loops
over the whole batch.  No numpy is needed.

A batch splits at most once, after the channel where a rule on the round
and trial counts alone says the split pays (see STRATUM_BITS).  The
channels drawn give each trial a partial sum v, to which the channels
left can add 0 to R = sum q_k * n_k.  Where v and v + R lie on the same
side of both bounds the trial is settled, and v gives its verdict.  The
trials of every other v form a stratum, which the comparator finds as
the trials whose partial sum is neither below v nor at least v + 1: the
strata, in ascending v, each draw the channels left from the same
generator as a batch of their own trial count, against the bounds
lowered by v, and a stratum may split again.  A stratum's trials share
v, so which of the batch's trials they were does not matter.  The last
channel of a batch or stratum can stop early: after its first
ceil(2 * count.bit_length() / L) planes their count is weighed into a
copy of V's counter, and V is compared against both bounds and against
both bounds lowered by q_k times the rounds left.  That judges every
trial at the lowest and the highest count its remaining rounds allow,
and when each verdict is the same at both the rest is never drawn.  So
every verdict is the one the full draw would give, and a batch draws at
most its rounds' bits.  No channel differs from another but by its n_k,
so a run's hits depend only on the seed, the trials, the threshold and
the multiset of counts, whatever their order.

Python keeps the ``getrandbits`` sequence of a seed stable in practice,
but promises it only for ``random()``.  The tests pin hit counts on every
Python version the CI runs (3.10-3.13), so a change there would fail them
rather than drift silently.

A run is priced at trials * sum(n_k) rounds before any draw, an upper
bound on the rounds it draws, and a run over RUN_ROUND_BUDGET is refused
with LimitError.  The same figure decides how many processes draw: the
batches fall into k = min(workers, batches, usable CPUs,
max(1, priced // FORK_FLOOR_ROUNDS)) strided shares, so ``workers`` is a
cap and a run too small to pay for a fork draws in one process.  Share j
draws batches j, j + k, and so on.  Share 0 holds the most batches at any
k, batch 0 among them, so a short batch 0 evens the shares out: the
largest is never larger than with a full batch 0 and a short last one,
and a run of two batches splits evenly.  The calling process forks a
child for every share but share 0, which it sums itself; each child
writes its count to a pipe of its own and leaves through ``os._exit``,
printing nothing and running none of the caller's cleanup.  Processes,
unlike threads, do not take turns on the GIL.  A share whose child
gives no count (the fork failed, or the child raised or was killed)
is run again in the calling process, where a real error is raised with
its own type, since batches are deterministic.  An exception in the
caller, an interrupt included, first kills and reaps every child.  k is 1
where ``os.fork`` is missing or another thread is alive.  Every batch has
its own stream, so the hits are the same at any k.  Batches are made one
at a time, so memory does not grow with the trial count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import sys

from .errors import InvalidConfigError, LimitError
from .model import (
    STRICT,
    ExperimentConfig,
    _add_walk,
    _bounds,
    _check_threshold,
    _Record,
)

# Trials of one batch, and bits of one plane: 8 KiB.
MAX_BATCH_TRIALS = 1 << 16
# The int8-era batch budget in bytes; only benchmarks/tracing.py reads it.
BATCH_ELEMENT_BUDGET = 1 << 22
STREAM_VERSION = 7
# Rounds one run is priced at, trials * sum(n_k), a generator bit each at
# most, so the budget bounds the drawing a run may ask for before any draw.
RUN_ROUND_BUDGET = 1 << 37
# Priced rounds each process of a run must pay for: a run draws in at most
# one process per floor, whatever its ``workers``.  mc-heavy's group2_s,
# two rows of 2e8 priced rounds that fork at this floor, read 0.905 of one
# process's time at seed 1 and 0.895 at seed 9 (BENCH_ced6267.json ->
# BENCH_8205a10.json).  Rounds are priced, not drawn: (1,1,1,2000) x1e5
# draws under 2% of its 2e8 and forks all the same.
FORK_FLOOR_ROUNDS = 1 << 24
# Work a batch's split costs, in drawn bits, for the weighing at the split
# and for each channel each open stratum draws.  A batch splits after the
# channel where the bits its settled trials leave undrawn (the rounds of
# the channels left, the last one's cut to the 2 * count.bit_length() of
# its head) exceed STRATUM_BITS * (1 + open strata * channels left) by
# the most, and does not split where they exceed it nowhere.  A drawn bit
# is cheap and a stratum's channel is fixed work, many bits' worth, so a
# split pays only where it leaves many bits undrawn: the rule splits
# (1,1,1000,1000) after its 1-round channels, and (1,1,16,16), but leaves
# whole (1,1,4,4) and (2,2,2,2), whose splits ran slower in-process.
# Stream 5, which brought the split, took mc-heavy's group3_s,
# (1,1,1000,1000) x1e5 at two workers, from 0.138 to 0.112 s at seed 1
# (BENCH_8d28718.json -> BENCH_d97b42f.json).
STRATUM_BITS = 1 << 17
# Partial sums a split may tell apart; past it no later channel splits.
MAX_STRATA = 64

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


def _weigh(total: list[list[int]], count: list[list[int]], weight: int) -> list[list[int]]:
    """Tallies q * c into the carry-save counter ``total`` and returns it.

    ``count`` holds one channel's c as ``_tally`` and ``_fold`` give it,
    and ``weight`` is its q.  Each count plane joins the position of every
    set bit of q, shifted by its own column.  ``total`` has the ``width``
    columns of ``_channels``, which hold every bit of V = sum_k q_k * c_k.
    """
    for shift in range(weight.bit_length()):
        if weight >> shift & 1:
            for position, planes in enumerate(count, shift):
                # a plane that is not 0 has a trial with q * c >= 2**position
                _tally(total, filter(None, planes), position)
    return total


def _resolve(total: list[list[int]]) -> list[int]:
    """The planes of V, bit t of plane p bit p of trial t's V, from its counter.

    Each column's one or two planes are resolved from the lowest up with a
    ripple carry, the sum a ^ b ^ carry and the carry the majority of the
    three.  ``total`` is left as it is, and can take more counts.
    """
    resolved, carry = [], 0
    for column in total:
        plane, carry = carry, 0
        for addend in column:
            carry |= plane & addend
            plane ^= addend
        resolved.append(plane)
    return resolved


def _sliced_violations(planes: list[int], bounds: tuple[int, int], ones: int) -> int:
    """The trials that violate, bit t for trial t, given the planes of V.

    ``ones`` has a bit set for every trial, and a trial violates when
    V < low or V >= high, ``bounds`` = (low, high).  V >= c is found on the
    way up the planes without building the planes of c: on the planes so
    far it is plane & r at a set bit of c and plane | r at a clear one.  A
    bound below 1 is reached by every trial, and no bound may pass the
    planes' top bit.
    """
    verdict = ones
    for bound in bounds:
        reached, bound = ones, max(bound, 0)
        for position, plane in enumerate(planes):
            reached = plane & reached if bound >> position & 1 else plane | reached
        # the trials at least the high bound are among those at least the low one
        verdict ^= reached
    return verdict


def _channel_planes(draw, n: int, lanes: int, count: int):
    """Channel planes of ``n`` rounds, ``lanes`` a plane, drawn by ``draw``."""
    for _ in range(n // lanes):
        yield draw(lanes * count)
    if n % lanes:
        yield draw(n % lanes * count)


# a channel as it is drawn: (n_k, q_k)
_Channels = tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=64)
def _channels(rounds: tuple[int, ...], threshold: str) -> tuple[_Channels, tuple[int, int], int]:
    """The channels (n_k, q_k) in ascending order of n_k, the bounds
    (low, high) on V, and the planes V and the bounds need (see
    ``model._bounds``)."""
    scale = math.lcm(*rounds)
    channels = tuple((n, scale // n) for n in sorted(rounds))
    return channels, _bounds(scale, threshold), (4 * scale).bit_length()


def _open_sums(sums, rest: _Channels, bounds: tuple[int, int]) -> list[int]:
    """The partial sums v, in ascending order, whose verdict the channels
    ``rest`` can still change.

    Those channels add 0 to R = sum q_k * n_k to V, in steps of at most
    lcm, fewer than the at least 2*lcm - 1 sums between the bounds.  So the
    verdicts of v .. v + R are all the same when v and v + R lie on the same
    side of both bounds, and otherwise they reach both verdicts.
    """
    reach = sum(q * n for n, q in rest)
    low, high = bounds
    return sorted(v for v in sums if low - reach <= v < low or high - reach <= v < high)


@functools.lru_cache(maxsize=256)
def _split(channels: _Channels, count: int, bounds: tuple[int, int]) -> tuple[int, tuple[int, ...]] | None:
    """(i, open sums) when ``count`` trials of ``channels`` split after the
    first i channels, or None when no split pays (see STRATUM_BITS)."""
    sums, drawn = {0: 1}, 0  # V's reachable values so far, by path count
    best, margin = None, 0  # margin is the best split's gain times 2**drawn
    for i, (n, q) in enumerate(channels[:-1]):
        if len(sums) * (n + 1) > MAX_STRATA:
            break
        sums = _add_walk(sums, q, [math.comb(n, c) for c in range(n + 1)])
        drawn, rest = drawn + n, channels[i + 1 :]
        strata = _open_sums(sums, rest, bounds)
        saved = sum(n for n, _ in rest[:-1]) + min(rest[-1][0], 2 * count.bit_length())
        settled = (1 << drawn) - sum(sums[v] for v in strata)
        gain = settled * count * saved - (STRATUM_BITS * (1 + len(strata) * len(rest)) << drawn)
        margin <<= n
        if gain > margin:
            best, margin = (i + 1, tuple(strata)), gain
    return best


def _hits(draw, count: int, channels: _Channels, bounds: tuple[int, int], width: int) -> int:
    """Violations among ``count`` trials of ``channels``, drawn by ``draw``
    against ``bounds``, which a stratum's caller has lowered by its sum.

    Each channel up to the split is drawn as planes of
    min(n_k, MAX_BATCH_TRIALS // count) lanes, counted by ``_tally`` and
    ``_fold`` and weighed once into V's counter by ``_weigh``.  After them
    V's planes, from ``_resolve``, are judged once by
    ``_sliced_violations``, which also finds each open stratum.  See the
    module docstring for the split and the last channel's early stop.  The
    last channel's count grows V by less than the 2*lcm between the
    bounds, so a trial with the same verdict at both ends of the count it
    can reach has it at every count between.
    """
    ones = (1 << count) - 1
    total: list[list[int]] = [[] for _ in range(width)]
    split, strata = _split(channels, count, bounds) or (len(channels), ())
    for i, (n, q) in enumerate(channels[:split]):
        lanes = min(n, MAX_BATCH_TRIALS // count)
        planes = _channel_planes(draw, n, lanes, count)
        columns: list[list[int]] = []
        head = -(-2 * count.bit_length() // lanes)
        rest = n - head * lanes
        if i == len(channels) - 1 and rest > 0:
            # a trial on a bound's edge settles with probability 1/2 a round,
            # so at this point a batch has settled with probability
            # at least 1 - 1/count
            head_count = _fold(_tally(columns, itertools.islice(planes, head)), lanes, count)
            weighed = _resolve(_weigh([column[:] for column in total], head_count, q))
            verdict = _sliced_violations(weighed, bounds, ones)
            if verdict == _sliced_violations(weighed, tuple(bound - q * rest for bound in bounds), ones):
                return verdict.bit_count()
        _weigh(total, _fold(_tally(columns, planes), lanes, count), q)
    weighed = _resolve(total)
    verdict, hits = _sliced_violations(weighed, bounds, ones), 0
    for v in strata:
        # the trials whose V is neither below v nor at least v + 1
        stratum = ones ^ _sliced_violations(weighed, (v, v + 1), ones)
        verdict &= ~stratum
        if stratum:
            hits += _hits(draw, stratum.bit_count(), channels[split:], (bounds[0] - v, bounds[1] - v), width)
    return hits + verdict.bit_count()


def _batch_hits(
    rounds: tuple[int, ...],
    seed: int,
    batch_index: int,
    count: int,
    threshold: str,
) -> int:
    """Violations among ``count`` experiments drawn from batch ``batch_index``'s stream (see ``_hits``)."""
    draw = random.Random(seed & _MASK64 | batch_index << 64).getrandbits
    return _hits(draw, count, *_channels(rounds, threshold))


def _batch_trials(trials: int, index: int) -> int:
    """Trials of batch ``index`` of a run of ``trials``: all full but the
    first and the last, which share the trials left (see the module
    docstring)."""
    batches = -(-trials // MAX_BATCH_TRIALS)
    if batches == 1:
        return trials
    if 0 < index < batches - 1:
        return MAX_BATCH_TRIALS
    ends = trials - (batches - 2) * MAX_BATCH_TRIALS
    return ends // 2 if index else ends - ends // 2


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
    batches of at most MAX_BATCH_TRIALS (see ``_batch_trials``) with
    per-batch substreams and hits are summed.  ``workers`` caps the
    processes the batches are shared among, as do the batches, the usable
    CPUs and the priced rounds, one process per FORK_FLOOR_ROUNDS (see the
    module docstring); it does not change the hits.  An error in a forked
    share is raised once the caller's own share is done.  The seed is a
    signed 64-bit integer, -2**63 .. 2**63 - 1, and the streams read its
    two's-complement pattern, so a negative seed s draws the stream of
    s + 2**64, which no accepted seed shares.  ``trials``, ``workers`` and
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
    priced = trials * sum(config.rounds)
    if priced > RUN_ROUND_BUDGET:
        raise LimitError(
            f"Monte Carlo run draws {priced} rounds, over the budget {RUN_ROUND_BUDGET}; "
            "the analytic method has no such limit"
        )
    batches = -(-trials // MAX_BATCH_TRIALS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # a child forked while another thread runs may inherit a lock that
    # thread holds; threading is only looked up, never imported
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    # a share under the floor saves less than its fork costs, whatever workers asks
    k = min(workers, batches, cpus, max(1, priced // FORK_FLOOR_ROUNDS)) if hasattr(os, "fork") and alone else 1

    def share_hits(share: int) -> int:
        # batches are made one at a time, so no input makes the run hold a
        # per-batch list; an error in a batch, an interrupt included, ends
        # the share before its next batch
        return sum(
            _batch_hits(config.rounds, seed, index, _batch_trials(trials, index), threshold)
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
        # add a module to every run's startup
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
