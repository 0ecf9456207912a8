import errno
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshprob.cli import main
from chshprob.errors import InvalidConfigError, LimitError
from chshprob.exact import binomial_row, exact_violation_probability, violation_count
from chshprob.model import (
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    is_violation,
)
from chshprob import montecarlo
from chshprob.montecarlo import (
    MAX_BATCH_TRIALS,
    RUN_ROUND_BUDGET,
    STREAM_VERSION,
    _batch_hits,
    _channels,
    _fold,
    _open_sums,
    _resolve,
    _sliced_violations,
    _split,
    _tally,
    _weigh,
    estimate_violation_probability,
    wilson_interval,
)
from oracles import one_long_channel_probability, plane_replay_hits, plane_replay_sums


class BatchFailed(Exception):
    pass


class IndexLike:
    """An integer that is not an ``int``, as a numpy integer is: it has
    ``__index__`` but fails ``isinstance(value, int)``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def pin_cpus(monkeypatch, cpus):
    """Makes the run see ``cpus`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


def fork_at_any_size(monkeypatch):
    """Lowers the fork floor to one priced round, so that a test of the
    forked shares forks however few rounds its run is priced at."""
    monkeypatch.setattr(montecarlo, "FORK_FLOOR_ROUNDS", 1)


def split_after(rounds, count, threshold):
    """How many channels a batch of ``count`` trials draws before it
    splits, 0 when it does not split."""
    channels, bounds, _ = _channels(rounds, threshold)
    return (_split(channels, count, bounds) or (0,))[0]


def weigh_and_judge(counts, rounds, threshold, ones, lowered=0):
    """``_sliced_violations`` of counts in channel order, the bounds
    lowered by ``lowered``."""
    _, (low, high), width = _channels(rounds, threshold)
    total = [[] for _ in range(width)]
    for count, n in zip(counts, rounds):
        _weigh(total, count, math.lcm(*rounds) // n)
    return _sliced_violations(_resolve(total), (low - lowered, high - lowered), ones)


def sliced_counts(planes, rounds, ones):
    """Each channel's count, as ``_tally`` gives it, of one plane per round
    whose trials are the bits of ``ones``; channel 2's planes are inverted
    first."""
    counts, first = [], 0
    for sign, n in zip((1, -1, 1, 1), rounds):
        channel = planes[first : first + n]
        counts.append(_tally([], [plane ^ ones if sign < 0 else plane for plane in channel]))
        first += n
    return counts


class TestSimulateExperiment:
    """Experiments simulated by the batch kernel, replayed trial by trial."""

    def test_replays_maximal_violation(self):
        # single-trial batches of four single-round channels: the kernel's hit
        # is decided by the replayed bits alone, each adding +-1 to C, so
        # |C| = 4 only when every bit is set or every bit is clear
        rounds = (1, 1, 1, 1)
        seen = set()
        for index in range(64):
            (s,) = plane_replay_sums(rounds, 3, index, 1)
            strict = _batch_hits(rounds, 3, index, 1, STRICT)
            nonstrict = _batch_hits(rounds, 3, index, 1, NON_STRICT)
            assert strict == (s in ((1, 1, 1, 1), (-1, -1, -1, -1))), s
            assert nonstrict == (abs(sum(s)) >= 2), s
            seen.add(s)
        assert (1, 1, 1, 1) in seen and (-1, -1, -1, -1) in seen and (1, -1, 1, 1) in seen

    def test_consumes_exactly_the_round_total_in_order(self):
        # the replay reads each channel's rounds lane by lane, shortest
        # channel first, and the strata of a split batch in ascending order
        # of their sums; agreement pins that layout, the channel order, the
        # strata and a set bit's +1.  2048 trials put 32 lanes in a plane,
        # so the channels of the first three rows end inside a plane, on
        # its edge and across several planes; (1,1,1000,1000) splits after
        # its 1-round channels when strict, and its strata stop their last
        # channel early or not.  (4,4,4,5) is drawn at the seed range's
        # ends in one lane (4096 trials) and in four, at trial counts that
        # are and are not a multiple of the generator's 32-bit words.  The
        # last channel of (1,1,1,2000) settles before its end at 3, 60 and
        # 4096 trials, and that of (1,1,1,61) at 4096 trials, so its rest is
        # not drawn; the other counts draw the channel in one plane.  A full
        # batch of (1,1,1,61) splits after three channels, and its two
        # strata of about 8192 trials stop their channel early
        cases = [
            (rounds, 13, 2048)
            for rounds in ((3, 5, 7, 2), (63, 1, 64, 2), (64, 64, 64, 64), (1, 1, 1000, 1000))
        ]
        cases += [
            ((4, 4, 4, 5), seed, count)
            for seed in (0, -1, 2**63 - 1, -(2**63))
            for count in (1, 33, 4096)
        ]
        cases = [(case, index) for case in cases for index in (0, 1)]
        cases += [
            ((rounds, seed, count), 0)
            for rounds, counts in (
                ((1, 1, 1, 2000), (1, 3, 60, 4096)),
                ((1, 1, 1, 61), (1, 3, 60, 4096, MAX_BATCH_TRIALS)),
            )
            for seed in (2**63 - 1, -(2**63))
            for count in counts
        ]
        splits = {
            ((1, 1, 1000, 1000), 2048, STRICT): 2,
            ((1, 1, 1, 61), MAX_BATCH_TRIALS, STRICT): 3,
            ((1, 1, 1, 61), MAX_BATCH_TRIALS, NON_STRICT): 3,
        }
        for (rounds, seed, count), index in cases:
            for threshold in (STRICT, NON_STRICT):
                split = splits.get((rounds, count, threshold), 0)
                assert split_after(rounds, count, threshold) == split, (rounds, count, threshold)
                expected = plane_replay_hits(rounds, seed, index, count, threshold, split)
                got = _batch_hits(rounds, seed, index, count, threshold)
                assert got == expected, (rounds, seed, count, threshold, index)

    @pytest.mark.parametrize(
        "rounds",
        [
            pytest.param((1, 1, 1, 1), id="4-rounds"),
            pytest.param((2, 2, 2, 2), id="8-rounds"),
            pytest.param((3, 5, 7, 1), id="lcm-105"),
            pytest.param((1, 2, 4, 8), id="15-rounds"),
            pytest.param((4, 4, 4, 4), id="16-rounds"),
        ],
    )
    def test_short_rows_match_the_plane_replay(self, rounds):
        # rows of at most 16 rounds, whose planes hold every lane of a
        # channel below a full batch, and which never split; (3,5,7,1) is
        # drawn shortest channel first.  Counts about a 32-bit word of the
        # generator, and a full batch, at the seed range's ends, both
        # thresholds and the first two batches
        for seed, count, index in itertools.product(
            (0, -1, 2**63 - 1, -(2**63)), (1, 31, 32, 33, MAX_BATCH_TRIALS), (0, 1)
        ):
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, seed, index, count, threshold)
                got = _batch_hits(rounds, seed, index, count, threshold)
                assert got == expected, (seed, count, index, threshold)

    def test_rows_past_int64_are_weighed_exactly(self, monkeypatch):
        # 4*lcm >= 2**62 in the first two, and 4*lcm just under 2**62 in the
        # third: no drawn row violates, and a row whose first channel is
        # drawn clear and the rest set has V = 3*lcm, C = 2 exactly on the
        # bound, so it violates only when non-strict; one unit off in any
        # weight would move it
        cases = [
            (32771, 32779, 32783, 32789),
            (5, 1048573, 1048571, 1048559),
            (1, 1048573, 1048571, 1048559),
        ]
        for rounds in cases:
            assert (4 * math.lcm(*rounds) >= 2**62) == (rounds[0] != 1)
            for threshold in (STRICT, NON_STRICT):
                assert _batch_hits(rounds, 13, 0, 15, threshold) == 0

        class FirstChannelClear:
            # the first ``clear`` bits drawn, the first channel's, are clear
            clear = 0

            def __init__(self, seed):
                self.left = self.clear

            def getrandbits(self, width):
                self.left -= width
                return 0 if self.left >= 0 else (1 << width) - 1

        monkeypatch.setattr(montecarlo.random, "Random", FirstChannelClear)
        for rounds in cases:
            FirstChannelClear.clear = 3 * min(rounds)
            assert _batch_hits(rounds, 13, 0, 3, STRICT) == 0
            assert _batch_hits(rounds, 13, 0, 3, NON_STRICT) == 3

    def test_rows_on_both_sides_of_16_rounds(self):
        # (4,4,4,4), which stream 3 drew as bit planes, and (4,4,4,5), which
        # stream 2 drew as words, are drawn and counted by the same rule
        for rounds in ((4, 4, 4, 4), (4, 4, 4, 5)):
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, 13, 0, 4096, threshold)
                assert _batch_hits(rounds, 13, 0, 4096, threshold) == expected, (rounds, threshold)

    def test_a_huge_row_goes_straight_to_counting(self, monkeypatch):
        # a row of 10**12 rounds is drawn plane by plane, each plane at most
        # MAX_BATCH_TRIALS bits: the first holds MAX_BATCH_TRIALS lanes of
        # one trial, and nothing of the row's length is built before it is
        # counted.  The trial settles on that plane, so nothing more is
        # drawn.  A clear first channel and set planes after it put it on
        # the non-strict bound at the channel's last round, so it does not
        # settle, and its next planes are as wide; the stand-in stops that
        # draw, which would take minutes
        class Stopped(Exception):
            pass

        widths = []

        class Recorded(random.Random):
            on_bound = False

            def getrandbits(self, width):
                widths.append(width)
                if len(widths) > 8:
                    raise Stopped
                if self.on_bound:
                    return 0 if len(widths) == 1 else (1 << width) - 1
                return super().getrandbits(width)

        monkeypatch.setattr(montecarlo.random, "Random", Recorded)
        _batch_hits((1, 1, 1, 10**12), 13, 0, 1, STRICT)
        assert widths == [1, 1, 1, MAX_BATCH_TRIALS]
        widths.clear()
        Recorded.on_bound = True
        with pytest.raises(Stopped):
            _batch_hits((1, 1, 1, 10**12), 13, 0, 1, NON_STRICT)
        assert widths == [1, 1, 1] + [MAX_BATCH_TRIALS] * 6

    def test_a_batch_draws_its_last_channel_until_every_trial_settles(self, monkeypatch):
        # a full batch of (1,1,1,2000) splits after its 1-round channels,
        # and only the strata of the trials that the last channel can still
        # decide, a quarter strict and three quarters non-strict, draw that
        # channel, until a run of about 32 equal rounds leaves none on a
        # bound: 11 and 25 of the 2003 rounds a trial.  The 1000-round third
        # channel of (1,1,1000,1000) leaves trials on both sides of a bound,
        # so that batch draws every round of a trial its 1-round channels
        # leave open: all of them when non-strict, and when strict the half
        # whose channels 1 and 2 do not cancel
        drawn = []

        class Counted(random.Random):
            def getrandbits(self, width):
                drawn.append(width)
                return super().getrandbits(width)

        monkeypatch.setattr(montecarlo.random, "Random", Counted)
        for rounds, threshold, low, high in (
            ((1, 1, 1, 2000), STRICT, 0, 1 / 150),
            ((1, 1, 1, 2000), NON_STRICT, 0, 1 / 60),
            ((1, 1, 1000, 1000), STRICT, 0.49, 0.51),
            ((1, 1, 1000, 1000), NON_STRICT, 1, 1),
        ):
            bits = MAX_BATCH_TRIALS * sum(rounds)
            drawn.clear()
            _batch_hits(rounds, 42, 0, MAX_BATCH_TRIALS, threshold)
            assert low * bits <= sum(drawn) <= high * bits, (rounds, threshold, sum(drawn) / bits)

    @pytest.mark.parametrize(
        "n, count",
        [
            (n, count)
            for n in (1, 2, 3, 16, 17, 61, 1000, 4099)
            for count in (1, 3, 60, 64, 65, 4096, MAX_BATCH_TRIALS)
            if n * count <= 3 * 10**7
        ],
    )
    def test_lane_folded_counts_equal_a_bit_by_bit_replay(self, n, count):
        # planes of L = min(n, 2**16 // count) lanes, the last holding the
        # rounds left, as _batch_hits draws a channel; the counted and
        # folded planes must give each trial its set rounds, counted bit by
        # bit from the same planes
        lanes = min(n, MAX_BATCH_TRIALS // count)
        draw = random.Random(n * count).getrandbits
        planes = [draw(min(lanes, n - first) * count) for first in range(0, n, lanes)]
        expected = [0] * count
        for plane in planes:
            bits = format(plane, "b")[::-1]
            for lane in range(0, len(bits), count):
                for t, bit in enumerate(bits[lane : lane + count]):
                    expected[t] += bit == "1"
        columns = _fold(_tally([], iter(planes)), lanes, count)
        got = [0] * count
        for position, column in enumerate(columns):
            for plane in column:
                assert plane >> count == 0
                for t, bit in enumerate(format(plane, f"0{count}b")[::-1]):
                    got[t] += (bit == "1") << position
        assert got == expected

    def test_channel_sums_follow_walk_distribution(self):
        # frequency check of each channel endpoint against the exact pmf,
        # the path counts C(2, i) of endpoint 2i - 2 over 2**2
        trials = 20_000
        sums = plane_replay_sums((2, 2, 2, 2), 2024, 0, trials)
        for m, count in zip((-2, 0, 2), binomial_row(2)):
            p = count / 2**2
            sigma = math.sqrt(p * (1 - p) / trials)
            for k in range(4):
                frequency = sum(times for trial, times in sums.items() if trial[k] == m) / trials
                assert abs(frequency - p) <= 3 * sigma, (m, k)


class TestPathsAgainstExact:
    """Rows of every length, in one lane a plane or many, checked against
    the exact probability within |z| <= 5, the benchmark's bound, at fixed
    seeds."""

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds, trials, seed",
        [
            pytest.param((4, 4, 4, 4), 1_000_000, 16, id="bit-sliced-16-rounds"),
            pytest.param((3, 5, 7, 1), 1_000_000, 105, id="bit-sliced-lcm-105"),
            pytest.param((1, 1, 1, 61), 200_000, 61, id="64-rounds"),
            pytest.param((3, 5, 7, 40), 200_000, 55, id="55-rounds"),
            pytest.param((3, 5, 61, 70), 100_000, 139, id="139-rounds"),
            pytest.param((1, 1, 1000, 1000), 50_000, 2002, id="2002-rounds"),
            pytest.param((1, 1, 1, 8_388_928), 64, 8, id="pieces"),
        ],
    )
    def test_hits_lie_within_five_sigma_of_exact(self, rounds, trials, seed, threshold):
        if rounds[:3] == (1, 1, 1):
            p = one_long_channel_probability(rounds[3], threshold)
        else:
            p = exact_violation_probability(ExperimentConfig(rounds), threshold).value
        hits = estimate_violation_probability(ExperimentConfig(rounds), trials, seed, threshold).hits
        z = (hits - trials * p) / math.sqrt(trials * p * (1 - p))
        assert abs(z) <= 5, (hits, float(trials * p), z)

    @pytest.mark.parametrize(
        "rounds, threshold, seed, counts",
        [
            pytest.param((2, 2, 2, 2), STRICT, 42, [MAX_BATCH_TRIALS] * 300, id="short-rows"),
            pytest.param((1, 1, 1, 61), NON_STRICT, 2**63 - 1, [1024] * 400, id="61-lanes"),
            pytest.param((3, 5, 7, 9), STRICT, -12345, [MAX_BATCH_TRIALS] * 100, id="negative-seed"),
            # the batches of 200 * MAX_BATCH_TRIALS + 3392 trials: the first
            # and the last share the trials the full ones leave
            pytest.param(
                (4, 4, 4, 4),
                NON_STRICT,
                1,
                [34464] + [MAX_BATCH_TRIALS] * 199 + [34464],
                id="shared-end-batches",
            ),
            pytest.param((1, 1, 1, 100000), STRICT, 100003, [MAX_BATCH_TRIALS] * 200, id="settling-row"),
            *(
                pytest.param(rounds, threshold, seed, [MAX_BATCH_TRIALS] * batches, id=f"{name}-{threshold}")
                for rounds, seed, batches, name in (
                    ((1, 1, 1, 40), 43, 150, "split-1-1-1-40"),
                    ((1, 1, 40, 40), 80, 600, "split-1-1-40-40"),
                    ((40, 1, 1, 1), 41, 150, "long-first"),
                )
                for threshold in (STRICT, NON_STRICT)
            ),
        ],
    )
    def test_batches_pool_and_spread_as_binomials(self, rounds, threshold, seed, counts):
        # Batch b draws ``counts[b]`` trials from its own stream.  The pooled
        # hits lie within |z| <= 5 of exact p, and the dispersion index
        # sum_b (h_b - c_b*p)**2 / (c_b*p*(1 - p)), about chi-squared with one
        # degree a batch, within |z| <= 5 of its mean.  Batches that share a
        # stream fail it, and so does one extra hit in 2048 trials, which
        # the single runs above do not see.  The full batches of the last
        # rows split: (1,1,1,40) and (40,1,1,1) after their three 1-round
        # channels, with settled strata that violate when non-strict, and
        # (1,1,40,40) after its two when strict.  Had its two open strata
        # drawn from one generator state, their hits would move together and
        # the dispersion index would read about -8.
        config = ExperimentConfig(rounds)
        p = violation_count(config, threshold) / 2**config.total
        hits = [_batch_hits(rounds, seed, b, count, threshold) for b, count in enumerate(counts)]
        pooled = (sum(hits) - sum(counts) * p) / math.sqrt(sum(counts) * p * (1 - p))
        dispersion = sum((h - c * p) ** 2 / (c * p * (1 - p)) for h, c in zip(hits, counts))
        spread = (dispersion - len(counts)) / math.sqrt(2 * len(counts))
        assert abs(pooled) <= 5 and abs(spread) <= 5, (pooled, spread)


def row_correlation(row, rounds, rest=0):
    """The correlation of the row whose round j is +1 where bit j of ``row``
    is set, channel by channel, with channel 4's +1 count raised by ``rest``."""
    offsets = [sum(rounds[:k]) for k in range(4)]
    ones = [bin(row >> o & (1 << n) - 1).count("1") for o, n in zip(offsets, rounds)]
    ones[3] += rest
    return sum(sign * Fraction(2 * c - n, n) for sign, c, n in zip((1, -1, 1, 1), ones, rounds))


SHORT_CONFIGS = [r for r in itertools.product(range(1, 5), repeat=4) if sum(r) <= 7]


class TestSlicedViolations:
    """``_weigh`` and ``_sliced_violations`` on planes that hold every
    possible row once, row r as trial r, against the correlation of each
    row, decoded bit by bit."""

    @staticmethod
    def every_row(rounds):
        rows = range(1 << sum(rounds))
        planes = [sum(1 << row for row in rows if row >> j & 1) for j in range(sum(rounds))]
        ones = (1 << len(rows)) - 1
        return rows, sliced_counts(planes, rounds, ones), ones

    @pytest.mark.parametrize("rounds", SHORT_CONFIGS)
    def test_every_row_of_every_short_config(self, rounds):
        rows, counts, ones = self.every_row(rounds)
        for threshold in (STRICT, NON_STRICT):
            table = weigh_and_judge(counts, rounds, threshold, ones)
            assert table >> len(rows) == 0
            for row in rows:
                verdict = bool(table >> row & 1)
                assert verdict == is_violation(row_correlation(row, rounds), threshold), (rounds, threshold, row)

    @pytest.mark.parametrize("rounds", SHORT_CONFIGS)
    def test_every_row_raised_by_every_rest(self, rounds):
        # the verdict of the row with channel 4's count raised by rest is
        # read from V against both bounds lowered by q4 * rest; rest reaches
        # n4 here, past the n4 - 1 a batch can leave, where the strict low
        # bound lowers to 0.  Lowered by 4*lcm, as far as a stratum's sum
        # can lower them, both bounds are below 1 and every row violates
        rows, counts, ones = self.every_row(rounds)
        q4 = math.lcm(*rounds) // rounds[3]
        for threshold, rest in itertools.product((STRICT, NON_STRICT), range(rounds[3] + 1)):
            raised = weigh_and_judge(counts, rounds, threshold, ones, q4 * rest)
            assert raised >> len(rows) == 0
            for row in rows:
                verdict = bool(raised >> row & 1)
                expected = is_violation(row_correlation(row, rounds, rest), threshold)
                assert verdict == expected, (rounds, threshold, rest, row)
            assert weigh_and_judge(counts, rounds, threshold, ones, 4 * math.lcm(*rounds)) == ones

    def test_every_short_shape_sums_within_its_columns(self):
        # V <= 4*lcm has at most (4*lcm).bit_length() bits, as have both
        # bounds; the comparator's counter must span all of them for every
        # row of at most 16 rounds, or their top bits go unread and the row
        # below, V = 3*lcm on the non-strict bound, is misjudged
        shapes = [r for r in itertools.product(range(1, 14), repeat=4) if sum(r) <= 16]
        assert len(shapes) == 1820
        for rounds in shapes:
            counts = sliced_counts([1] * sum(rounds), rounds, 1)
            # one trial, every round +1: C = 2, so only the non-strict test counts it
            assert weigh_and_judge(counts, rounds, STRICT, 1) == 0, rounds
            assert weigh_and_judge(counts, rounds, NON_STRICT, 1) == 1, rounds


class TestOpenSums:
    """The rule that settles a stratum, ``_open_sums`` against the bounds of
    ``_channels``, checked against every completion of the channels left."""

    @staticmethod
    def share(channel, c):
        """What a channel's count c, its rounds that add +1, adds to the
        correlation."""
        n, _ = channel
        return Fraction(2 * c - n, n)

    @pytest.mark.parametrize("rounds", SHORT_CONFIGS)
    def test_a_settled_stratum_has_one_verdict_and_an_open_one_both(self, rounds):
        # at every split point and both thresholds: every partial sum v the
        # channels drawn can reach, with the correlation so far that every
        # way of reaching it gives, and every completion of the channels left
        for threshold, split in itertools.product((STRICT, NON_STRICT), range(1, 4)):
            channels, (low, high), _ = _channels(rounds, threshold)
            drawn, rest = channels[:split], channels[split:]
            so_far: dict[int, Fraction] = {}
            for counts in itertools.product(*(range(n + 1) for n, _ in drawn)):
                v = sum(q * c for (_, q), c in zip(drawn, counts))
                correlation = sum(self.share(channel, c) for channel, c in zip(drawn, counts))
                assert so_far.setdefault(v, correlation) == correlation, (rounds, v)
            strata = _open_sums(so_far, rest, (low, high))
            assert strata == sorted(strata)
            for v, correlation in so_far.items():
                verdicts = {
                    is_violation(correlation + sum(self.share(channel, c) for channel, c in zip(rest, counts)), threshold)
                    for counts in itertools.product(*(range(n + 1) for n, _ in rest))
                }
                # a settled stratum takes the verdict of its sum v
                expected = {True, False} if v in strata else {v < low or v >= high}
                assert verdicts == expected, (rounds, threshold, split, v)


class TestWilsonInterval:
    def test_zero_hits_pins_lower_bound(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_all_hits_pins_upper_bound(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0
        assert 0.95 < low < 1.0

    def test_known_value(self):
        # half the trials hit: interval symmetric around 0.5
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(1.0 - high, abs=1e-12)
        assert low == pytest.approx(0.40383, abs=5e-5)

    @given(trials=st.integers(min_value=1, max_value=10**6), data=st.data())
    def test_contains_point_estimate(self, trials, data):
        hits = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(hits, trials)
        assert 0.0 <= low <= hits / trials <= high <= 1.0

    def test_z_is_the_exact_normal_quantile(self):
        # the literal must be this double to the last bit: ci_low and ci_high
        # are written to CSV at full precision
        assert montecarlo._Z95 == NormalDist().inv_cdf(0.975)

    def test_rejects_bad_counts(self):
        # counts past their range, and a bool, float or numpy integer in place of a count
        bad = ((5, 0), (6, 5), (True, 2.5), (1, True), (1.0, 4), (1, 4.0), (IndexLike(1), 4))
        for hits, trials in bad:
            with pytest.raises(InvalidConfigError):
                wilson_interval(hits, trials)


class TestEstimate:
    def test_single_round_matches_exact_value(self):
        config = ExperimentConfig((1, 1, 1, 1))
        result = estimate_violation_probability(config, 10**6, seed=42, threshold=STRICT)
        sigma = math.sqrt(0.125 * 0.875 / 10**6)
        assert abs(result.estimate - 0.125) <= 3 * sigma
        assert result.ci_low <= 0.125 <= result.ci_high

    def test_two_round_matches_exact_value(self):
        config = ExperimentConfig((2, 2, 2, 2))
        exact = float(exact_violation_probability(config, STRICT).value)
        result = estimate_violation_probability(config, 10**6, seed=11, threshold=STRICT)
        sigma = math.sqrt(exact * (1 - exact) / 10**6)
        assert abs(result.estimate - exact) <= 3 * sigma

    def test_deterministic_for_same_arguments(self):
        config = ExperimentConfig((2, 3, 1, 2))
        a = estimate_violation_probability(config, 200_000, seed=5, threshold=STRICT)
        b = estimate_violation_probability(config, 200_000, seed=5, threshold=STRICT)
        assert a == b

    def test_different_seeds_differ(self):
        config = ExperimentConfig((1, 1, 1, 1))
        a = estimate_violation_probability(config, 200_000, seed=1)
        b = estimate_violation_probability(config, 200_000, seed=2)
        assert a.hits != b.hits

    @pytest.mark.parametrize("rounds", [(1, 1, 1000, 1000), (1, 1, 1, 2000), (2, 3, 5, 7)])
    @pytest.mark.parametrize("trials", [2000, MAX_BATCH_TRIALS + 4464], ids=["one-batch", "two-batches"])
    def test_every_order_of_the_counts_gives_the_same_result(self, rounds, trials):
        # every bit is a round that adds +1 to C, on any channel, so a batch
        # draws the same bits for the same multiset of counts.  The first
        # row splits when strict, the second stops its last channel early
        # and the third does neither
        for threshold in (STRICT, NON_STRICT):
            results = set()
            for order in set(itertools.permutations(rounds)):
                r = estimate_violation_probability(ExperimentConfig(order), trials, 9, threshold)
                results.add((r.hits, r.estimate, r.ci_low, r.ci_high))
            assert len(results) == 1, (rounds, threshold, results)

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        # every run is several batches, the first and the last short; they
        # fall in share 0 at four workers and in different shares at three
        # and at two
        pin_cpus(monkeypatch, 4)
        fork_at_any_size(monkeypatch)
        for rounds, trials, workers in (
            ((1, 1, 1, 1), 300_000, 4),
            ((1, 1, 1, 1), 300_000, 3),
            ((1, 1, 1000, 1000), 3 * MAX_BATCH_TRIALS + 7, 2),
        ):
            config = ExperimentConfig(rounds)
            batches = -(-trials // MAX_BATCH_TRIALS)
            assert batches >= 4 and ((batches - 1) % workers > 0) == (workers < 4)
            sequential = estimate_violation_probability(config, trials, seed=3, threshold=STRICT)
            parallel = estimate_violation_probability(
                config, trials, seed=3, threshold=STRICT, workers=workers
            )
            assert sequential == parallel
            assert sequential.stream == STREAM_VERSION == 7

    def test_the_first_and_last_batch_share_the_trials_left(self, monkeypatch):
        # a run keeps ceil(trials / MAX_BATCH_TRIALS) batches, all full but
        # the first and the last.  Share 0 of k holds the most batches,
        # batch 0 among them, so a short batch 0 evens the strided shares
        # out: the largest is never larger than with full batches and a
        # short last one, and smaller for 1e5 trials at two shares
        def largest_share(counts, k):
            return max(sum(counts[share::k]) for share in range(k))

        drawn = []
        monkeypatch.setattr(montecarlo, "_batch_hits", lambda *batch: drawn.append(batch[2:4]) or 0)
        config = ExperimentConfig((1, 1, 1, 1))
        grid = range(MAX_BATCH_TRIALS + 1, 64 * MAX_BATCH_TRIALS + 1, 4099)
        edges = (b * MAX_BATCH_TRIALS + d for b in range(1, 65) for d in (-1, 0, 1, 2))
        for trials in (*grid, *edges, 10**5, 10**6, 4 * 10**6):
            drawn.clear()
            estimate_violation_probability(config, trials, seed=1)
            batches = -(-trials // MAX_BATCH_TRIALS)
            assert [index for index, _ in drawn] == list(range(batches))
            counts = [count for _, count in drawn]
            assert sum(counts) == trials and all(1 <= count <= MAX_BATCH_TRIALS for count in counts)
            assert counts[1:-1] == [MAX_BATCH_TRIALS] * (batches - 2)
            short_last = [min(MAX_BATCH_TRIALS, trials - b * MAX_BATCH_TRIALS) for b in range(batches)]
            for k in range(1, 17):
                assert largest_share(counts, k) <= largest_share(short_last, k), (trials, k)
            if trials == 10**5:
                assert counts == [50_000, 50_000]
                assert largest_share(counts, 2) < largest_share(short_last, 2)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, BatchFailed])
    def test_a_failed_batch_ends_the_run_before_the_next(self, monkeypatch, error):
        # batch 1 of 120 raises, an interrupt or an error, and the run raises
        # it and returns no partial sum.  At one worker no later batch is
        # drawn.  At two, batch 1 fails in the forked child's share: the
        # calling process draws its own share, 0, 2, ..., 118, then runs
        # share 1 again up to the failing batch
        batch_hits = montecarlo._batch_hits
        drawn = []

        def batch(rounds, seed, index, count, threshold):
            drawn.append(index)
            if index == 1:
                raise error
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        pin_cpus(monkeypatch, 2)
        fork_at_any_size(monkeypatch)
        config = ExperimentConfig((1, 1, 1, 61))
        for workers, expected in ((1, [0, 1]), (2, [*range(0, 120, 2), 1])):
            drawn.clear()
            with pytest.raises(error):
                estimate_violation_probability(config, 120 * MAX_BATCH_TRIALS, seed=7, workers=workers)
            assert drawn == expected

    def test_failed_batch_gives_one_error_line(self, monkeypatch, capsys):
        batch_hits = montecarlo._batch_hits

        def batch(rounds, seed, index, count, threshold):
            if index == 1:
                raise InvalidConfigError("batch 1 failed")
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        pin_cpus(monkeypatch, 2)
        fork_at_any_size(monkeypatch)
        trials = 2 * MAX_BATCH_TRIALS
        code = main(["mc", "1", "1", "1", "61", "--trials", str(trials), "--workers", "2"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: batch 1 failed\n")

    def test_strict_hits_never_exceed_nonstrict(self):
        config = ExperimentConfig((3, 2, 2, 3))
        strict = estimate_violation_probability(config, 100_000, seed=9, threshold=STRICT)
        nonstrict = estimate_violation_probability(config, 100_000, seed=9, threshold=NON_STRICT)
        assert strict.hits <= nonstrict.hits

    def test_single_trial(self):
        config = ExperimentConfig((1, 1, 1, 1))
        result = estimate_violation_probability(config, 1, seed=0)
        assert result.hits in (0, 1)
        assert result.estimate in (0.0, 1.0)

    def test_rejects_zero_trials(self):
        # trials must be a Python int: a float, a bool or a numpy integer is
        # refused like a count below one
        for trials in (0, 2.5, True, IndexLike(10)):
            with pytest.raises(InvalidConfigError, match="trials"):
                estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), trials, seed=1)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, IndexLike(2)])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(InvalidConfigError):
            estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), 10, seed=1, workers=workers)

    @pytest.mark.parametrize(
        "seed",
        [2**64 + 42, 42 - 2**64, -(2**63) - 1, 2**64, 2**63, 2**64 - 1, 1.5, True, IndexLike(42)],
    )
    def test_rejects_seeds_past_64_bits_before_any_draw(self, monkeypatch, seed):
        # each of these has the 64-bit pattern of a seed in range, or, as a
        # float, a bool or a numpy integer, would draw one's stream
        def no_draws(*args):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(montecarlo, "_batch_hits", no_draws)
        with pytest.raises(InvalidConfigError, match="seed"):
            estimate_violation_probability(ExperimentConfig((2, 2, 2, 2)), 100, seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
    def test_accepts_seeds_at_the_range_ends(self, seed):
        result = estimate_violation_probability(ExperimentConfig((2, 2, 2, 2)), 1000, seed=seed)
        assert result.seed == seed

    def test_negative_seed_accepted_and_stable(self):
        config = ExperimentConfig((1, 1, 1, 1))
        a = estimate_violation_probability(config, 50_000, seed=-1)
        b = estimate_violation_probability(config, 50_000, seed=-1)
        assert a == b

    @pytest.mark.parametrize(
        "rounds, trials, seed, strict, nonstrict",
        [
            pytest.param((2, 2, 2, 2), 4_000_000, 42, 281194, 1156405, id="2-2-2-2"),
            pytest.param((4, 4, 4, 4), 200_000, 7, 4297, 15400, id="4-4-4-4"),
            pytest.param((4, 4, 4, 5), 200_000, 7, 8387, 9908, id="4-4-4-5"),
            pytest.param((1, 1, 1000, 1000), 50_000, 42, 12453, 12796, id="1-1-1000-1000"),
            pytest.param((1, 1, 1, 2000), 100_000, 42, 25193, 25193, id="1-1-1-2000-1e5"),
            pytest.param((1, 1, 1, 2000), 1_000, 42, 244, 244, id="1-1-1-2000-1e3"),
        ],
    )
    def test_pinned_hit_counts(self, rounds, trials, seed, strict, nonstrict):
        # recorded under stream 7, which reads every drawn bit as a round
        # that adds +1 to C and so moved every row from stream 6.  The one
        # batch of (1,1,1000,1000) splits when strict, and not when
        # non-strict.  A trial of
        # (1,1,1,2000) that its 1-round channels leave open has one verdict
        # at every count of channel 4 but one end of its range, so its hits
        # are those 1-round channels' alone, whether its batch splits or
        # not.  A change to these values is a new stream and needs a new
        # STREAM_VERSION
        assert STREAM_VERSION == 7
        config = ExperimentConfig(rounds)
        for threshold, hits in ((STRICT, strict), (NON_STRICT, nonstrict)):
            result = estimate_violation_probability(config, trials, seed, threshold)
            assert result.hits == hits, (rounds, threshold)

    @pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts as Linux reports them")
    def test_short_rows_fault_in_no_pages_once_warm(self):
        # a batch's planes and sums are a few dozen 8 KiB integers; were
        # they given back to the system after every batch, the run would
        # fault them in again in each of its 62 batches
        probe = (
            "import resource\n"
            "from chshprob.model import ExperimentConfig\n"
            "from chshprob.montecarlo import estimate_violation_probability\n"
            "config = ExperimentConfig((2, 2, 2, 2))\n"
            "warm = estimate_violation_probability(config, 4_000_000, seed=42).hits\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "hits = estimate_violation_probability(config, 4_000_000, seed=42).hits\n"
            "print(warm, hits, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        warm, hits, faults = map(int, result.stdout.split())
        assert warm == hits == 281194
        assert faults < 1000

    def test_batches_are_made_one_at_a_time(self, monkeypatch):
        # 10**9 trials are 15259 batches; nothing per batch may exist before
        # the first one is drawn, at one worker or at two
        def first_batch(*args):
            raise RuntimeError("first batch reached")

        monkeypatch.setattr(montecarlo, "_batch_hits", first_batch)
        for last, workers in (("1", "1"), ("61", "2")):
            argv = ["mc", "1", "1", "1", last, "--trials", str(10**9), "--workers", workers]
            tracemalloc.start()
            try:
                with pytest.raises(RuntimeError, match="first batch reached"):
                    main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 100 * 1024, workers

    @pytest.mark.parametrize(
        "rounds, count",
        [((1, 1, 1000, 1000), 16384), ((1, 1, 1, 8_388_928), 4)],
        ids=["rows", "pieces"],
    )
    def test_a_long_row_batch_holds_a_few_planes(self, rounds, count):
        # a channel's planes stream into a counter of at most two planes of
        # 8 KiB a column, O(log n_k) planes, so a batch's peak stays far
        # below its rounds' bits: 4 lanes of 1000 rounds, or 512 planes of
        # 16384 lanes for the 8388928-round channel
        _batch_hits(rounds, 5, 0, count, STRICT)
        tracemalloc.start()
        try:
            _batch_hits(rounds, 5, 0, count, STRICT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024

    @pytest.mark.parametrize(
        "rounds, trials",
        [
            ((1, 1, 1, 1), RUN_ROUND_BUDGET // 4),
            ((1, 1, 1, 61), RUN_ROUND_BUDGET // 64),
            ((1, 1, 1, 125), RUN_ROUND_BUDGET // 128),
        ],
        ids=["short", "64-rounds", "128-rounds"],
    )
    def test_round_budget_refuses_before_any_draw(self, monkeypatch, rounds, trials):
        # each run here draws exactly the budget's rounds: it reaches its
        # first draw, and one trial more is refused before that draw
        def first_batch(*args):
            raise RuntimeError("first batch reached")

        monkeypatch.setattr(montecarlo, "_batch_hits", first_batch)
        config = ExperimentConfig(rounds)
        assert trials * sum(rounds) == RUN_ROUND_BUDGET == 2**37
        with pytest.raises(RuntimeError, match="first batch reached"):
            estimate_violation_probability(config, trials, seed=1, workers=2)
        with pytest.raises(LimitError, match=f"draws {RUN_ROUND_BUDGET + sum(rounds)} rounds"):
            estimate_violation_probability(config, trials + 1, seed=1, workers=2)

    def test_bigint_accumulator_matches_replay(self):
        # 4*lcm >= 2**62 here: the weights and sums are Python integers
        rounds = (2, 1048573, 1048571, 1048559)
        assert 4 * math.lcm(*rounds) >= 2**62
        for threshold in (STRICT, NON_STRICT):
            expected = plane_replay_hits(rounds, 13, 0, 4, threshold)
            assert _batch_hits(rounds, 13, 0, 4, threshold) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the shares fork only where os.fork exists")
class TestWorkers:
    """The forked shares of a run at more than one worker.  Each test pins
    the usable CPUs, so that the share count does not depend on the
    machine, and forks at most two children.  A test of the shares
    themselves lowers the fork floor, so that its small run still forks."""

    CONFIG = ExperimentConfig((1, 1, 1, 61))

    def leftovers(self):
        """Whether this process has a child left, running or unreaped."""
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        return True

    def fail_forks(self, monkeypatch):
        """Makes every fork fail, as a full process table would, and returns
        the list that counts the attempts; no process starts."""
        calls = []

        def fork():
            calls.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        return calls

    @pytest.mark.parametrize("outcome", ["returns", "raises", "interrupted"])
    def test_no_child_or_pipe_outlives_the_run(self, monkeypatch, outcome):
        # the children of a run that fails are still inside their first
        # batch when the calling process raises, so only a kill ends them
        # in time
        batch_hits = montecarlo._batch_hits
        caller = os.getpid()

        def batch(rounds, seed, index, count, threshold):
            if outcome != "returns":
                if os.getpid() != caller:
                    time.sleep(20)
                elif index == 0:
                    raise KeyboardInterrupt if outcome == "interrupted" else BatchFailed
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        pin_cpus(monkeypatch, 3)
        fork_at_any_size(monkeypatch)
        assert not self.leftovers()
        fds = set(os.listdir("/dev/fd"))
        trials = 3 * MAX_BATCH_TRIALS
        start = time.monotonic()
        if outcome == "returns":
            result = estimate_violation_probability(self.CONFIG, trials, seed=5, workers=3)
            assert result == estimate_violation_probability(self.CONFIG, trials, seed=5)
        else:
            with pytest.raises(KeyboardInterrupt if outcome == "interrupted" else BatchFailed):
                estimate_violation_probability(self.CONFIG, trials, seed=5, workers=3)
        assert time.monotonic() - start < 10
        assert not self.leftovers()
        assert set(os.listdir("/dev/fd")) == fds

    def test_a_killed_worker_costs_time_not_the_estimate(self, monkeypatch):
        # the child of share 1 dies in its second batch, batch 3; the
        # calling process then draws share 1 itself, from its first batch
        batch_hits = montecarlo._batch_hits
        caller = os.getpid()
        drawn = []

        def batch(rounds, seed, index, count, threshold):
            if os.getpid() != caller and index == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            drawn.append(index)
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        pin_cpus(monkeypatch, 2)
        fork_at_any_size(monkeypatch)
        trials = 5 * MAX_BATCH_TRIALS + 7
        pooled = estimate_violation_probability(self.CONFIG, trials, seed=11, workers=2)
        assert drawn == [0, 2, 4, 1, 3, 5]
        assert pooled == estimate_violation_probability(self.CONFIG, trials, seed=11)
        assert not self.leftovers()

    def test_a_failed_fork_runs_its_share_in_the_caller(self, monkeypatch):
        batch_hits = montecarlo._batch_hits
        drawn = []

        def batch(rounds, seed, index, count, threshold):
            drawn.append(index)
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        self.fail_forks(monkeypatch)
        pin_cpus(monkeypatch, 2)
        fork_at_any_size(monkeypatch)
        fds = set(os.listdir("/dev/fd"))
        trials = 3 * MAX_BATCH_TRIALS
        pooled = estimate_violation_probability(self.CONFIG, trials, seed=2, workers=2)
        assert drawn == [0, 2, 1]
        assert pooled == estimate_violation_probability(self.CONFIG, trials, seed=2)
        assert set(os.listdir("/dev/fd")) == fds

    @pytest.mark.parametrize(
        "workers, batches, cpus, forks",
        [(1, 4, 4, 0), (2, 4, 4, 1), (4, 2, 4, 1), (4, 4, 3, 2), (4, 4, 1, 0), (3, 1, 4, 0)],
    )
    def test_shares_never_outnumber_the_workers_batches_or_cpus(
        self, monkeypatch, workers, batches, cpus, forks
    ):
        # every fork fails, so every share runs in the caller
        calls = self.fail_forks(monkeypatch)
        pin_cpus(monkeypatch, cpus)
        fork_at_any_size(monkeypatch)
        trials = batches * MAX_BATCH_TRIALS
        result = estimate_violation_probability(self.CONFIG, trials, seed=3, workers=workers)
        assert len(calls) == forks
        assert result == estimate_violation_probability(self.CONFIG, trials, seed=3)

    @pytest.mark.parametrize(
        "argv, forks",
        [
            # 1e6 trials of 8 rounds, 8e6 priced rounds, under the floor
            (["mc", "2", "2", "2", "2"], 0),
            # 2.002e8 priced rounds in two batches
            (["mc", "1", "1", "1000", "1000", "--trials", "100000"], 1),
            (["mc", "1", "1", "1000", "1000", "--trials", "100000", "--workers", "1"], 0),
            # 8.4e6 priced rounds in two batches: an explicit count is
            # floored too
            (["mc", "1", "1", "1", "61", "--trials", "131072", "--workers", "2"], 0),
        ],
        ids=["default-small", "default-large", "one-worker", "explicit-small"],
    )
    def test_the_cli_forks_by_default_once_a_run_pays_for_it(self, monkeypatch, argv, forks):
        # the default asks for every CPU, and the library forks at most one
        # process per FORK_FLOOR_ROUNDS priced rounds
        calls = self.fail_forks(monkeypatch)
        pin_cpus(monkeypatch, 2)
        assert main(argv) == 0
        assert len(calls) == forks

    @pytest.mark.parametrize("batches, forks", [(3, 0), (8, 1), (16, 3)])
    def test_the_library_forks_one_process_per_floor_at_most(self, monkeypatch, batches, forks):
        # a batch of (1,1,1,61) is 2**22 priced rounds, a quarter of the
        # floor: 3 batches are under it, 8 are two floors and 16 are four
        calls = self.fail_forks(monkeypatch)
        pin_cpus(monkeypatch, 4)
        trials = batches * MAX_BATCH_TRIALS
        result = estimate_violation_probability(self.CONFIG, trials, seed=3, workers=4)
        assert len(calls) == forks
        assert result == estimate_violation_probability(self.CONFIG, trials, seed=3)

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize(
        "argv, forks",
        [
            # cli-small: one batch each
            (["mc", "2", "2", "2", "2", "--trials", "10000"], 0),
            (["mc", "2", "2", "2", "2", "--trials", "10000", "--nonstrict"], 0),
            # mc-heavy group 1: 3.2e7 priced rounds each, one floor
            (["mc", "2", "2", "2", "2", "--trials", "4000000"], 0),
            (["mc", "2", "2", "2", "2", "--trials", "4000000", "--nonstrict"], 0),
            # group 2: about 2.0e8 priced rounds each, 11 floors, in two batches
            (["mc", "1", "1", "1000", "1000", "--trials", "100000"], 1),
            (["mc", "1", "1", "1", "2000", "--trials", "100000"], 1),
            # group 3: the group 2 row at two workers
            (["mc", "1", "1", "1000", "1000", "--trials", "100000", "--workers", "2"], 1),
        ],
        ids=["small", "small-nonstrict", "short", "short-nonstrict", "long", "long-last", "long-w2"],
    )
    def test_the_benchmark_commands_keep_their_process_counts(self, monkeypatch, argv, forks, cpus):
        # the mc commands of the cli-small and mc-heavy workloads, whose
        # times would move with their process counts
        calls = self.fail_forks(monkeypatch)
        pin_cpus(monkeypatch, cpus)
        assert main(argv) == 0
        assert len(calls) == min(forks, cpus - 1)

    @pytest.mark.parametrize("why", ["no-fork", "second-thread"])
    def test_one_share_without_fork_or_beside_a_live_thread(self, monkeypatch, why):
        pin_cpus(monkeypatch, 4)
        fork_at_any_size(monkeypatch)
        trials = 4 * MAX_BATCH_TRIALS
        expected = estimate_violation_probability(self.CONFIG, trials, seed=3)
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
            assert estimate_violation_probability(self.CONFIG, trials, seed=3, workers=4) == expected
            return
        calls = self.fail_forks(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert estimate_violation_probability(self.CONFIG, trials, seed=3, workers=4) == expected
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert calls == []
