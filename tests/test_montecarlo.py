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
    _fold,
    _sliced_violations,
    _tally,
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


def replay_hits(rounds, seed, batch_index, count, threshold):
    """Violations among ``count`` trials of a batch, replayed bit by bit."""
    return plane_replay_hits(rounds, plane_replay_sums(rounds, seed, batch_index, count), threshold)


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
        # is decided by the replayed signs alone, |C| = 4 only for +-(+1, -1, +1, +1)
        rounds = (1, 1, 1, 1)
        seen = set()
        for index in range(64):
            (m,) = plane_replay_sums(rounds, 3, index, 1)
            strict = _batch_hits(rounds, 3, index, 1, STRICT)
            nonstrict = _batch_hits(rounds, 3, index, 1, NON_STRICT)
            correlation = m[0] - m[1] + m[2] + m[3]
            assert strict == (abs(correlation) == 4), m
            assert nonstrict == (abs(correlation) >= 2), m
            seen.add(m)
        assert (1, -1, 1, 1) in seen and (1, 1, 1, 1) in seen

    def test_consumes_exactly_the_round_total_in_order(self):
        # the replay reads each channel's rounds lane by lane, channel after
        # channel; agreement pins that layout, the channel order and the
        # (1,2) sign.  2048 trials put 32 lanes in a plane, so the channels
        # of the last three end inside a plane, on its edge and across
        # several planes.  (4,4,4,5) is drawn at the seed range's ends in
        # one lane (4096 trials) and in four, at trial counts that are and
        # are not a multiple of the generator's 32-bit words.  The last
        # channel of (1,1,1,2000) settles before its end at 3, 60 and 4096
        # trials, and that of (1,1,1,61) at 4096 and MAX_BATCH_TRIALS (16
        # lanes and one), so its rest is not drawn; the other counts draw
        # the channel in one plane
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
        for (rounds, seed, count), index in cases:
            sums = plane_replay_sums(rounds, seed, index, count)
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, sums, threshold)
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
        # channel below a full batch.  Counts about a 32-bit word of the
        # generator, and a full batch, at the seed range's ends, both
        # thresholds and the first two batches
        for seed, count, index in itertools.product(
            (0, -1, 2**63 - 1, -(2**63)), (1, 31, 32, 33, MAX_BATCH_TRIALS), (0, 1)
        ):
            sums = plane_replay_sums(rounds, seed, index, count)
            assert sum(sums.values()) == count
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, sums, threshold)
                got = _batch_hits(rounds, seed, index, count, threshold)
                assert got == expected, (seed, count, index, threshold)

    def test_rows_past_int64_are_weighed_exactly(self, monkeypatch):
        # 4*lcm >= 2**62 in the first two, and 4*lcm just under 2**62 in the
        # third: no drawn row violates, and an all-ones row has V = 3*lcm,
        # C = 2 exactly on the bound, so it violates only when non-strict;
        # one unit off in any weight would move it
        cases = [
            (32771, 32779, 32783, 32789),
            (5, 1048573, 1048571, 1048559),
            (1, 1048573, 1048571, 1048559),
        ]
        for rounds in cases:
            assert (4 * math.lcm(*rounds) >= 2**62) == (rounds[0] != 1)
            for threshold in (STRICT, NON_STRICT):
                assert _batch_hits(rounds, 13, 0, 15, threshold) == 0

        class AllOnes:
            def __init__(self, seed):
                pass

            def getrandbits(self, width):
                return (1 << width) - 1

        monkeypatch.setattr(montecarlo.random, "Random", AllOnes)
        for rounds in cases:
            assert _batch_hits(rounds, 13, 0, 3, STRICT) == 0
            assert _batch_hits(rounds, 13, 0, 3, NON_STRICT) == 3

    def test_rows_on_both_sides_of_16_rounds(self):
        # (4,4,4,4), which stream 3 drew as bit planes, and (4,4,4,5), which
        # stream 2 drew as words, are drawn and counted by the same rule
        for rounds in ((4, 4, 4, 4), (4, 4, 4, 5)):
            sums = plane_replay_sums(rounds, 13, 0, 4096)
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, sums, threshold)
                assert _batch_hits(rounds, 13, 0, 4096, threshold) == expected, (rounds, threshold)

    def test_a_huge_row_goes_straight_to_counting(self, monkeypatch):
        # a row of 10**12 rounds is drawn plane by plane, each plane at most
        # MAX_BATCH_TRIALS bits: the first holds MAX_BATCH_TRIALS lanes of
        # one trial, and nothing of the row's length is built before it is
        # counted.  The trial settles on that plane, so nothing more is
        # drawn.  All-ones planes put it on the non-strict bound at the
        # channel's last round, so it does not settle, and its next planes
        # are as wide; the stand-in stops that draw, which would take
        # minutes
        class Stopped(Exception):
            pass

        widths = []

        class Recorded(random.Random):
            all_ones = False

            def getrandbits(self, width):
                widths.append(width)
                if len(widths) > 8:
                    raise Stopped
                return (1 << width) - 1 if self.all_ones else super().getrandbits(width)

        monkeypatch.setattr(montecarlo.random, "Random", Recorded)
        _batch_hits((1, 1, 1, 10**12), 13, 0, 1, STRICT)
        assert widths == [1, 1, 1, MAX_BATCH_TRIALS]
        widths.clear()
        Recorded.all_ones = True
        with pytest.raises(Stopped):
            _batch_hits((1, 1, 1, 10**12), 13, 0, 1, NON_STRICT)
        assert widths == [1, 1, 1] + [MAX_BATCH_TRIALS] * 6

    def test_a_batch_draws_its_last_channel_until_every_trial_settles(self, monkeypatch):
        # in a full batch of (1,1,1,2000) the first three channels decide
        # every trial but those a run of 34 equal rounds leaves on a bound,
        # so the batch draws 37 of its 2003 rounds; the 1000-round third
        # channel of (1,1,1000,1000) leaves trials on both sides of a
        # bound, so that batch draws every round
        drawn = []

        class Counted(random.Random):
            def getrandbits(self, width):
                drawn.append(width)
                return super().getrandbits(width)

        monkeypatch.setattr(montecarlo.random, "Random", Counted)
        for rounds, settles in (((1, 1, 1, 2000), True), ((1, 1, 1000, 1000), False)):
            bits = MAX_BATCH_TRIALS * sum(rounds)
            for threshold in (STRICT, NON_STRICT):
                drawn.clear()
                _batch_hits(rounds, 42, 0, MAX_BATCH_TRIALS, threshold)
                assert sum(drawn) < bits / 20 if settles else sum(drawn) == bits, (rounds, threshold)

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

    def test_full_batches_draw_stream_3s_planes(self):
        # a full batch has one round a plane, drawn in stream 3's order, so
        # its hits are stream 3's, recorded from it at seed 13, batch 1
        recorded = {
            (1, 1, 1, 1): (8274, 40926),
            (2, 2, 2, 2): (4471, 19015),
            (3, 5, 7, 1): (7232, 7238),
            (4, 4, 4, 4): (1404, 4962),
            (1, 2, 4, 8): (7965, 11993),
        }
        for rounds, hits in recorded.items():
            got = tuple(_batch_hits(rounds, 13, 1, MAX_BATCH_TRIALS, th) for th in (STRICT, NON_STRICT))
            assert got == hits, rounds

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
            pytest.param(
                (4, 4, 4, 4), NON_STRICT, 1, [MAX_BATCH_TRIALS] * 200 + [3392], id="partial-last-batch"
            ),
            pytest.param((1, 1, 1, 100000), STRICT, 100003, [MAX_BATCH_TRIALS] * 200, id="settling-row"),
        ],
    )
    def test_batches_pool_and_spread_as_binomials(self, rounds, threshold, seed, counts):
        # Batch b draws ``counts[b]`` trials from its own stream.  The pooled
        # hits lie within |z| <= 5 of exact p, and the dispersion index
        # sum_b (h_b - c_b*p)**2 / (c_b*p*(1 - p)), about chi-squared with one
        # degree a batch, within |z| <= 5 of its mean.  Batches that share a
        # stream fail it, and so does one extra hit in 2048 trials, which
        # the single runs above do not see.
        config = ExperimentConfig(rounds)
        p = violation_count(config, threshold) / 2**config.total
        hits = [_batch_hits(rounds, seed, b, count, threshold) for b, count in enumerate(counts)]
        pooled = (sum(hits) - sum(counts) * p) / math.sqrt(sum(counts) * p * (1 - p))
        dispersion = sum((h - c * p) ** 2 / (c * p * (1 - p)) for h, c in zip(hits, counts))
        spread = (dispersion - len(counts)) / math.sqrt(2 * len(counts))
        assert abs(pooled) <= 5 and abs(spread) <= 5, (pooled, spread)


class TestSlicedViolations:
    """``_sliced_violations`` on planes that hold every possible row once,
    row r as trial r, against the correlation of each row, decoded bit by bit."""

    @pytest.mark.parametrize(
        "rounds",
        [r for r in itertools.product(range(1, 5), repeat=4) if sum(r) <= 7],
    )
    def test_every_row_of_every_short_config(self, rounds):
        offsets = [sum(rounds[:k]) for k in range(4)]
        rows = range(1 << sum(rounds))
        planes = [sum(1 << row for row in rows if row >> j & 1) for j in range(sum(rounds))]
        ones = (1 << len(rows)) - 1
        for threshold in (STRICT, NON_STRICT):
            table = _sliced_violations(sliced_counts(planes, rounds, ones), rounds, threshold, ones)
            assert table >> len(rows) == 0
            for row in rows:
                correlation = sum(
                    sign * Fraction(2 * bin((row >> o) & ((1 << n) - 1)).count("1") - n, n)
                    for sign, o, n in zip((1, -1, 1, 1), offsets, rounds)
                )
                verdict = bool(table >> row & 1)
                assert verdict == is_violation(correlation, threshold), (rounds, threshold, row)

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
            assert _sliced_violations(counts, rounds, STRICT, 1) == 0, rounds
            assert _sliced_violations(counts, rounds, NON_STRICT, 1) == 1, rounds


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

    def test_worker_count_does_not_change_the_result(self):
        # both runs are several batches, the last one short
        for rounds, trials, workers in (
            ((1, 1, 1, 1), 300_000, 4),
            ((1, 1, 1000, 1000), 3 * MAX_BATCH_TRIALS + 7, 2),
        ):
            config = ExperimentConfig(rounds)
            assert -(-trials // MAX_BATCH_TRIALS) >= 4
            sequential = estimate_violation_probability(config, trials, seed=3, threshold=STRICT)
            parallel = estimate_violation_probability(
                config, trials, seed=3, threshold=STRICT, workers=workers
            )
            assert sequential == parallel
            assert sequential.stream == STREAM_VERSION == 4

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
            pytest.param((2, 2, 2, 2), 4_000_000, 42, 282079, 1156789, id="2-2-2-2"),
            pytest.param((4, 4, 4, 4), 200_000, 7, 4296, 15390, id="4-4-4-4"),
            pytest.param((4, 4, 4, 5), 200_000, 7, 8244, 9767, id="4-4-4-5"),
            pytest.param((1, 1, 1000, 1000), 50_000, 42, 12235, 12670, id="1-1-1000-1000"),
        ],
    )
    def test_pinned_hit_counts(self, rounds, trials, seed, strict, nonstrict):
        # recorded under stream 4, each equal to the plane replay of its
        # batches.  The short rows' counts are stream 3's too: their full
        # batches draw stream 3's planes, and their last batch's trial count
        # is a multiple of the generator's 32-bit words, so its lanes hold
        # the bits stream 3 drew one plane per round.  A change to these
        # values is a new stream and needs a new STREAM_VERSION
        assert STREAM_VERSION == 4
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
        assert warm == hits == 282079
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
            expected = replay_hits(rounds, 13, 0, 4, threshold)
            assert _batch_hits(rounds, 13, 0, 4, threshold) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the shares fork only where os.fork exists")
class TestWorkers:
    """The forked shares of a run at more than one worker.  Each test pins
    the usable CPUs, so that the share count does not depend on the
    machine, and forks at most two children."""

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
        trials = batches * MAX_BATCH_TRIALS
        result = estimate_violation_probability(self.CONFIG, trials, seed=3, workers=workers)
        assert len(calls) == forks
        assert result == estimate_violation_probability(self.CONFIG, trials, seed=3)

    @pytest.mark.parametrize("why", ["no-fork", "second-thread"])
    def test_one_share_without_fork_or_beside_a_live_thread(self, monkeypatch, why):
        pin_cpus(monkeypatch, 4)
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
