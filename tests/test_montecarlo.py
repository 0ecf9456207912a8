import itertools
import math
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshprob.cli import main
from chshprob.errors import InvalidConfigError, LimitError
from chshprob.model import (
    CHANNEL_SIGNS,
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    binomial_row,
    exact_violation_probability,
    is_violation,
)
from chshprob import montecarlo
from chshprob.montecarlo import (
    MAX_BATCH_TRIALS,
    RUN_WORD_BUDGET,
    SHORT_ROW_ROUNDS,
    STREAM_VERSION,
    WORD_BUDGET,
    _batch_hits,
    _batch_trials,
    _row_words,
    _sliced_violations,
    estimate_violation_probability,
    wilson_interval,
)
from oracles import one_long_channel_probability, plane_replay_hits, plane_replay_sums


class ShareFailed(Exception):
    pass


def replay_channel_sums(rounds, seed, batch_index, count):
    """Per-trial channel sums (m1, m2, m3, m4) of a long row redrawn from
    batch substream ``batch_index``: each trial's row is the next
    ceil(sum(n_k) / 64) raw 64-bit words read as one little-endian integer,
    channel k owns the n_k bits after channels 1..k-1, bit 1 a +1 round and
    bit 0 a -1 round."""
    bit_generator = np.random.default_rng(
        np.random.SeedSequence(entropy=seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(batch_index,))
    ).bit_generator
    words = -(-sum(rounds) // 64)
    raw = bit_generator.random_raw((count, words)).astype("<u8")
    offsets = [sum(rounds[:k]) for k in range(len(rounds))]
    sums = []
    for t in range(count):
        row = int.from_bytes(raw[t].tobytes(), "little")
        sums.append(
            tuple(
                2 * ((row >> o) & ((1 << n) - 1)).bit_count() - n
                for o, n in zip(offsets, rounds)
            )
        )
    return sums


def replay_hits(rounds, seed, batch_index, count, threshold):
    """Violations among the replayed long-row trials, counted one at a time
    in exact rationals, with the minus sign on the (1,2) channel."""
    n1, n2, n3, n4 = rounds
    hits = 0
    for m1, m2, m3, m4 in replay_channel_sums(rounds, seed, batch_index, count):
        correlation = Fraction(m1, n1) - Fraction(m2, n2) + Fraction(m3, n3) + Fraction(m4, n4)
        hits += is_violation(correlation, threshold)
    return hits


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
        # the replay reads each long row's n_k bits per channel in channel
        # order; agreement pins that layout, the channel order and the (1,2)
        # sign.  The last three put channel edges on, just past and across
        # word boundaries and make rows of several words.
        cases = [
            (rounds, 13, 2048)
            for rounds in ((3, 5, 7, 2), (63, 1, 64, 2), (64, 64, 64, 64), (1, 1, 1000, 1000))
        ]
        # the shortest long row, one round past the bit-sliced ones, keeps
        # stream 2's words at the seed range's ends
        assert sum((4, 4, 4, 5)) == SHORT_ROW_ROUNDS + 1
        cases += [
            ((4, 4, 4, 5), seed, count)
            for seed in (0, -1, 2**63 - 1, -(2**63))
            for count in (1, 33, 4096)
        ]
        for rounds, seed, count in cases:
            for threshold in (STRICT, NON_STRICT):
                for index in (0, 1):
                    expected = replay_hits(rounds, seed, index, count, threshold)
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
        # stream 3: each round a plane of MT19937 bits, counted bit-sliced.
        # Counts about a 32-bit word of the generator, and a full batch, at
        # the seed range's ends, both thresholds and the first two batches
        assert sum(rounds) <= SHORT_ROW_ROUNDS
        for seed, count, index in itertools.product(
            (0, -1, 2**63 - 1, -(2**63)), (1, 31, 32, 33, MAX_BATCH_TRIALS), (0, 1)
        ):
            sums = plane_replay_sums(rounds, seed, index, count)
            assert sum(sums.values()) == count
            for threshold in (STRICT, NON_STRICT):
                expected = plane_replay_hits(rounds, sums, threshold)
                got = _batch_hits(rounds, seed, index, count, threshold)
                assert got == expected, (seed, count, index, threshold)

    @pytest.mark.parametrize(
        "rounds",
        [
            pytest.param((2, 3, 5, 54), id="three-edges-in-one-full-word"),
            pytest.param((1, 1, 1, 62), id="last-word-holds-one-bit"),
            pytest.param((1, 1, 62, 64), id="edge-on-a-word-boundary"),
            pytest.param((64, 1, 1, 62), id="first-channel-fills-a-word"),
        ],
    )
    def test_split_words_are_weighed_as_the_replay_counts(self, rounds):
        # rows past the bit-sliced ones whose words are split in each way
        # the weighing cuts them: several edges in one word, a last word of
        # one used bit, an edge on a word boundary, and a first whole word
        assert sum(rounds) > 16
        for threshold in (STRICT, NON_STRICT):
            for index in (0, 1):
                expected = replay_hits(rounds, 13, index, 2048, threshold)
                got = _batch_hits(rounds, 13, index, 2048, threshold)
                assert got == expected, (rounds, threshold, index)

    def test_python_draw_weighs_rows_past_int64_exactly(self, monkeypatch):
        # 4*lcm >= 2**62 in a row of 2049 words, where _layout's weights are
        # Python integers: no drawn row violates, and an all-ones row weighs
        # 2*lcm, which is exactly on the bound, so it violates only when
        # non-strict; one unit off in any weight would move it
        rounds = (32771, 32779, 32783, 32789)
        assert 4 * math.lcm(*rounds) >= 2**62 and _row_words(rounds) == 2049
        for threshold in (STRICT, NON_STRICT):
            assert _batch_hits(rounds, 13, 0, 15, threshold) == 0

        class AllOnes:
            def __init__(self, seed_sequence):
                pass

            def random_raw(self, shape):
                return np.full(shape, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(np.random, "PCG64", AllOnes)
        assert _batch_hits(rounds, 13, 0, 3, STRICT) == 0
        assert _batch_hits(rounds, 13, 0, 3, NON_STRICT) == 3

    def test_rows_past_the_word_budget_are_drawn_in_pieces(self, monkeypatch):
        # a 32-word row under a 20-word budget and 5-word groups: one trial
        # per batch and per draw, each row in 5-word pieces; sequential
        # draws read the same stream as one draw
        rounds = (1, 1, 1000, 1000)
        assert _row_words(rounds) == 32
        whole = {th: _batch_hits(rounds, 13, 0, 64, th) for th in (STRICT, NON_STRICT)}
        shapes = []
        weigh = montecarlo._weigh

        def recording(bits, *args):
            shapes.append(bits.shape)
            return weigh(bits, *args)

        monkeypatch.setattr(montecarlo, "_weigh", recording)
        monkeypatch.setattr(montecarlo, "WORD_BUDGET", 20)
        monkeypatch.setattr(montecarlo, "GROUP_WORDS", 5)
        assert _batch_trials(rounds) == 1
        for threshold in (STRICT, NON_STRICT):
            shapes.clear()
            expected = replay_hits(rounds, 13, 0, 64, threshold)
            assert _batch_hits(rounds, 13, 0, 64, threshold) == expected == whole[threshold]
            assert shapes == ([(1, 5)] * 6 + [(1, 2)]) * 64

    def test_short_rows_are_looked_up_and_longer_rows_counted(self, monkeypatch):
        # (4,4,4,4), of SHORT_ROW_ROUNDS rounds, is counted bit-sliced and
        # weighs nothing; (4,4,4,5) weighs its drawn rows
        assert SHORT_ROW_ROUNDS == 16
        shapes = []
        weigh = montecarlo._weigh

        def recording(bits, *args):
            shapes.append(bits.shape)
            return weigh(bits, *args)

        monkeypatch.setattr(montecarlo, "_weigh", recording)
        for rounds, counted in (((4, 4, 4, 4), []), ((4, 4, 4, 5), [(4096, 1)])):
            shapes.clear()
            for threshold in (STRICT, NON_STRICT):
                if counted:
                    expected = replay_hits(rounds, 13, 0, 4096, threshold)
                else:
                    expected = plane_replay_hits(rounds, plane_replay_sums(rounds, 13, 0, 4096), threshold)
                assert _batch_hits(rounds, 13, 0, 4096, threshold) == expected, (rounds, threshold)
            assert shapes == counted * 2, rounds

    def test_a_huge_row_goes_straight_to_counting(self, monkeypatch):
        # the width test must not build 2**width: here that is 10**12 bits
        class Counted(Exception):
            pass

        def counted(*args):
            raise Counted

        monkeypatch.setattr(montecarlo, "_weigh", counted)
        with pytest.raises(Counted):
            _batch_hits((1, 1, 1, 10**12), 13, 0, 1, STRICT)

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
    """Each way the sampler reads rows, checked against the exact
    probability within |z| <= 5, the benchmark's bound, at fixed seeds."""

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds, trials, seed",
        [
            pytest.param((4, 4, 4, 4), 1_000_000, 16, id="bit-sliced-16-rounds"),
            pytest.param((3, 5, 7, 1), 1_000_000, 105, id="bit-sliced-lcm-105"),
            pytest.param((1, 1, 1, 61), 200_000, 61, id="one-word-64-rounds"),
            pytest.param((3, 5, 7, 40), 200_000, 55, id="one-word-55-rounds"),
            pytest.param((3, 5, 61, 70), 100_000, 139, id="three-words"),
            pytest.param((1, 1, 1000, 1000), 50_000, 2002, id="thirty-two-words"),
            pytest.param((1, 1, 1, 8_388_928), 64, 8, id="pieces"),
        ],
    )
    def test_hits_lie_within_five_sigma_of_exact(self, rounds, trials, seed, threshold):
        words = _row_words(rounds)
        bounds = list(itertools.accumulate(rounds[:-1]))
        if sum(rounds) <= SHORT_ROW_ROUNDS:
            # counted bit-sliced
            assert words == 1
        elif words == 1:
            # weighed, not counted bit-sliced
            assert sum(rounds) > SHORT_ROW_ROUNDS
        elif words <= montecarlo.GROUP_WORDS:
            assert any(bound % 64 for bound in bounds)
        else:
            # one row is longer than a group, so it is drawn in pieces
            assert words > montecarlo.GROUP_WORDS
        if rounds[:3] == (1, 1, 1):
            p = one_long_channel_probability(rounds[3], threshold)
        else:
            p = exact_violation_probability(ExperimentConfig(rounds), threshold).value
        hits = estimate_violation_probability(ExperimentConfig(rounds), trials, seed, threshold).hits
        z = (hits - trials * p) / math.sqrt(trials * p * (1 - p))
        assert abs(z) <= 5, (hits, float(trials * p), z)


class TestViolationTable:
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
        for threshold in (STRICT, NON_STRICT):
            table = _sliced_violations(planes, rounds, threshold, (1 << len(rows)) - 1)
            assert table >> len(rows) == 0
            for row in rows:
                correlation = sum(
                    sign * Fraction(2 * bin((row >> o) & ((1 << n) - 1)).count("1") - n, n)
                    for sign, o, n in zip((1, -1, 1, 1), offsets, rounds)
                )
                verdict = bool(table >> row & 1)
                assert verdict == is_violation(correlation, threshold), (rounds, threshold, row)

    def test_every_short_shape_sums_within_its_columns(self):
        # V <= 4*lcm has (4*lcm).bit_length() bits, and the adders' carries
        # must stay in as many columns for every row of at most
        # SHORT_ROW_ROUNDS rounds; one past them would raise IndexError
        shapes = [
            r for r in itertools.product(range(1, SHORT_ROW_ROUNDS - 2), repeat=4)
            if sum(r) <= SHORT_ROW_ROUNDS
        ]
        assert len(shapes) == 1820
        for rounds in shapes:
            all_set = [1] * sum(rounds)
            # one trial, every round +1: C = 2, so only the non-strict test counts it
            assert _sliced_violations(all_set, rounds, STRICT, 1) == 0, rounds
            assert _sliced_violations(all_set, rounds, NON_STRICT, 1) == 1, rounds


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
        bad = ((5, 0), (6, 5), (True, 2.5), (1, True), (1.0, 4), (1, 4.0), (np.int64(1), 4))
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
        # (1,1,1000,1000) has 32-word rows and 16384-trial batches, so 50k
        # trials run four batches across the workers
        for rounds, trials, workers in (
            ((1, 1, 1, 1), 300_000, 4),
            ((1, 1, 1000, 1000), 50_000, 2),
        ):
            config = ExperimentConfig(rounds)
            assert -(-trials // _batch_trials(rounds)) >= 4
            sequential = estimate_violation_probability(config, trials, seed=3, threshold=STRICT)
            parallel = estimate_violation_probability(
                config, trials, seed=3, threshold=STRICT, workers=workers
            )
            assert sequential == parallel
            assert sequential.stream == STREAM_VERSION == 3

    def test_pool_never_outgrows_the_batches_or_the_cores(self, monkeypatch):
        # a stand-in for threading.Thread that records every thread started;
        # the pool is the same on every platform
        started = []

        class RecordedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", RecordedThread)
        # the calling thread runs one share, so a pool of k starts k - 1
        # threads; a run of short rows is a pool of one at any worker count
        for rounds, batches, workers, cpus, threads in (
            ((1, 1, 1, 61), 2, 5000, 64, 1),
            ((1, 1, 1, 61), 10, 5000, 3, 2),
            ((1, 1, 1, 61), 10, 5000, None, 0),
            ((1, 1, 1, 61), 10, 2, 64, 1),
            *(
                (rounds, 10, workers, 64, 0)
                for rounds in ((2, 2, 2, 2), (4, 4, 4, 4))
                for workers in (2, 4, 5000)
            ),
        ):
            config = ExperimentConfig(rounds)
            batch = _batch_trials(rounds)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
            sequential = estimate_violation_probability(config, batches * batch, seed=7)
            started.clear()
            pooled = estimate_violation_probability(
                config, batches * batch, seed=7, workers=workers
            )
            assert len(started) == threads, (rounds, batches, workers, cpus)
            assert not any(thread.is_alive() for thread in started)
            assert pooled == sequential

    def test_a_thread_that_cannot_start_fails_the_run_and_every_thread_ends(self, monkeypatch):
        # at 3 workers the run starts two threads; the second one's start
        # raises, as when the process is out of threads, so the run stops
        # and joins the first and raises that error
        started = []

        class SecondThreadFails(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", SecondThreadFails)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        config = ExperimentConfig((1, 1, 1, 61))
        trials = 3 * _batch_trials(config.rounds)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="can't start new thread"):
            estimate_violation_probability(config, trials, seed=7, workers=3)
        assert len(started) == 1 and not started[0].is_alive()
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize(
        "failing, error",
        [(None, None), (0, ShareFailed), (1, ShareFailed)],
        ids=["none", "calling-thread", "pool-thread"],
    )
    def test_a_failed_share_fails_the_run_and_every_thread_ends(self, monkeypatch, failing, error):
        # at 2 workers batch i belongs to share i % 2: share 0 runs in the
        # calling thread and share 1 in a pool thread; a share whose batch
        # raises fails the run with its own exception, and every pool
        # thread has ended when the run returns or raises
        batch_hits = montecarlo._batch_hits

        def batch(rounds, seed, index, count, threshold):
            if index % 2 == failing:
                raise ShareFailed(index % 2)
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        config = ExperimentConfig((1, 1, 1, 61))
        trials = 2 * _batch_trials(config.rounds)
        sequential = estimate_violation_probability(config, trials, seed=7)
        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        before = set(threading.enumerate())
        if error is None:
            assert estimate_violation_probability(config, trials, seed=7, workers=2) == sequential
        else:
            with pytest.raises(error, match=str(failing)):
                estimate_violation_probability(config, trials, seed=7, workers=2)
        assert set(threading.enumerate()) == before

    def test_failed_pool_thread_gives_one_error_line(self, monkeypatch, capsys):
        # batch 1, share 1's at 2 workers, raises in its pool thread; the
        # run fails with that error on one error line and exit 1, and the
        # thread has ended
        batch_hits = montecarlo._batch_hits

        def batch(rounds, seed, index, count, threshold):
            if index == 1:
                raise InvalidConfigError("share 1 failed")
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_batch_hits", batch)
        trials = 2 * _batch_trials((1, 1, 1, 61))
        before = set(threading.enumerate())
        code = main(["mc", "1", "1", "1", "61", "--trials", str(trials), "--workers", "2"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: share 1 failed\n")
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_share_stops_the_other_shares_between_batches(self, monkeypatch, capsys, workers):
        # batch i belongs to share i % workers; share 1's first batch raises
        # as soon as share 0 is inside its first batch, and every other
        # batch waits until the run's stop event is set; so share 0 must
        # stop after that batch and share 2 (at 3 workers) by its next one,
        # rather than draw the 40 or more of the 120 batches each has
        batch_hits = montecarlo._batch_hits
        drawing = threading.Event()
        stops = []
        ran = []

        class RecordedEvent(threading.Event):
            # every Event made during the run; the run makes its stop event
            # before it starts a thread, so the first is the run's
            def __init__(self):
                super().__init__()
                stops.append(self)

        def counted_batch(rounds, seed, index, count, threshold):
            if index % workers == 1:
                assert drawing.wait(timeout=30)
                raise InvalidConfigError("share 1 failed")
            ran.append(index % workers)
            if index == 0:
                drawing.set()
            assert stops[0].wait(timeout=30)
            return batch_hits(rounds, seed, index, count, threshold)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: workers)
        monkeypatch.setattr(montecarlo.threading, "Event", RecordedEvent)
        monkeypatch.setattr(montecarlo, "_batch_hits", counted_batch)
        trials = 120 * _batch_trials((1, 1, 1, 61))
        before = set(threading.enumerate())
        started = time.monotonic()
        code = main(["mc", "1", "1", "1", "61", "--trials", str(trials), "--workers", str(workers)])
        assert time.monotonic() - started < 30
        assert code == 1
        assert capsys.readouterr() == ("", "error: share 1 failed\n")
        assert ran.count(0) == 1 and ran.count(2) <= 1 and len(ran) == ran.count(0) + ran.count(2)
        assert set(threading.enumerate()) == before

    def test_concurrent_pooled_runs_match_their_serial_results(self, monkeypatch):
        # two pooled runs at once, each from its own thread, share no state:
        # each gives the hits it gives alone and serially
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        runs = {
            (1, 1, 1, 61): (4 * MAX_BATCH_TRIALS + 5, 11),
            (1, 1, 1000, 1000): (3 * _batch_trials((1, 1, 1000, 1000)) + 7, 12),
        }
        serial = {
            rounds: estimate_violation_probability(ExperimentConfig(rounds), trials, seed=seed)
            for rounds, (trials, seed) in runs.items()
        }
        results = {}
        barrier = threading.Barrier(len(runs))

        def run(rounds, trials, seed):
            barrier.wait(timeout=30)
            results[rounds] = estimate_violation_probability(
                ExperimentConfig(rounds), trials, seed=seed, workers=3
            )

        threads = [
            threading.Thread(target=run, args=(rounds, *args)) for rounds, args in runs.items()
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    def test_only_a_small_run_without_numpy_draws_in_python(self, monkeypatch):
        # without numpy, no run of long rows is drawn, however few its
        # words: one trial, and one batch of 2**15 one-word rows
        config = ExperimentConfig((1, 1, 1, 61))
        assert _row_words(config.rounds) == 1
        # numpy counts as not loaded, and importing it fails
        monkeypatch.setitem(sys.modules, "numpy", None)
        for trials in (1, 2**15):
            with pytest.raises(ImportError):
                estimate_violation_probability(config, trials, seed=5)

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
        for trials in (0, 2.5, True, np.int64(10)):
            with pytest.raises(InvalidConfigError, match="trials"):
                estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), trials, seed=1)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, np.int64(2)])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(InvalidConfigError):
            estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), 10, seed=1, workers=workers)

    @pytest.mark.parametrize(
        "seed",
        [2**64 + 42, 42 - 2**64, -(2**63) - 1, 2**64, 2**63, 2**64 - 1, 1.5, True, np.int64(42)],
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stream_2_hit_counts(self, workers):
        # the long rows' counts were recorded from the stream-2 sampler and
        # stream 3 keeps them; the short rows' were recorded under stream 3
        # and each matched the plane replay.  A change to these values is a
        # new stream and needs a new STREAM_VERSION
        assert STREAM_VERSION == 3
        for rounds, trials, seed, strict, nonstrict in (
            ((2, 2, 2, 2), 4_000_000, 42, 282079, 1156789),
            ((4, 4, 4, 4), 200_000, 7, 4296, 15390),
            ((4, 4, 4, 5), 200_000, 7, 8273, 9766),
            ((1, 1, 1000, 1000), 50_000, 42, 12193, 12650),
        ):
            config = ExperimentConfig(rounds)
            for threshold, hits in ((STRICT, strict), (NON_STRICT, nonstrict)):
                result = estimate_violation_probability(config, trials, seed, threshold, workers=workers)
                assert result.hits == hits, (rounds, threshold)

    @pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts as Linux reports them")
    def test_short_rows_fault_in_no_pages_once_warm(self):
        # a batch's planes and sums are a few dozen 8 KiB integers; were
        # they given back to the system after every batch, as a second
        # batch-sized numpy temporary once was, the run would fault them in
        # again each batch, about 13.6k minor faults per run of this size
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
        # the first one is drawn, by one worker or by a pool, which only
        # long rows start
        def first_batch(*args):
            raise RuntimeError("first batch reached")

        monkeypatch.setattr(montecarlo, "_batch_hits", first_batch)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
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

    @pytest.mark.parametrize("rounds", [(1, 1, 1000, 1000), (1, 1, 1, 8_388_928)], ids=["rows", "pieces"])
    def test_a_long_row_batch_holds_one_group_of_draws(self, rounds):
        # a batch of long rows is drawn and weighed a group of GROUP_WORDS
        # words (128 KiB) at a time, so its peak stays near one group
        # however many rows the batch has or however long one row is
        assert montecarlo.GROUP_WORDS == 1 << 14
        count = _batch_trials(rounds)
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
            ((1, 1, 1, 1), RUN_WORD_BUDGET),
            ((1, 1, 1, 61), RUN_WORD_BUDGET),
            ((1, 1, 1, 62), RUN_WORD_BUDGET // 2),
        ],
        ids=["short", "one-word", "two-word"],
    )
    def test_word_budget_refuses_before_any_draw(self, monkeypatch, rounds, trials):
        # a row of up to 64 rounds is one word and of 65 two, so each run
        # here costs exactly the budget: it reaches its first draw, and one
        # trial more is refused before that draw
        def first_batch(*args):
            raise RuntimeError("first batch reached")

        monkeypatch.setattr(montecarlo, "_batch_hits", first_batch)
        config = ExperimentConfig(rounds)
        assert trials * _row_words(rounds) == RUN_WORD_BUDGET == 2**33
        with pytest.raises(RuntimeError, match="first batch reached"):
            estimate_violation_probability(config, trials, seed=1, workers=2)
        with pytest.raises(LimitError, match=f"draws {RUN_WORD_BUDGET + _row_words(rounds)} words"):
            estimate_violation_probability(config, trials + 1, seed=1, workers=2)

    def test_bigint_accumulator_matches_replay(self):
        # 4*lcm >= 2**62 here, so sums past int64 accumulate as Python integers
        rounds = (2, 1048573, 1048571, 1048559)
        assert 4 * math.lcm(*rounds) >= 2**62
        for threshold in (STRICT, NON_STRICT):
            expected = replay_hits(rounds, 13, 0, 4, threshold)
            assert _batch_hits(rounds, 13, 0, 4, threshold) == expected

    @pytest.mark.parametrize(
        "rounds, int64",
        [((1, 1048573, 1048571, 1048559), True), ((5, 1048573, 1048571, 1048559), False)],
        ids=["int64-just-under-2**62", "python-integers"],
    )
    def test_rows_are_weighed_exactly_on_both_sides_of_the_int64_bound(
        self, monkeypatch, rounds, int64
    ):
        # no drawn row of these configs violates, so hit counts cannot show a
        # wrong weight.  The distance W - lcm each drawn row is compared at
        # must equal the replayed one, and the all-ones row must weigh 2*lcm,
        # which is past int64 for the second config: weights turn from int64
        # to Python integers at 4*lcm = 2**62.  4096-word groups cut each row
        # into twelve pieces, most of them inside one channel's whole words
        scale = math.lcm(*rounds)
        assert (4 * scale < 2**62) == int64 and (2 * scale < 2**63) == int64
        distances = []
        violates = montecarlo._violates

        def recording(distance, *args):
            distances.extend(distance.tolist())
            return violates(distance, *args)

        monkeypatch.setattr(montecarlo, "_violates", recording)
        monkeypatch.setattr(montecarlo, "GROUP_WORDS", 4096)
        _batch_hits(rounds, 13, 0, 4, STRICT)
        # a +1 round of channel k weighs sign_k * lcm / n_k, and m_k + n_k = 2 * ones_k
        expected = [
            sum(sign * (scale // n) * (m + n) // 2 for sign, n, m in zip(CHANNEL_SIGNS, rounds, ms))
            - scale
            for ms in replay_channel_sums(rounds, 13, 0, 4)
        ]
        assert distances == expected
        words = _row_words(rounds)
        for fill, weight in ((0, 0), (2**64 - 1, 2 * scale)):
            bits = np.full((1, words), fill, dtype=np.uint64)
            assert montecarlo._weigh(bits, montecarlo._layout(rounds, 0, words)).tolist() == [weight]
