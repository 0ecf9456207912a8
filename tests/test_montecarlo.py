import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshprob.errors import InvalidConfigError
from chshprob.model import (
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    exact_violation_probability,
    is_violation,
)
from chshprob import montecarlo
from chshprob.montecarlo import (
    STREAM_VERSION,
    _batch_hits,
    _batch_trials,
    _row_words,
    estimate_violation_probability,
    wilson_interval,
)
from chshprob.walks import walk_pmf


def replay_channel_sums(rounds, seed, batch_index, count):
    """Per-trial channel sums (m1, m2, m3, m4) redrawn from batch substream
    ``batch_index``: each trial's row is the next ceil(sum(n_k) / 64) raw
    64-bit words read as one little-endian integer, channel k owns the n_k
    bits after channels 1..k-1, bit 1 a +1 round and bit 0 a -1 round."""
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
    """Violations among the replayed trials, counted one at a time in exact
    rationals, with the minus sign on the (1,2) channel."""
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
            (m,) = replay_channel_sums(rounds, 3, index, 1)
            strict = _batch_hits(rounds, 3, index, 1, STRICT)
            nonstrict = _batch_hits(rounds, 3, index, 1, NON_STRICT)
            correlation = m[0] - m[1] + m[2] + m[3]
            assert strict == (abs(correlation) == 4), m
            assert nonstrict == (abs(correlation) >= 2), m
            seen.add(m)
        assert (1, -1, 1, 1) in seen and (1, 1, 1, 1) in seen

    def test_consumes_exactly_the_round_total_in_order(self):
        # the replay reads each trial's n_k bits per channel in channel order;
        # agreement pins that layout, the channel order and the (1,2) sign.
        # The last three put channel edges on, just past and across word
        # boundaries and make rows of several words.
        for rounds in (
            (1, 1, 1, 1),
            (2, 3, 4, 5),
            (3, 5, 7, 2),
            (63, 1, 64, 2),
            (64, 64, 64, 64),
            (1, 1, 1000, 1000),
        ):
            for threshold in (STRICT, NON_STRICT):
                for index in (0, 1):
                    expected = replay_hits(rounds, 13, index, 2048, threshold)
                    got = _batch_hits(rounds, 13, index, 2048, threshold)
                    assert got == expected, (rounds, threshold, index)

    def test_rows_past_the_word_budget_are_drawn_in_pieces(self, monkeypatch):
        # a 32-word row under a 5-word budget: one trial per draw, each row in
        # 5-word pieces; sequential draws read the same stream as one draw
        rounds = (1, 1, 1000, 1000)
        assert _row_words(rounds) == 32
        whole = {th: _batch_hits(rounds, 13, 0, 64, th) for th in (STRICT, NON_STRICT)}
        monkeypatch.setattr(montecarlo, "WORD_BUDGET", 5)
        assert _batch_trials(rounds) == 1
        for threshold in (STRICT, NON_STRICT):
            expected = replay_hits(rounds, 13, 0, 64, threshold)
            assert _batch_hits(rounds, 13, 0, 64, threshold) == expected == whole[threshold]

    def test_channel_sums_follow_walk_distribution(self):
        # frequency check of each channel endpoint against the exact pmf
        trials = 20_000
        sums = replay_channel_sums((2, 2, 2, 2), 2024, 0, trials)
        pmf = walk_pmf(2)
        for m in (-2, 0, 2):
            p = float(pmf.mass[m])
            sigma = math.sqrt(p * (1 - p) / trials)
            for k in range(4):
                frequency = sum(1 for trial in sums if trial[k] == m) / trials
                assert abs(frequency - p) <= 3 * sigma, (m, k)


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

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidConfigError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidConfigError):
            wilson_interval(6, 5)


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
            assert sequential.stream == STREAM_VERSION == 2

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
        with pytest.raises(InvalidConfigError):
            estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), 0, seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(InvalidConfigError):
            estimate_violation_probability(ExperimentConfig((1, 1, 1, 1)), 10, seed=1, workers=workers)

    def test_negative_seed_accepted_and_stable(self):
        config = ExperimentConfig((1, 1, 1, 1))
        a = estimate_violation_probability(config, 50_000, seed=-1)
        b = estimate_violation_probability(config, 50_000, seed=-1)
        assert a == b

    def test_bigint_accumulator_matches_replay(self):
        # 4*lcm >= 2**62 here, so sums past int64 accumulate as Python integers
        rounds = (2, 1048573, 1048571, 1048559)
        assert 4 * math.lcm(*rounds) >= 2**62
        for threshold in (STRICT, NON_STRICT):
            expected = replay_hits(rounds, 13, 0, 4, threshold)
            assert _batch_hits(rounds, 13, 0, 4, threshold) == expected
