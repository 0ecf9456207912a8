import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chshprob import exact, model
from chshprob.errors import InvalidConfigError, LimitError
from chshprob.exact import binomial_row
from chshprob.model import gaussian_tail_probability
from chshprob.walks import walk_pmf
from oracles import (
    brute_force_walk_distribution,
    erfc_series,
    gaussian_density,
    one_long_channel_probability,
)


class TestWalkPmf:
    def test_single_step(self):
        pmf = walk_pmf(1)
        assert pmf == {-1: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_two_steps(self):
        # direct evaluation, cross-checked against all 4 step sequences below
        pmf = walk_pmf(2)
        assert pmf == {-2: Fraction(1, 4), 0: Fraction(1, 2), 2: Fraction(1, 4)}

    def test_four_steps_center(self):
        assert walk_pmf(4)[0] == Fraction(6, 16)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exhaustive_enumeration(self, n):
        assert walk_pmf(n) == brute_force_walk_distribution(n)

    @given(n=st.integers(min_value=1, max_value=200))
    def test_mass_sums_to_one(self, n):
        assert sum(walk_pmf(n).values()) == 1

    @given(n=st.integers(min_value=1, max_value=200))
    def test_symmetric(self, n):
        pmf = walk_pmf(n)
        for m, p in pmf.items():
            assert pmf[-m] == p

    @given(n=st.integers(min_value=1, max_value=200))
    def test_support_has_walk_parity(self, n):
        pmf = walk_pmf(n)
        assert all(abs(m) <= n and (m - n) % 2 == 0 for m in pmf)
        # off-parity displacements are absent
        assert n - 1 not in pmf

    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidConfigError):
            walk_pmf(0)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(InvalidConfigError):
            walk_pmf(-3)
        with pytest.raises(InvalidConfigError):
            walk_pmf(2.0)


class TestBinomialRow:
    def test_rejects_zero_steps(self):
        with pytest.raises(InvalidConfigError):
            binomial_row(0)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(InvalidConfigError):
            binomial_row(-3)
        with pytest.raises(InvalidConfigError):
            binomial_row(2.0)

    def test_step_limit(self, monkeypatch):
        # the exact route refuses over-budget work before it builds any row:
        # a very long channel, or four large distinct counts
        def no_rows(n):
            raise AssertionError(f"binomial_row({n}) built before the refusal")

        monkeypatch.setattr(exact, "binomial_row", no_rows)
        for rounds in ((10**6, 1, 1, 1), (10**9, 1, 1, 1), (1001, 1002, 1003, 1004)):
            with pytest.raises(LimitError, match="over the budget"):
                exact.exact_violation_probability(model.ExperimentConfig(rounds))
        monkeypatch.undo()
        # one long channel alone is cheap, and accepted past 4096 steps: with
        # one round in each other channel, |C| > 2 needs -m2 + m3 + m4 = +-3
        # (2 of 8 patterns) and then every m1 but the one that cancels it
        n = 4097
        value = exact.exact_violation_probability(model.ExperimentConfig((n, 1, 1, 1))).value
        assert value == one_long_channel_probability(n, model.STRICT)

    @given(n=st.integers(min_value=1, max_value=4096))
    # the row mirrors its first half: odd and even lengths, the shortest first
    @example(n=1)
    @example(n=2)
    @example(n=3)
    @example(n=4)
    @example(n=4095)
    @settings(max_examples=10, deadline=None)
    def test_binomial_row_matches_comb(self, n):
        row = binomial_row(n)
        assert row == [math.comb(n, i) for i in range(n + 1)]
        assert sum(row) == 2**n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_exhaustive_enumeration(self, n):
        # entry i counts the paths of i up-steps, whose endpoint is 2i - n
        pmf = {2 * i - n: Fraction(paths, 2**n) for i, paths in enumerate(binomial_row(n))}
        assert pmf == brute_force_walk_distribution(n)

    @given(n=st.integers(min_value=1, max_value=200))
    def test_mass_sums_to_one(self, n):
        assert Fraction(sum(binomial_row(n)), 2**n) == 1

    @given(n=st.integers(min_value=1, max_value=200))
    def test_symmetric(self, n):
        # endpoints m and -m are reached by equally many paths
        row = binomial_row(n)
        assert row == row[::-1]


class TestGaussianDensity:
    def test_peak_single_step(self):
        assert gaussian_density(1, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_peak_four_steps(self):
        assert gaussian_density(4, 0.0) == pytest.approx(1 / math.sqrt(8 * math.pi), rel=1e-15)

    @given(
        n=st.integers(min_value=1, max_value=1000),
        x=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_even_in_x(self, n, x):
        assert gaussian_density(n, x) == gaussian_density(n, -x)

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            gaussian_density(0, 1.0)

    @pytest.mark.parametrize("n", [64, 256])
    def test_approximates_pmf_within_five_percent(self, n):
        # factor 2 converts density to lattice mass (support spacing is 2)
        row = binomial_row(n)
        reach = 3 * math.isqrt(n)
        checked = 0
        for m in range(-reach, reach + 1):
            if (m - n) % 2:
                continue
            mass = row[(n + m) // 2] / 2**n
            approx = 2.0 * gaussian_density(n, float(m))
            assert abs(approx - mass) <= 0.05 * mass, (n, m)
            checked += 1
        assert checked >= reach  # the comparison actually covered the window


class TestErfc:
    def test_at_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_known_point(self):
        # value pinned from the exact-rational series oracle
        assert math.erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)

    def test_half_variance_point(self):
        assert math.erfc(math.sqrt(0.5)) == pytest.approx(0.3173105078629141, rel=1e-13)

    def test_against_series_oracle_grid(self):
        for j in range(25):
            x = Fraction(5 * j, 24)
            reference, bound = erfc_series(x)
            assert bound < Fraction(1, 10**25)
            value = math.erfc(float(x))
            assert abs(value - float(reference)) <= 1e-12 * float(reference), x

    def test_reflection_identity(self):
        for j in range(-40, 41):
            x = j / 4.0
            assert abs(math.erfc(x) + math.erfc(-x) - 2.0) <= 1e-12

    @given(x=st.floats(min_value=-10, max_value=10))
    def test_reflection_identity_property(self, x):
        assert abs(math.erfc(x) + math.erfc(-x) - 2.0) <= 1e-12

    def test_strictly_decreasing_on_grid(self):
        # strict decrease where doubles can resolve it; past |x| ~ 6 the value
        # saturates at 2.0 or underflows and only non-increase is meaningful
        values = [math.erfc(x / 8.0) for x in range(-40, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        wide = [math.erfc(x / 8.0) for x in range(-120, 121)]
        assert all(a >= b for a, b in zip(wide, wide[1:]))

    def test_large_argument_underflows_cleanly(self):
        assert 0.0 <= math.erfc(30.0) < 1e-300


class TestHalfSpace:
    """The tail formula is erfc of the origin-to-boundary distance
    2 / sqrt(sum_k 2/n_k) in isotropized coordinates."""

    def test_unit_example(self):
        # coefficients sqrt(2/n_k) = 1 put the plane sum z_k = 2 at distance 1
        assert gaussian_tail_probability((2, 2, 2, 2)) == pytest.approx(math.erfc(1.0), rel=1e-15)

    def test_chsh_single_round_distance(self):
        assert gaussian_tail_probability((1, 1, 1, 1)) == pytest.approx(
            math.erfc(math.sqrt(0.5)), rel=1e-14
        )

    def test_chsh_25_round_distance(self):
        assert gaussian_tail_probability((25,) * 4) == pytest.approx(
            math.erfc(math.sqrt(12.5)), rel=1e-14
        )

    @given(
        rounds=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=6),
        seed=st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, rounds, seed):
        shuffled = list(rounds)
        seed.shuffle(shuffled)
        assert gaussian_tail_probability(tuple(shuffled)) == pytest.approx(
            gaussian_tail_probability(tuple(rounds)), rel=1e-12, abs=1e-300
        )
