import itertools
import math
import timeit
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chshprob import exact
from chshprob.cli import default_totals, split_rounds
from chshprob.errors import CorruptRecordError, InvalidConfigError, LimitError
from chshprob.model import (
    DEFAULT_ENUMERATION_BUDGET,
    MAXIMAL_VIOLATION_RECORDS,
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    MeasurementRecord,
    RoundTally,
    analytic_violation_probability,
    chsh_correlation,
    gaussian_tail_probability,
    is_violation,
    tally,
)
from chshprob.exact import (
    binomial_row,
    enumeration_cost,
    exact_violation_probability,
    format_dyadic,
    violation_count,
    _distinct_sums,
    _plan,
    _product,
)
from oracles import (
    brute_force_violation_probability,
    gaussian_halfspace_oracle,
    int_digit_limit,
    large_deviation_exponent,
    lattice_violation_probability,
    one_long_channel_probability,
)

small_rounds = st.tuples(*[st.integers(min_value=1, max_value=4)] * 4)


@st.composite
def grouped_rounds(draw):
    """Four counts with exactly k distinct values for a drawn k in 1..4, so
    the exact kernel's plans with 1, 2, 3 and 4 groups of equal counts
    all occur."""
    k = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.integers(min_value=1, max_value=10), min_size=k, max_size=k, unique=True))
    extra = draw(st.lists(st.sampled_from(pool), min_size=4 - k, max_size=4 - k))
    return tuple(draw(st.permutations(pool + extra)))


class TestConfig:
    def test_total(self):
        assert ExperimentConfig((1, 2, 3, 4)).total == 10

    @pytest.mark.parametrize("rounds", [(0, 1, 1, 1), (1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, -2), (1, 1, 1, 2.0)])
    def test_rejects_bad_rounds(self, rounds):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(rounds)


class TestRecordsAndTally:
    def test_record_requires_product_consistency(self):
        with pytest.raises(CorruptRecordError):
            MeasurementRecord(time_index=1, a=1, b=1, c=-1, i=1, j=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time_index=0, a=1, b=1, c=1, i=1, j=1),
            dict(time_index=1, a=2, b=1, c=2, i=1, j=1),
            dict(time_index=1, a=1, b=0, c=0, i=1, j=1),
            dict(time_index=1, a=1, b=1, c=1, i=3, j=1),
            dict(time_index=1, a=1, b=1, c=1, i=1, j=0),
        ],
    )
    def test_record_rejects_out_of_domain_fields(self, kwargs):
        with pytest.raises(CorruptRecordError):
            MeasurementRecord(**kwargs)

    @pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
    @pytest.mark.parametrize("field", ["time_index", "a", "b", "c", "i", "j"])
    def test_record_rejects_non_integer_fields(self, field, value):
        # True and 1.0 equal 1, so only the type check catches them
        with pytest.raises(CorruptRecordError, match=field):
            MeasurementRecord(**{**dict(time_index=1, a=1, b=1, c=1, i=1, j=1), field: value})

    def test_builtin_rows_tally(self):
        counts = tally(MAXIMAL_VIOLATION_RECORDS)
        assert counts.m == (1, -1, 1, 1)
        assert counts.n == (1, 1, 1, 1)
        assert (counts.m[1], counts.n[1]) == (-1, 1)

    def test_empty_tally(self):
        counts = tally([])
        assert counts.m == (0, 0, 0, 0)
        assert counts.n == (0, 0, 0, 0)

    def test_cancellation_within_channel(self):
        records = [
            MeasurementRecord(time_index=1, a=1, b=1, c=1, i=1, j=1),
            MeasurementRecord(time_index=2, a=1, b=-1, c=-1, i=1, j=1),
        ]
        counts = tally(records)
        assert (counts.m[0], counts.n[0]) == (0, 2)
        assert counts.n == (2, 0, 0, 0)

    def test_tally_rejects_corrupt_row(self):
        fake = SimpleNamespace(time_index=1, a=1, b=1, c=-1, i=1, j=1)
        with pytest.raises(CorruptRecordError):
            tally([fake])

    @pytest.mark.parametrize(
        "m,n",
        [
            ((2, 0, 0, 0), (1, 1, 1, 1)),
            ((1, 0, 0, 0), (2, 1, 1, 1)),
            ((1, 1, 1), (1, 1, 1)),
            ((1, -1, 1, 1), (-1, 1, 1, 1)),
        ],
    )
    def test_tally_invariants_enforced(self, m, n):
        with pytest.raises(InvalidConfigError):
            RoundTally(m=m, n=n)

    @pytest.mark.parametrize(
        "m,n",
        [
            ((1.0, -1, 1, 1), (1, 1, 1, 1)),
            ((True, -1, 1, 1), (1, 1, 1, 1)),
            ((1, -1, 1, 1), (1.0, 1, 1, 1)),
            ((1, -1, 1, 1), (True, 1, 1, 1)),
        ],
        ids=["float-m", "bool-m", "float-n", "bool-n"],
    )
    def test_tally_rejects_non_integer_entries(self, m, n):
        with pytest.raises(InvalidConfigError, match="integers"):
            RoundTally(m=m, n=n)


class TestCorrelation:
    def test_builtin_rows_reach_four(self):
        assert chsh_correlation(tally(MAXIMAL_VIOLATION_RECORDS)) == 4
        replay = timeit.repeat(lambda: chsh_correlation(tally(MAXIMAL_VIOLATION_RECORDS)), number=1, repeat=25)
        assert min(replay) < 1e-3

    def test_zero_sums(self):
        assert chsh_correlation(RoundTally(m=(0, 0, 0, 0), n=(2, 4, 6, 8))) == 0

    def test_two_round_maximum(self):
        counts = RoundTally(m=(2, -2, 2, 2), n=(2, 2, 2, 2))
        assert chsh_correlation(counts) == 4

    def test_result_is_exact(self):
        counts = RoundTally(m=(1, 1, 1, 1), n=(3, 3, 3, 3))
        assert chsh_correlation(counts) == Fraction(2, 3)

    def test_all_heads_lands_on_boundary(self):
        counts = RoundTally(m=(2, 3, 4, 5), n=(2, 3, 4, 5))
        correlation = chsh_correlation(counts)
        assert correlation == 2
        assert not is_violation(correlation, STRICT)
        assert is_violation(correlation, NON_STRICT)

    def test_rejects_empty_channel(self):
        with pytest.raises(InvalidConfigError):
            chsh_correlation(RoundTally(m=(1, 0, 1, 1), n=(1, 0, 1, 1)))


class TestViolationPredicate:
    def test_maximal_value(self):
        assert is_violation(4, STRICT)

    def test_boundary(self):
        assert not is_violation(2, STRICT)
        assert is_violation(2, NON_STRICT)
        assert not is_violation(Fraction(-2), STRICT)
        assert is_violation(Fraction(-2), NON_STRICT)

    @given(delta=st.fractions(min_value=Fraction(1, 10**12), max_value=4))
    def test_any_excess_is_strict(self, delta):
        assert is_violation(-2 - delta, STRICT)
        assert is_violation(2 + delta, STRICT)

    def test_exact_comparison_near_boundary(self):
        # far below float resolution around 2.0; rational comparison must see it
        assert is_violation(Fraction(2) + Fraction(1, 10**40), STRICT)
        assert not is_violation(Fraction(2) - Fraction(1, 10**40), STRICT)

    def test_rejects_unknown_threshold(self):
        with pytest.raises(InvalidConfigError):
            is_violation(3, "loose")


class TestExactProbability:
    def test_single_round_strict(self):
        config = ExperimentConfig((1, 1, 1, 1))
        result = exact_violation_probability(config, STRICT)
        assert result.value == Fraction(1, 8)
        assert isinstance(result.value, Fraction)
        assert result.method == "exact"
        runs = timeit.repeat(lambda: exact_violation_probability(config, STRICT), number=1, repeat=25)
        assert min(runs) < 1e-3

    def test_model_still_answers_the_names_the_benchmark_reaches(self):
        from chshprob import model

        assert model.exact_violation_probability is exact_violation_probability
        assert model.enumeration_cost is enumeration_cost
        with pytest.raises(AttributeError):
            model.binomial_row

    def test_single_round_nonstrict(self):
        # 6 of the 16 sign patterns sit at C = 0; the rest reach |C| >= 2
        result = exact_violation_probability(ExperimentConfig((1, 1, 1, 1)), NON_STRICT)
        assert result.value == Fraction(10, 16)

    def test_two_round_denominator(self):
        value = exact_violation_probability(ExperimentConfig((2, 2, 2, 2)), STRICT).value
        assert value == Fraction(9, 128)
        assert (1 << 8) % value.denominator == 0

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds",
        [
            (1, 1, 1, 1),
            (2, 2, 2, 2),
            (1, 2, 3, 4),
            (2, 1, 1, 2),
            (3, 3, 1, 1),
            (1, 1, 2, 5),
            (1, 1, 2, 3),
            (3, 3, 3, 3),
            (4, 4, 4, 4),
            (1, 3, 3, 5),
        ],
    )
    def test_matches_raw_sequence_enumeration(self, rounds, threshold):
        expected = brute_force_violation_probability(rounds, threshold)
        value = exact_violation_probability(ExperimentConfig(rounds), threshold).value
        assert value == expected
        assert lattice_violation_probability(rounds, threshold) == expected

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds, label",
        [
            ((1, 2, 3, 4), "steps"),
            ((2, 3, 4, 5), "steps"),
            ((2, 4, 6, 8), "steps"),
            ((3, 5, 7, 9), "steps"),
            ((6, 7, 8, 9), "steps"),
            ((1, 1, 1, 30), "tails"),
            ((4, 4, 4, 4), "tails"),
            ((2, 5, 5, 9), "tails"),
            ((7, 7, 8, 8), "tails"),
            ((2, 3, 5, 20), "tails"),
            ((1, 1, 20, 21), "tails"),
        ],
    )
    def test_each_kernel_side_matches_lattice_sum(self, rounds, label, threshold):
        # both regimes of the kernel's threshold runs: "steps", four
        # distinct counts with an outer part and a middle table longer than
        # the row, so a run spans many middle sums, about one run per row
        # step; "tails", one to three groups or a long row beside short
        # channels, where a run is often one middle sum; in (1, 1, 20, 21)
        # the weights of every mirrored pair of thresholds cancel exactly at
        # their shared prefix point, and at k = 11 the lower point k - 1 and
        # the upper point L - k coincide
        expected = lattice_violation_probability(rounds, threshold)
        assert exact_violation_probability(ExperimentConfig(rounds), threshold).value == expected

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds",
        [(1, 1, 1, 4096), (2, 3, 5, 2000), (4, 4, 4, 4), (60, 70, 80, 90), (626, 627, 627, 628), (5, 5, 7, 9)],
    )
    def test_bisections_stay_within_the_priced_visits(self, rounds, threshold, monkeypatch):
        # the price's visits term: per outer sum one bisection to the first
        # violating middle sum and at most one per threshold run, of which
        # there are at most min(middle sums, L + 1)
        calls = []

        def counted(*args):
            calls.append(None)
            return bisect_left(*args)

        monkeypatch.setattr(exact, "bisect_left", counted)
        outer, middle, (length, _), _ = _plan(rounds)
        exact_violation_probability(ExperimentConfig(rounds), threshold)
        runs = min(_distinct_sums(middle), length + 1)
        assert 0 < len(calls) <= _distinct_sums(outer) * (runs + 1)

    @given(
        rounds=st.tuples(
            *[st.integers(min_value=1, max_value=8)] * 3, st.integers(min_value=1, max_value=24)
        )
        .flatmap(st.permutations)
        .map(tuple)
    )
    # one plan of each run regime: a middle table past the row, and a long row
    @example(rounds=(5, 6, 7, 8))
    @example(rounds=(1, 2, 3, 24))
    @settings(max_examples=25, deadline=None)
    def test_matches_lattice_sum(self, rounds):
        # beyond the brute force's N <= 16: one channel up to 24 rounds
        config = ExperimentConfig(rounds)
        for threshold in (STRICT, NON_STRICT):
            expected = lattice_violation_probability(rounds, threshold)
            assert exact_violation_probability(config, threshold).value == expected

    @given(rounds=grouped_rounds())
    @example(rounds=(3, 3, 3, 3))
    @example(rounds=(4, 6, 8, 10))
    @example(rounds=(2, 7, 7, 7))
    @example(rounds=(5, 1, 5, 2))
    @example(rounds=(4, 1, 6, 9))
    @example(rounds=(2, 3, 3, 5))
    @example(rounds=(1, 4, 4, 9))
    @settings(max_examples=25, deadline=None)
    def test_repeated_counts_match_lattice_sum(self, rounds):
        # repeated counts merge into one walk per distinct count; a plan of
        # three groups, as in (2, 3, 3, 5), streams the shortest
        config = ExperimentConfig(rounds)
        for threshold in (STRICT, NON_STRICT):
            expected = lattice_violation_probability(rounds, threshold)
            assert exact_violation_probability(config, threshold).value == expected

    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds",
        [pytest.param((n,) * 4, id=str(n)) for n in (5, 20, 99)]
        + [pytest.param((u, 10 * u, 10 * u, 10 * u), id=f"{u}-{10 * u}x3") for u in (1, 4)],
    )
    def test_equal_split_is_one_long_walk(self, rounds, threshold):
        # channels (1,2), (2,1), (2,2) all have v rounds, so with v = k*u and
        # u rounds in channel (1,1), v*C = k*m1 + M where M is the endpoint
        # 2j - 3v of one 3v-step walk (the (1,2) sign flips a symmetric
        # channel) and m1 = 2i - u
        u, v = rounds[0], rounds[1]
        k = v // u
        bound = 2 * v + (threshold == STRICT)
        count = sum(
            math.comb(u, i) * math.comb(3 * v, j)
            for i in range(u + 1)
            for j in range(3 * v + 1)
            if abs(k * (2 * i - u) + 2 * j - 3 * v) >= bound
        )
        value = exact_violation_probability(ExperimentConfig(rounds), threshold).value
        assert value == Fraction(count, 2 ** (u + 3 * v))

    @given(rounds=small_rounds)
    @settings(max_examples=25, deadline=None)
    def test_strict_never_exceeds_nonstrict_and_stays_dyadic(self, rounds):
        config = ExperimentConfig(rounds)
        strict = exact_violation_probability(config, STRICT).value
        nonstrict = exact_violation_probability(config, NON_STRICT).value
        assert 0 <= strict <= nonstrict <= 1
        # probabilities are integers over 2^N
        assert (1 << config.total) % strict.denominator == 0
        assert (1 << config.total) % nonstrict.denominator == 0

    @given(rounds=small_rounds)
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, rounds):
        config = ExperimentConfig(rounds)
        strict = exact_violation_probability(config, STRICT).value
        for permuted in itertools.permutations(rounds):
            assert exact_violation_probability(ExperimentConfig(permuted), STRICT).value == strict

    def test_budget_rejection(self):
        # four large distinct counts: two big tables of wide integers
        with pytest.raises(LimitError, match="over the budget"):
            exact_violation_probability(ExperimentConfig((1001, 1002, 1003, 1004)))
        with pytest.raises(LimitError):
            exact_violation_probability(ExperimentConfig((3, 3, 3, 3)), budget=100)
        # the budget is inclusive: a config costing exactly the budget runs
        config = ExperimentConfig((2, 3, 3, 5))
        cost = enumeration_cost(config)
        assert exact_violation_probability(config, budget=cost).value == lattice_violation_probability(
            config.rounds, STRICT
        )
        with pytest.raises(LimitError):
            exact_violation_probability(config, budget=cost - 1)
        # the price counts printing the result, quadratic in its width: the
        # 10**6-bit result of (1, 1, 1, 10**6) (seconds to print) is over
        # the default budget, though its kernel sums two row tails; the
        # 16384-step walk of (4096,)*4 (about 0.01 s) is within it
        assert enumeration_cost(ExperimentConfig((1, 1, 1, 10**6))) > DEFAULT_ENUMERATION_BUDGET
        assert enumeration_cost(ExperimentConfig((4096,) * 4)) <= DEFAULT_ENUMERATION_BUDGET

    @pytest.mark.parametrize(
        "rounds, streamed",
        [((5, 5, 5, 5), []), ((1, 1, 1, 30), []), ((1, 3, 3, 5), [1]), ((2, 3, 5, 20), [2])],
        ids=["1-group", "2-group", "3-group", "4-group"],
    )
    def test_the_shortest_side_group_is_streamed_once_there_are_two(self, rounds, streamed):
        # the groups beside the longest split in half: the shorter half is
        # streamed and the rest tabulated, so no table joins two groups
        # unless there are four
        outer, _, _, _ = _plan(rounds)
        assert [n for n, _ in outer] == streamed

    @pytest.mark.parametrize(
        "rounds",
        [
            (1000, 1001, 1001, 1002),
            (39, 3861, 13995, 13995),
            (38863, 1041, 21, 38863),
            (10516, 10516, 10683, 10683),
        ],
        ids=["table", "points", "sums", "half-row"],
    )
    def test_plans_are_priced_as_the_kernel_runs_them(self, rounds):
        # each is over the budget if the price counts a term the kernel does
        # not pay: a table of both side groups, 1.43e8; a wide product per
        # threshold up to L, 7.37e7 for the streamed plan; one per (outer,
        # middle) visit, though k follows the side sum s + t and 10425 of
        # the 22924 pairs repeat a sum, 9.58e7; and one per threshold where
        # mirrored thresholds share a prefix point, 1.22e8
        assert enumeration_cost(ExperimentConfig(rounds)) <= DEFAULT_ENUMERATION_BUDGET

    def test_a_three_group_plan_tabulates_one_group(self):
        # the table holds the 103 sums of the 102-step side group; one of
        # both side groups' up to 101 * 103 sums peaks near 1.1 MiB
        tracemalloc.start()
        try:
            violation_count(ExperimentConfig((100, 101, 101, 102)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_budget_must_be_a_non_negative_python_int(self):
        # the rule round counts follow: a float, a bool or a numpy integer
        # (here a stand-in with __index__ that is not an int) is refused, as
        # is a negative budget
        class IndexLike:
            def __index__(self):
                return 10**9

        for budget in (-1, 1e12, True, IndexLike()):
            with pytest.raises(InvalidConfigError, match="enumeration budget"):
                exact_violation_probability(ExperimentConfig((2, 2, 2, 2)), budget=budget)

    def test_wide_products_are_priced_below_the_schoolbook_past_32_words(self):
        # CPython multiplies integers of more than about 32 words by
        # Karatsuba, three half-size products for four, so the price drops a
        # quarter per halving of the shorter operand past 32 words
        assert _product(32, 32) == 32 * 32
        assert _product(32, 1000) == 32 * 1000
        assert _product(64, 64) == 64 * 64 * 3 // 4 < 64 * 64

    def test_one_long_channel_closed_form(self, monkeypatch):
        # the kernel sums two row tails for (1, 1, 1, n), also at 10**5
        # rounds, and builds no row longer than the three short channels'
        lengths = []

        def recorded(n):
            lengths.append(n)
            return binomial_row(n)

        monkeypatch.setattr(exact, "binomial_row", recorded)
        for n in (*range(1, 1001), 10**5):
            config = ExperimentConfig((1, 1, 1, n))
            for threshold in (STRICT, NON_STRICT):
                value = exact_violation_probability(config, threshold).value
                assert value == one_long_channel_probability(n, threshold), (n, threshold)
        assert lengths and max(lengths) <= 3

    def test_step_limit_rejection(self):
        # no separate step limit: the kernel walks no step along these rows
        # (reach 0), and they are refused by the price of reducing and
        # printing their result of 10**6 bits or more
        for rounds in ((10**6, 1, 1, 1), (1, 1, 1, 10**9)):
            with pytest.raises(LimitError, match="over the budget"):
                exact_violation_probability(ExperimentConfig(rounds))


class TestFormatDyadic:
    """``format_dyadic`` prints k / 2**N byte for byte as ``str`` and
    ``float`` of ``Fraction(k, 2**N)``, which the CLI printed before."""

    @staticmethod
    def via_fraction(count, bits):
        value = Fraction(count, 1 << bits)
        return str(value), float(value)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 52, 53, 54, 64, 1000, 1074, 1075, 1100])
    def test_ends_and_halves(self, bits):
        # 0 and 2**N print as integers; near 2**-1075 the float underflows
        top = 1 << bits
        for count in (0, 1, 2, 3, top // 2, top // 2 + 1, 3 * top // 4, top - 2, top - 1, top):
            assert format_dyadic(count, bits) == self.via_fraction(count, bits), count

    @given(bits=st.integers(min_value=1, max_value=300), data=st.data())
    def test_odd_and_even_counts(self, bits, data):
        count = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        for k in (count | 1, count & ~1, count << 1 if count < 1 << (bits - 1) else 0):
            assert format_dyadic(k, bits) == self.via_fraction(k, bits), k

    def test_past_the_int_digit_limit(self):
        # 2**14285 has 4301 digits, past the interpreter's default limit,
        # which is lifted here as main lifts it for its output
        with int_digit_limit():
            for bits in (14285, 20000):
                top = 1 << bits
                for count in (0, 1, 3 << 5000, top // 2 - 1, top - 1, top):
                    assert format_dyadic(count, bits) == self.via_fraction(count, bits)
            assert len(format_dyadic((1 << 14285) - 1, 14285)[0]) > 2 * 4300

    def test_prints_the_count_that_the_fraction_wraps(self):
        for rounds in ((1, 1, 1, 1), (2, 3, 5, 7), (1, 1, 300, 301)):
            config = ExperimentConfig(rounds)
            for threshold in (STRICT, NON_STRICT):
                value = exact_violation_probability(config, threshold).value
                count = violation_count(config, threshold)
                assert Fraction(count, 1 << config.total) == value
                assert format_dyadic(count, config.total) == (str(value), float(value))


class TestAnalyticProbability:
    def test_single_round(self):
        result = analytic_violation_probability(ExperimentConfig((1, 1, 1, 1)))
        assert result.value == pytest.approx(0.3173105078629141, rel=1e-13)
        assert result.method == "analytic"
        assert result.threshold == STRICT  # the continuous boundary carries no mass

    def test_25_rounds(self):
        result = analytic_violation_probability(ExperimentConfig((25, 25, 25, 25)))
        assert result.value == pytest.approx(5.7330314375838727e-07, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_equal_split_closed_form(self, n):
        value = analytic_violation_probability(ExperimentConfig((n,) * 4)).value
        assert value == pytest.approx(math.erfc(math.sqrt(n / 2)), rel=1e-12)

    @given(rounds=st.tuples(*[st.integers(min_value=1, max_value=200)] * 4))
    def test_formula_reference(self, rounds):
        value = analytic_violation_probability(ExperimentConfig(rounds)).value
        reference = math.erfc(math.sqrt(2.0 / sum(1.0 / n for n in rounds)))
        assert value == pytest.approx(reference, rel=1e-12)

    @given(rounds=st.tuples(*[st.integers(min_value=1, max_value=2**53)] * 4))
    def test_integer_counts_keep_their_float_bytes(self, rounds):
        # int / int rounds correctly, as 1.0 / float(n) does while n is exact
        # in a float, so every count below 2**53 prints the same value
        reference = math.erfc(math.sqrt(2.0 / math.fsum(1.0 / float(n) for n in rounds)))
        assert gaussian_tail_probability(rounds) == reference

    @given(
        rounds=st.tuples(*[st.integers(min_value=1, max_value=200)] * 4),
        bumps=st.tuples(*[st.integers(min_value=0, max_value=50)] * 4),
    )
    @settings(max_examples=60)
    def test_strictly_decreasing_in_every_count(self, rounds, bumps):
        if all(b == 0 for b in bumps):
            bumps = (1, 1, 1, 1)
        grown = tuple(n + b for n, b in zip(rounds, bumps))
        left = analytic_violation_probability(ExperimentConfig(rounds)).value
        right = analytic_violation_probability(ExperimentConfig(grown)).value
        if any(b > 0 for b in bumps):
            assert right < left

    def test_equal_split_maximizes_distance_at_fixed_total(self):
        # harmonic mean is largest for the even split, so the boundary sits
        # farthest away and the tail probability is smallest
        total = 4 * 31 * 7
        tails = {
            name: gaussian_tail_probability(tuple(total * w / sum(weights) for w in weights))
            for name, weights in (
                ("equal", (1, 1, 1, 1)),
                ("ratio10", (1, 10, 10, 10)),
                ("ratio100", (1, 100, 100, 100)),
            )
        }
        assert 0.0 < tails["equal"] < tails["ratio10"] < tails["ratio100"]

    # at 4 * 301 the ratio100 and equal splits are the integers (4, 400, 400, 400) and (301,) * 4
    @pytest.mark.parametrize("total", [4 * 31, 8 * 31, 16 * 31, 64 * 31, 4 * 301])
    def test_uneven_splits_violate_more_often(self, total):
        equal = gaussian_tail_probability((total / 4,) * 4)
        ratio10 = gaussian_tail_probability(tuple(total / 31 * w for w in (1, 10, 10, 10)))
        ratio100 = gaussian_tail_probability(tuple(total / 301 * w for w in (1, 100, 100, 100)))
        assert ratio100 >= ratio10 >= equal
        assert ratio10 > equal

    def test_rejects_non_positive_rounds(self):
        degenerate = [
            (1.0, 2.0, 0.0, 3.0),
            (),
            (-1.0, 1.0),
            (float("nan"), 1.0),
            (1.0, float("inf")),
            (float("-inf"), 1.0),
            # a bool is not a count, though floats are taken for continuous sweeps
            (True, 1, 1, 1),
            (1.5, 2.5, True),
        ]
        for rounds in degenerate:
            with pytest.raises(InvalidConfigError):
                gaussian_tail_probability(rounds)


class TestInterlockingRoutes:
    @pytest.mark.parametrize("total", range(4, 97, 4))
    def test_exact_brackets_analytic_for_equal_splits(self, total):
        config = ExperimentConfig((total // 4,) * 4)
        strict = exact_violation_probability(config, STRICT).value
        nonstrict = exact_violation_probability(config, NON_STRICT).value
        analytic = analytic_violation_probability(config).value
        assert float(strict) <= analytic <= float(nonstrict)

    def test_analytic_leaves_the_equal_split_bracket_at_100(self):
        # past N = 96 the Gaussian exponent undershoots the large-deviation rate
        config = ExperimentConfig((25,) * 4)
        nonstrict = exact_violation_probability(config, NON_STRICT).value
        assert analytic_violation_probability(config).value > float(nonstrict)

    @pytest.mark.parametrize("variant", ["equal", "ratio10", "ratio100"])
    def test_analytic_over_exact_grows_along_the_default_grid(self, variant):
        # compared in logarithms: exact p reaches 1e-234 on the equal grid
        log_ratios = []
        for total in default_totals(variant):
            config = ExperimentConfig(split_rounds(variant, total))
            exact = exact_violation_probability(config, NON_STRICT).value
            analytic = analytic_violation_probability(config).value
            log_ratios.append(
                math.log(analytic) - math.log(exact.numerator) + math.log(exact.denominator)
            )
        assert all(a < b for a, b in zip(log_ratios, log_ratios[1:])), log_ratios

    def test_large_deviation_exponent_of_equal_split(self):
        # every channel mean is 1/2, so R is the rate I(1/2) per round
        rate = (1.5 * math.log(1.5) + 0.5 * math.log(0.5)) / 2
        assert large_deviation_exponent((256,) * 4) == pytest.approx(1024 * rate, rel=1e-12)

    @pytest.mark.parametrize(
        "variant, threshold, low, high",
        [
            ("equal", STRICT, 0.510, 0.571),
            ("equal", NON_STRICT, 0.224, 0.378),
            ("ratio10", STRICT, 0.407, 0.436),
            ("ratio10", NON_STRICT, 0.180, 0.352),
            ("ratio100", STRICT, 0.414, 0.433),
            ("ratio100", NON_STRICT, 0.289, 0.344),
        ],
    )
    def test_exact_follows_the_large_deviation_rate(self, variant, threshold, low, high):
        # p ~ N**-c * exp(-R*N) with c near 1/2 checks exact at N in the
        # thousands, where brute force cannot reach; an error in the kernel's
        # exponent would move c by far more than the 0.03 allowed here
        for total in default_totals(variant):
            if total < 31:
                continue
            rounds = split_rounds(variant, total)
            p = exact_violation_probability(ExperimentConfig(rounds), threshold).value
            log_p = math.log(p.numerator) - math.log(p.denominator)
            c = (-log_p - large_deviation_exponent(rounds)) / math.log(total)
            assert low - 0.03 <= c <= high + 0.03, (rounds, c)

    def test_exact_follows_the_large_deviation_rate_past_the_grid(self):
        # equal splits at N = 16384 and 65536, past the default grid: the
        # strict c stays in the equal split's band above, and the non-strict
        # c, the boundary's mass added, keeps climbing from its N = 4096
        # value towards the strict one
        def c(total, threshold):
            rounds = (total // 4,) * 4
            p = exact_violation_probability(ExperimentConfig(rounds), threshold).value
            log_p = math.log(p.numerator) - math.log(p.denominator)
            return (-log_p - large_deviation_exponent(rounds)) / math.log(total)

        nonstrict = [c(total, NON_STRICT) for total in (4096, 16384, 65536)]
        assert nonstrict == sorted(nonstrict), nonstrict
        for total, with_boundary in zip((16384, 65536), nonstrict[1:]):
            strict = c(total, STRICT)
            assert 0.510 - 0.03 <= strict <= 0.571 + 0.03, (total, strict)
            assert with_boundary < strict

    @pytest.mark.parametrize(
        "rounds, seed",
        [((1, 1, 1, 1), 20260809), ((4, 4, 4, 4), 7), ((6, 1, 15, 5), 1010), ((1, 15, 13, 21), 1018)],
        ids=["1-1-1-1", "4-4-4-4", "6-1-15-5", "1-15-13-21"],
    )
    def test_halfspace_oracle_matches_analytic(self, rounds, seed):
        # an equal split cannot tell sum_k 1/n_k from 16/N; the unequal ones can
        config = ExperimentConfig(rounds)
        fraction = gaussian_halfspace_oracle(rounds, 10**6, seed=seed)
        p = analytic_violation_probability(config).value
        tolerance = 3 * math.sqrt(p * (1 - p) / 10**6)
        assert abs(fraction - p) <= tolerance

    def test_halfspace_oracle_vanishes_for_huge_counts(self):
        config = ExperimentConfig((10**6,) * 4)
        assert gaussian_halfspace_oracle(config.rounds, 10**4, seed=1) == 0.0

    def test_halfspace_oracle_deterministic(self):
        config = ExperimentConfig((2, 3, 4, 5))
        a = gaussian_halfspace_oracle(config.rounds, 10**4, seed=99)
        b = gaussian_halfspace_oracle(config.rounds, 10**4, seed=99)
        assert a == b

    def test_halfspace_oracle_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            gaussian_halfspace_oracle((1, 1, 1, 1), 9999, seed=1)
