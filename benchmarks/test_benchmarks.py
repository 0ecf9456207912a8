"""Tests of the benchmark's own pure helpers.

Run from the repository root: python3 -m pytest benchmarks
"""

import random
import statistics
from fractions import Fraction

import pytest

import checks
import stats
import workloads

REF = checks.load_reference()


class TestTail:
    def test_leaves_exactly_ten_samples_above(self):
        samples = list(range(1, 101))
        random.Random(0).shuffle(samples)
        percentile, value, count = stats.tail(samples)
        assert (percentile, value, count) == (90.0, 90, 100)
        assert sum(1 for s in samples if s > value) == 10

    def test_percentile_follows_sample_count(self):
        percentile, value, count = stats.tail(range(36))
        assert count == 36 and value == 25
        assert percentile == pytest.approx(100 * 26 / 36)

    def test_too_few_samples_fall_back_to_median(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)

    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
        q1, median, q3 = stats.quartiles(values)
        assert stats.spread(values) == pytest.approx((q3 - q1) / median)
        assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _span(start, end, parent=None):
    return {"start": start, "end": end, "parent": parent}


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span(0, 10), _span(1, 3, 0), _span(5, 6, 0), _span(1.5, 2, 1)]
        self_time = stats.self_times(spans)
        assert self_time[0] == pytest.approx(7.0)
        assert self_time[1] == pytest.approx(1.5)
        assert self_time[2] == pytest.approx(1.0)
        assert self_time[3] == pytest.approx(0.5)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [_span(0, 10), _span(2, 6, 0), _span(4, 8, 0), _span(9, 12, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(10 - 6 - 1)


class TestCostSpread:
    def test_proportional_cost_model_gives_one(self):
        assert stats.cost_spread([1.0, 2.0, 4.0], [10, 20, 40]) == pytest.approx(1.0)

    def test_spread_is_max_over_min_rate(self):
        assert stats.cost_spread([1.0, 1.0], [1, 100]) == pytest.approx(100.0)


class TestCompare:
    METRICS = [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "layer", "unit": "s", "better": "lower"},
    ]

    def _verdicts(self, base, new):
        return {row["metric"]: row.get("verdict") for row in stats.compare(base, new, self.METRICS)}

    def test_regression_within_and_beyond_bound(self):
        base = {("w", "t"): [1.0, 1.0, 1.0], ("w", "r"): [1.0, 1.0, 1.0], ("w", "layer"): [1.0]}
        new = {("w", "t"): [1.05, 1.05, 1.05], ("w", "r"): [0.8, 0.8, 0.8], ("w", "layer"): [9.0]}
        assert self._verdicts(base, new) == {"t": "ok", "r": "REGRESSED", "layer": None}

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        base = {("w", "t"): [1.0, 1.5, 2.0, 2.5]}
        assert self._verdicts(base, {("w", "t"): [1.0, 1.5, 2.0, 2.5]})["t"] == "unresolved"
        assert self._verdicts(base, {("w", "t"): [0.5, 0.6, 0.7, 0.9]})["t"] == "ok"

    def test_single_set_judges_spread_against_a_third_of_the_bound(self):
        steady = {("w", "t"): [1.0, 1.01, 1.02, 1.0]}
        noisy = {("w", "t"): [1.0, 1.1, 1.2, 0.9]}
        assert self._verdicts(steady, None)["t"] == "steady"
        assert self._verdicts(noisy, None)["t"] == "noisy"


class TestSweepComparison:
    def _reference(self):
        return [dict(row) for row in REF["sweep"]["sweep"]]

    def test_identical_output_passes(self):
        assert checks.compare_sweep(self._reference(), self._reference(), "equal") == []

    def test_float_within_tolerance_passes_and_beyond_fails(self):
        rows = self._reference()
        value = float(rows[3]["p_analytic"])
        rows[3]["p_analytic"] = repr(value * (1 + 1e-14))
        assert checks.compare_sweep(self._reference(), rows, "equal") == []
        rows[3]["p_analytic"] = repr(value * (1 + 1e-9))
        assert len(checks.compare_sweep(self._reference(), rows, "equal")) == 1

    def test_empty_exact_cell_may_gain_only_the_exact_value(self):
        rows = self._reference()
        row = next(r for r in rows if r["N"] == "32")
        want = checks.sweep_exact(1, 8, checks.STRICT)
        row["p_exact_strict"] = str(want)
        row["p_exact_strict_decimal"] = repr(float(want))
        assert checks.compare_sweep(self._reference(), rows, "equal") == []
        row["p_exact_strict"] = str(want + Fraction(1, 2**32))
        assert len(checks.compare_sweep(self._reference(), rows, "equal")) == 1

    def test_empty_cell_outside_exact_columns_may_not_fill(self):
        rows = self._reference()
        rows[0]["error"] = "oops"
        assert len(checks.compare_sweep(self._reference(), rows, "equal")) == 1

    def test_missing_row_fails(self):
        assert checks.compare_sweep(self._reference(), self._reference()[1:], "equal")


class TestSweepExactOracle:
    @pytest.mark.parametrize(
        "rounds, threshold",
        [
            ((1, 1, 1, 1), "strict"),
            ((1, 1, 1, 1), "non-strict"),
            ((2, 2, 2, 2), "strict"),
            ((3, 3, 3, 3), "non-strict"),
            ((50, 50, 50, 50), "strict"),
            ((99, 99, 99, 99), "strict"),
            ((99, 99, 99, 99), "non-strict"),
            ((9, 90, 90, 90), "strict"),
        ],
    )
    def test_matches_recorded_exact_values(self, rounds, threshold):
        weight = rounds[1] // rounds[0]
        want = Fraction(REF["exact"][checks.exact_key(rounds, threshold)])
        assert checks.sweep_exact(weight, rounds[0], threshold) == want

    def test_matches_recorded_interval_columns(self):
        for row in REF["sweep"]["sweep --intervals"]:
            if row["p_exact_strict"]:
                unit = int(row["n1"])
                assert str(checks.sweep_exact(1, unit, "strict")) == row["p_exact_strict"]
                assert str(checks.sweep_exact(1, unit, "non-strict")) == row["p_exact_nonstrict"]


class TestOutputChecks:
    def test_exact_csv_and_json(self):
        csv_cmd = workloads.exact((2, 2, 2, 2), group=2)
        assert checks.check_output(csv_cmd, "method,threshold,N,value,value_decimal\nexact,strict,8,9/128,0.0703125\n", REF) is None
        wrong = "method,threshold,N,value,value_decimal\nexact,strict,8,9/127,0.0703125\n"
        assert checks.check_output(csv_cmd, wrong, REF)
        json_cmd = workloads.exact((1, 1, 1, 1), "non-strict", group=2, fmt="json")
        text = '[\n  {"threshold": "non-strict", "value": "5/8", "value_decimal": 0.625}\n]\n'
        assert checks.check_output(json_cmd, text, REF) is None

    def test_approx_tolerance(self):
        command = workloads.approx((25, 25, 25, 25), group=1)
        value = checks.erfc_tail((25, 25, 25, 25))
        assert checks.check_output(command, f"value_decimal\n{value!r}\n", REF) is None
        assert checks.check_output(command, f"value_decimal\n{value * 1.001!r}\n", REF)

    def test_mc_z_score(self):
        command = workloads.mc((2, 2, 2, 2), 10_000, group=3)
        p = 9 / 128
        sd = (10_000 * p * (1 - p)) ** 0.5
        good = round(10_000 * p + 4 * sd)
        bad = round(10_000 * p + 6 * sd)
        assert checks.check_output(command, f"trials,hits\n10000,{good}\n", REF) is None
        assert checks.check_output(command, f"trials,hits\n10000,{bad}\n", REF)

    def test_unreadable_output_is_a_failure(self):
        assert checks.check_output(workloads.exact((2, 2, 2, 2), group=2), "", REF)

    def test_pairs_must_agree(self):
        w1 = workloads.mc((1, 1, 1000, 1000), 100, group=2, pair="p")
        w2 = workloads.mc((1, 1, 1000, 1000), 100, group=3, workers=2, pair="p")
        same = [(w1, "trials,hits\n100,25\n"), (w2, "trials,hits\n100,25\n")]
        differ = [(w1, "trials,hits\n100,25\n"), (w2, "trials,hits\n100,26\n")]
        assert checks.check_pairs(same) == []
        assert len(checks.check_pairs(differ)) == 1


class TestWorkloads:
    def test_pass_is_a_function_of_the_seed(self):
        workload = workloads.WORKLOADS["cli-small"]
        first = workload.make_pass(random.Random("cli-small/7"))
        again = workload.make_pass(random.Random("cli-small/7"))
        other = workload.make_pass(random.Random("cli-small/8"))
        assert first == again
        assert first != other
        assert sorted(c.argv for c in first) == sorted(c.argv for c in other)

    def test_pairs_share_a_seed_and_others_do_not(self):
        commands = workloads.WORKLOADS["mc-heavy"].make_pass(random.Random(1))
        paired = {c.seed for c in commands if c.pair}
        unpaired = [c.seed for c in commands if not c.pair]
        assert len(paired) == 1
        assert len(set(unpaired)) == len(unpaired)
        assert paired.isdisjoint(unpaired)

    def test_every_checked_config_has_a_reference(self):
        for command in workloads.all_commands():
            if command.kind in ("exact", "mc"):
                assert checks.exact_key(command.rounds, command.threshold) in REF["exact"]
            if command.kind == "sweep":
                assert checks.sweep_key(command.argv) in REF["sweep"]
