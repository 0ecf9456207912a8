import csv
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chshprob import cli
from chshprob.cli import MC_FIELDS, SweepRequest, default_totals, main, split_rounds, sweep_rows
from chshprob.errors import InvalidConfigError
from chshprob.model import (
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    MeasurementRecord,
    analytic_violation_probability,
    chsh_correlation,
    exact_violation_probability,
    tally,
)
from oracles import one_long_channel_probability


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestToy:
    def test_human_report(self, capsys):
        code, out, _ = run_cli(capsys, "toy")
        assert code == 0
        assert "C = 4" in out
        assert "p = 1/8 = 0.125" in out
        # four rows, each contributing +1
        assert out.count("  +1\n") == 4

    def test_json_round_trips_through_the_model(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--json")
        assert code == 0
        payload = json.loads(out)
        records = [MeasurementRecord(**row) for row in payload["records"]]
        assert chsh_correlation(tally(records)) == Fraction(payload["correlation"])
        assert payload["contributions"] == [1, 1, 1, 1]
        assert payload["violation_strict"] is True
        assert Fraction(payload["probability"]["strict"]) == Fraction(1, 8)
        assert payload["probability"]["strict_decimal"] == 0.125


class TestProbabilityCommands:
    def test_exact_csv(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "1", "1", "1", "1", "--strict")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["method"] == "exact"
        assert row["threshold"] == "strict"
        assert row["N"] == "4"
        assert row["value"] == "1/8"
        assert float(row["value_decimal"]) == 0.125

    def test_exact_nonstrict_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "1", "1", "1", "1", "--nonstrict", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["threshold"] == NON_STRICT
        assert Fraction(row["value"]) == Fraction(5, 8)

    def test_exact_budget_exceeded_exits_2_and_points_to_approx(self, capsys):
        code, out, err = run_cli(capsys, "exact", "1001", "1002", "1003", "1004")
        assert code == 2
        assert out == ""
        assert "approx" in err

    def test_mc_over_the_word_budget_exits_2_before_any_draw(self, monkeypatch, capsys):
        # 10**12 rounds are 15625000001 words a trial, past the 2**33 budget
        from chshprob import montecarlo

        def no_draws(*args):
            raise AssertionError("drew before pricing the run")

        monkeypatch.setattr(montecarlo, "_batch_hits", no_draws)
        code, out, err = run_cli(capsys, "mc", "1", "1", "1", str(10**12), "--trials", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: Monte Carlo run draws 15625000001 words, over the budget 8589934592; "
            "the analytic method has no such limit",
            f"hint: chshprob approx 1 1 1 {10**12}",
        ]

    def test_exact_step_limit_exits_2(self, capsys):
        # no separate step limit: the kernel walks no step along the long
        # row, and the budget refuses the printing of the 10**6-bit result
        code, _, err = run_cli(capsys, "exact", "1000000", "1", "1", "1")
        assert code == 2
        assert "approx" in err

    def test_exact_prints_fractions_past_the_int_digit_limit(self, capsys):
        # 2**14303 has 4306 digits; (1,1,1,L) violates strictly with
        # p = (2**L - 1) / 2**(L + 2), its closed form
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            code, out, _ = run_cli(capsys, "exact", "1", "1", "1", "14300")
            assert code == 0
            (row,) = parse_csv(out)
            assert Fraction(row["value"]) == one_long_channel_probability(14300, STRICT)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_exact_custom_budget_flag(self, capsys):
        code, _, err = run_cli(capsys, "exact", "2", "2", "2", "2", "--budget", "10")
        assert code == 2

    def test_approx_value(self, capsys):
        code, out, _ = run_cli(capsys, "approx", "1", "1", "1", "1")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["value"]) == pytest.approx(0.3173105078629141, rel=1e-13)
        # repr round-trip: the printed string parses back to the same float
        assert repr(float(row["value"])) == row["value"]

    def test_approx_counts_past_float_range(self, capsys):
        # 1/10**400 underflows to 0, leaving erfc(sqrt(2/3)); with every count
        # that large the tail is 0.0
        huge = str(10**400)
        code, out, _ = run_cli(capsys, "approx", huge, "1", "1", "1")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value"] == "0.24821307898992362"
        assert row["n1"] == huge
        code, out, _ = run_cli(capsys, "approx", huge, huge, huge, huge)
        assert code == 0
        (row,) = parse_csv(out)
        assert row["value"] == "0.0"

    @pytest.mark.parametrize(
        "argv, line",
        [
            # the tail underflows: a float, printed by repr
            (
                ("approx",) + ("1000000000",) * 4,
                "analytic,strict,4000000000,1000000000,1000000000,1000000000,1000000000,0.0,0.0",
            ),
            # an exact value, printed as a fraction in lowest terms
            (("exact", "1", "1", "1", "1"), "exact,strict,4,1,1,1,1,1/8,0.125"),
            (
                ("mc", "2", "2", "2", "2", "--trials", "1000"),
                "monte-carlo,strict,8,2,2,2,2,0.066,0.066,1000,66,"
                "0.05221235045948585,0.08310927590597601,42",
            ),
        ],
        ids=["approx-underflow", "exact", "mc"],
    )
    def test_result_row_text(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == [line]

    def test_mc_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "1", "1", "1", "1", "--trials", "200000", "--seed", "42", "--strict"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["method"] == "monte-carlo"
        assert int(row["trials"]) == 200000
        assert int(row["seed"]) == 42
        assert float(row["ci_low"]) <= 0.125 <= float(row["ci_high"])
        assert float(row["ci_low"]) <= float(row["value_decimal"]) <= float(row["ci_high"])

    def test_mc_json_names_the_sampler_stream(self, capsys):
        argv = ("mc", "2", "2", "2", "2", "--trials", "5000", "--seed", "7")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["stream"] == 3
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0].split(",") == list(MC_FIELDS)
        (csv_row,) = parse_csv(out)
        assert int(csv_row["hits"]) == row["hits"]

    def test_mc_warns_when_hits_unreachable(self, capsys):
        code, out, err = run_cli(capsys, "mc", "25", "25", "25", "25", "--trials", "1000")
        assert code == 0
        assert "warning" in err
        (row,) = parse_csv(out)
        assert float(row["value_decimal"]) == 0.0

    def test_mc_warns_when_the_run_sees_few_hits(self, capsys):
        # the tail formula forecasts ~46 hits here, but the exact probability
        # is 7.4e-32: the warning follows the hits the run actually saw
        code, out, err = run_cli(capsys, "mc", "1", "400", "400", "400", "--trials", "1000")
        assert code == 0
        assert "warning" in err
        (row,) = parse_csv(out)
        assert int(row["hits"]) == 0

    def test_invalid_round_count_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "0", "1", "1", "1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("mc", "1", "1", "1", "1", "--workers", "0"),
            ("mc", "1", "1", "1", "1", "--workers", "-3"),
            ("mc", "1", "1", "1", "1", "--trials", "0"),
            ("mc", "1", "1", "1", "1", "--trials", "-5"),
            ("exact", "1", "1", "1", "1", "--budget", "-1"),
            # 2**64 + 42 and 42 - 2**64 have seed 42's 64-bit pattern
            ("mc", "2", "2", "2", "2", "--seed", str(2**64 + 42)),
            ("mc", "2", "2", "2", "2", "--seed", str(42 - 2**64)),
        ],
    )
    def test_invalid_run_settings_exit_1_before_any_work(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "warning" not in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_rounds(self, capsys):
        assert main(["exact", "1", "1"]) == 1

    def test_non_integer_rounds(self, capsys):
        assert main(["exact", "a", "b", "c", "d"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_strict_and_nonstrict_conflict(self, capsys):
        assert main(["exact", "1", "1", "1", "1", "--strict", "--nonstrict"]) == 1


class TestSweep:
    def test_default_grid_is_divisor_times_powers_of_two(self):
        assert default_totals("equal") == (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
        assert default_totals("ratio10")[0] == 31
        assert default_totals("ratio100")[0] == 301
        assert all(n <= 4096 for n in default_totals("ratio100"))

    def test_split_rounds(self):
        assert split_rounds("equal", 8) == (2, 2, 2, 2)
        assert split_rounds("ratio10", 62) == (2, 20, 20, 20)
        assert split_rounds("ratio100", 301) == (1, 100, 100, 100)
        assert split_rounds("ratio10", 32) is None

    def test_equal_sweep_with_intervals(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variant", "equal", "--n-values", "4", "8", "12", "16", "20",
            "--intervals",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["N"]) for r in rows] == [4, 8, 12, 16, 20]
        first = rows[0]
        assert Fraction(first["p_exact_strict"]) == Fraction(1, 8)
        assert Fraction(first["p_exact_nonstrict"]) == Fraction(5, 8)
        for row in rows:
            strict = float(row["p_exact_strict_decimal"])
            nonstrict = float(row["p_exact_nonstrict_decimal"])
            analytic = float(row["p_analytic"])
            assert strict <= analytic <= nonstrict

    def test_interval_rows_appear_even_off_grid(self):
        rows = sweep_rows(
            SweepRequest(variant="equal", n_values=(64,), include_exact_intervals=True)
        )
        totals = [row["N"] for row in rows]
        assert totals == [4, 8, 12, 16, 20, 64]
        config = ExperimentConfig((16, 16, 16, 16))
        for threshold, key in ((STRICT, "p_exact_strict"), (NON_STRICT, "p_exact_nonstrict")):
            value = exact_violation_probability(config, threshold).value
            assert rows[-1][key] == str(value)
            assert rows[-1][key + "_decimal"] == float(value)

    def test_continuous_interval_rows_use_integer_splits(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--continuous", "--intervals", "--n-values", "4", "6"
        )
        assert code == 0
        rows = {int(row["N"]): row for row in parse_csv(out)}
        assert sorted(rows) == [4, 6, 8, 12, 16, 20]
        assert [rows[6][k] for k in ("n1", "n2", "n3", "n4")] == ["1.5"] * 4
        for total in (4, 8, 12, 16, 20):
            parts = [rows[total][k] for k in ("n1", "n2", "n3", "n4")]
            assert parts == [str(total // 4)] * 4
            config = ExperimentConfig(tuple(int(n) for n in parts))
            assert float(rows[total]["p_analytic"]) == analytic_violation_probability(config).value
            assert Fraction(rows[total]["p_exact_strict"]) == exact_violation_probability(config).value

    def test_indivisible_total_becomes_error_row_and_run_continues(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--variant", "ratio10", "--n-values", "31", "32", "62")
        assert code == 0
        rows = parse_csv(out)
        assert [r["N"] for r in rows] == ["31", "32", "62"]
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert "not divisible" in rows[1]["error"]
        assert rows[1]["p_analytic"] == ""

    def test_continuous_accepts_any_total(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variant", "ratio100", "--n-values", "10", "100", "--continuous"
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(row["error"] == "" for row in rows)
        assert float(rows[0]["n1"]) == pytest.approx(10 / 301)

    def test_totals_past_float_range(self, capsys):
        huge = 10**400
        code, out, _ = run_cli(capsys, "sweep", "--n-values", str(huge), "8")
        assert code == 0
        rows = parse_csv(out)
        assert [row["N"] for row in rows] == ["8", str(huge)]
        assert rows[1]["n1"] == str(huge // 4)
        assert rows[1]["p_analytic"] == "0.0"
        # continuous splits are floats: refused before any row is built
        code, out, err = run_cli(capsys, "sweep", "--continuous", "--n-values", str(huge), "8")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        largest = int(sys.float_info.max)
        (row,) = sweep_rows(SweepRequest("ratio100", (largest,), continuous=True))
        assert row["n4"] == largest * 100 / 301
        with pytest.raises(InvalidConfigError):
            SweepRequest("equal", (largest + 1,), continuous=True)

    @pytest.mark.parametrize("total", [4.9, True, 8.0, "8"])
    def test_request_rejects_non_integer_totals(self, total):
        # int() would have made 4.9 a total of 4 and True a total of 1
        with pytest.raises(InvalidConfigError, match="integers"):
            SweepRequest("equal", (total, 8))

    def test_variant_ordering_on_a_common_grid(self):
        grids = {
            variant: {
                row["N"]: row["p_analytic"]
                for row in sweep_rows(
                    SweepRequest(variant=variant, n_values=tuple(2**k for k in range(2, 13)), continuous=True)
                )
            }
            for variant in ("equal", "ratio10", "ratio100")
        }
        for total in grids["equal"]:
            assert grids["ratio100"][total] >= grids["ratio10"][total] >= grids["equal"][total]

    def test_analytic_column_strictly_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        rows = parse_csv(out)
        values = [float(row["p_analytic"]) for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_output_sorted_and_stable(self, capsys):
        _, first, _ = run_cli(capsys, "sweep", "--n-values", "16", "4", "64", "--intervals")
        _, second, _ = run_cli(capsys, "sweep", "--n-values", "64", "16", "4", "--intervals")
        assert first == second
        rows = parse_csv(first)
        assert [int(r["N"]) for r in rows] == sorted(int(r["N"]) for r in rows)

    def test_csv_round_trip_at_full_precision(self, capsys):
        sweeps = [("--n-values", "4", "8")]
        # every row of each variant's default grid has an integer split
        sweeps += [("--variant", variant) for variant in ("equal", "ratio10", "ratio100")]
        for argv in sweeps:
            code, out, err = run_cli(capsys, "sweep", *argv, "--intervals")
            assert (code, err) == (0, "")
            for row in parse_csv(out):
                config = ExperimentConfig(tuple(int(row[k]) for k in ("n1", "n2", "n3", "n4")))
                # floats print shortest-round-trip, rationals as exact strings
                assert float(row["p_analytic"]) == analytic_violation_probability(config).value
                assert repr(float(row["p_analytic"])) == row["p_analytic"]
                for threshold, key in (
                    (STRICT, "p_exact_strict"),
                    (NON_STRICT, "p_exact_nonstrict"),
                ):
                    value = exact_violation_probability(config, threshold).value
                    assert Fraction(row[key]) == value
                    assert float(row[key + "_decimal"]) == float(value)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-values", "4", "8", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["variant"] == "equal"
        assert rows[0]["N"] == 4

    def test_intervals_ignored_for_ratio_variants(self, capsys):
        # the id is older than the rule: ratio rows now get exact brackets too
        code, out, err = run_cli(capsys, "sweep", "--variant", "ratio10", "--n-values", "31", "--intervals")
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        config = ExperimentConfig((1, 10, 10, 10))
        assert Fraction(row["p_exact_strict"]) == exact_violation_probability(config, STRICT).value
        assert (
            Fraction(row["p_exact_nonstrict"])
            == exact_violation_probability(config, NON_STRICT).value
        )

    def test_intervals_past_the_int_digit_limit_and_the_budget(self, capsys):
        # N = 16000 prints 2**16000 (4817 digits) in full; (50000,)*4 is
        # over the enumeration budget, so its row keeps the formula alone
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if hasattr(sys, "set_int_max_str_digits"):
            # the interpreter's default; main lifts it
            sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run_cli(capsys, "sweep", "--intervals", "--n-values", "16000", "200000")
            assert (code, err) == (0, "")
            # the equal variant's interval rows N = 4..20 come first
            *_, small, large = parse_csv(out)
            assert (small["N"], large["N"]) == ("16000", "200000")
            config = ExperimentConfig((4000, 4000, 4000, 4000))
            for threshold, key in ((STRICT, "p_exact_strict"), (NON_STRICT, "p_exact_nonstrict")):
                assert len(small[key]) > 4300
                assert Fraction(small[key]) == exact_violation_probability(config, threshold).value
                assert large[key] == large[key + "_decimal"] == ""
        finally:
            if hasattr(sys, "set_int_max_str_digits"):
                sys.set_int_max_str_digits(limit)
        assert large["error"] == ""
        assert float(large["p_analytic"]) == analytic_violation_probability(
            ExperimentConfig((50000,) * 4)
        ).value


class TestModuleExecution:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "chshprob", "toy"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "C = 4" in result.stdout


def unset_blas_threads(monkeypatch):
    """Remove OPENBLAS_NUM_THREADS for one test; setting it first makes
    monkeypatch restore the pytest process's own value, or its absence, even
    after the code under test sets it."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


class TestEntry:
    """``entry`` is the process's way out: it caps OpenBLAS at one thread
    unless the caller chose a count, exits with ``main``'s code and, outside
    dev mode, freezes the collector once ``main`` has returned."""

    def run_entry(self, monkeypatch, argv, dev_mode):
        unset_blas_threads(monkeypatch)
        events = []
        run_main = cli.main

        def recorded_main():
            code = run_main()
            events.append(("main", code))
            return code

        monkeypatch.setattr(sys, "argv", ["chshprob", *argv])
        monkeypatch.setattr(sys, "flags", SimpleNamespace(dev_mode=dev_mode))
        monkeypatch.setattr(cli, "main", recorded_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        return exit_info.value.code, events

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["toy"], 0),
            (["--help"], 0),
            (["exact", "1", "1", "1", "1000000"], 2),
            (["exact", "0", "1", "1", "1"], 1),
        ],
    )
    def test_freezes_once_after_main_and_exits_with_its_code(
        self, monkeypatch, capsys, argv, code
    ):
        assert self.run_entry(monkeypatch, argv, dev_mode=False) == (
            code,
            [("main", code), "freeze"],
        )

    def test_dev_mode_keeps_the_full_teardown(self, monkeypatch, capsys):
        assert self.run_entry(monkeypatch, ["toy"], dev_mode=True) == (0, [("main", 0)])

    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
    def test_caps_openblas_threads_before_main_unless_preset(
        self, monkeypatch, preset, threads
    ):
        unset_blas_threads(monkeypatch)
        if preset is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        seen = []

        def recorded_main():
            seen.append(os.environ["OPENBLAS_NUM_THREADS"])
            return 0

        monkeypatch.setattr(cli, "main", recorded_main)
        monkeypatch.setattr(gc, "freeze", lambda: None)
        with pytest.raises(SystemExit):
            cli.entry()
        assert seen == [threads]
        assert os.environ["OPENBLAS_NUM_THREADS"] == threads

    def test_main_leaves_the_environment_alone(self, monkeypatch, capsys):
        unset_blas_threads(monkeypatch)
        before = dict(os.environ)
        assert main(["mc", "2", "2", "2", "2", "--trials", "1000"]) == 0
        assert dict(os.environ) == before
