import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
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
    tally,
)
from chshprob.exact import exact_violation_probability
from oracles import int_digit_limit, one_long_channel_probability


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

    def test_mc_over_the_round_budget_exits_2_before_any_draw(self, monkeypatch, capsys):
        # a trial of 10**12 + 3 rounds is past the 2**37-round budget
        from chshprob import montecarlo

        def no_draws(*args):
            raise AssertionError("drew before pricing the run")

        monkeypatch.setattr(montecarlo, "_batch_hits", no_draws)
        code, out, err = run_cli(capsys, "mc", "1", "1", "1", str(10**12), "--trials", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: Monte Carlo run draws 1000000000003 rounds, over the budget 137438953472; "
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
        code, out, _ = run_cli(capsys, "exact", "1", "1", "1", "14300")
        assert code == 0
        # main gives the limit back; reading the value needs it lifted too
        with int_digit_limit():
            (row,) = parse_csv(out)
            assert Fraction(row["value"]) == one_long_channel_probability(14300, STRICT)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "1", "1", "1", "1"],
            ["exact", "1", "1", "1", "14300"],
            # a count of 5000 digits, which argparse's int reads under the lift
            ["approx", "1" * 5000, "1", "1", "1"],
        ],
    )
    def test_main_gives_back_the_int_digit_limit(self, capsys, argv):
        # main lifts the interpreter's 4300-digit guard for its own parsing
        # and output, and an in-process caller has it back once main returns
        with int_digit_limit(4300):
            assert run_cli(capsys, *argv)[0] == 0
            assert sys.get_int_max_str_digits() == 4300

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
                "monte-carlo,strict,8,2,2,2,2,0.085,0.085,1000,85,"
                "0.06926331853965456,0.10391289100335621,42",
            ),
        ],
        ids=["approx-underflow", "exact", "mc"],
    )
    def test_result_row_text(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == [line]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("threshold", [STRICT, NON_STRICT])
    @pytest.mark.parametrize(
        "rounds",
        # the exact commands of the CI's -X dev step, and one of four odd counts
        [
            (1, 1, 1, 1),
            (2, 2, 2, 2),
            (60, 70, 80, 90),
            (2, 3, 5, 2000),
            (1, 1, 1, 100000),
            (1, 1, 300, 301),
            (3, 5, 7, 9),
        ],
    )
    def test_exact_rows_print_the_library_value(self, capsys, rounds, threshold, fmt):
        flag = "--strict" if threshold == STRICT else "--nonstrict"
        code, out, _ = run_cli(capsys, "exact", *map(str, rounds), flag, "--format", fmt)
        assert code == 0
        (row,) = parse_csv(out) if fmt == "csv" else json.loads(out)
        value = exact_violation_probability(ExperimentConfig(rounds), threshold).value
        # (1, 1, 1, 100000) is two integers of 30000 digits
        with int_digit_limit():
            assert row["value"] == str(value)
        assert float(row["value_decimal"]) == float(value)

    def test_mc_row(self, capsys):
        argv = ("mc", "1", "1", "1", "1", "--trials", "200000", "--seed", "42", "--strict")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--workers", "3") == (0, out, "")
        (row,) = parse_csv(out)
        assert row["method"] == "monte-carlo"
        assert int(row["trials"]) == 200000
        assert int(row["seed"]) == 42
        assert float(row["ci_low"]) <= 0.125 <= float(row["ci_high"])
        assert float(row["ci_low"]) <= float(row["value_decimal"]) <= float(row["ci_high"])

    @pytest.mark.parametrize("workers", ["2", "4"])
    @pytest.mark.parametrize(
        "argv",
        [
            # rows of 2002 rounds in one batch of one round a plane
            ("mc", "1", "1", "1000", "1000", "--trials", "50000"),
            ("mc", "1", "1", "1000", "1000", "--trials", "40000"),
            # rows of 2002 rounds in a full batch and a short second
            ("mc", "1", "1", "1000", "1000", "--trials", "70000"),
            # rows of 55 rounds in three full batches and a short fourth
            ("mc", "3", "5", "7", "40", "--trials", "200000"),
            # a row of 8388928 rounds whose planes hold 1024 lanes of 64 trials
            ("mc", "1", "1", "1", "8388928", "--trials", "64"),
            # rows of 12 rounds in the same four batches
            ("mc", "3", "3", "3", "3", "--trials", "200000"),
        ],
        ids=["mc", "mcuneven", "mcbatches", "mcword", "mcpieces", "mcshort"],
    )
    def test_mc_stdout_is_the_same_at_any_worker_count(self, capsys, argv, workers):
        single = run_cli(capsys, *argv, "--workers", "1")
        assert single[0] == 0
        assert run_cli(capsys, *argv, "--workers", workers) == single

    def test_mc_json_names_the_sampler_stream(self, capsys):
        argv = ("mc", "2", "2", "2", "2", "--trials", "5000", "--seed", "7")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["stream"] == 4
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

    @pytest.mark.parametrize("variant", ["equal", "ratio10", "ratio100"])
    def test_analytic_column_strictly_decreases(self, capsys, variant):
        code, out, _ = run_cli(capsys, "sweep", "--variant", variant)
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
                    assert row[key] == str(value)
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
        # under the interpreter's default; main lifts it
        with int_digit_limit(4300):
            code, out, err = run_cli(capsys, "sweep", "--intervals", "--n-values", "16000", "200000")
        assert (code, err) == (0, "")
        # the equal variant's interval rows N = 4..20 come first
        *_, small, large = parse_csv(out)
        assert (small["N"], large["N"]) == ("16000", "200000")
        config = ExperimentConfig((4000, 4000, 4000, 4000))
        # main gives the limit back; reading the values needs it lifted too
        with int_digit_limit():
            for threshold, key in ((STRICT, "p_exact_strict"), (NON_STRICT, "p_exact_nonstrict")):
                assert len(small[key]) > 4300
                assert Fraction(small[key]) == exact_violation_probability(config, threshold).value
                assert large[key] == large[key + "_decimal"] == ""
        assert large["error"] == ""
        assert float(large["p_analytic"]) == analytic_violation_probability(
            ExperimentConfig((50000,) * 4)
        ).value


def run_module(flags, argv, **kwargs):
    """``python *flags -m chshprob *argv`` on this package's source.

    The child's PYTHONPATH is the source alone and PYTHONUNBUFFERED is
    unset, so its stdout on a pipe is block-buffered unless ``flags`` holds
    ``-u``, whatever the caller's environment says.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *flags, "-m", "chshprob", *argv], env=env, text=True, **kwargs)


# a buffered stdout fails at entry's flush, an unbuffered one at main's first write
BUFFERING = pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])


class TestModuleExecution:
    @BUFFERING
    def test_python_dash_m(self, flags):
        result = run_module(flags, ["toy"], capture_output=True)
        assert result.returncode == 0
        assert "C = 4" in result.stdout

    @BUFFERING
    @pytest.mark.parametrize("argv", [["toy"], ["sweep", "--intervals"]])
    def test_closed_stdout_exits_1_without_a_traceback(self, flags, argv):
        # the pipe's read end is closed before the process starts, so its
        # first write to stdout fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_module(flags, argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["toy"], 0, ""),
            (["exact", "2", "2", "2", "2"], 0, ""),
            # the exact kernel's long threshold runs (a middle table longer
            # than the row), its short ones (a long row beside short
            # channels), a row of 100000 steps, whose tails are summed
            # without it, and mirrored thresholds whose weights cancel at
            # their shared prefix point
            (["exact", "60", "70", "80", "90"], 0, ""),
            (["exact", "2", "3", "5", "2000"], 0, ""),
            (["exact", "1", "1", "1", "100000"], 0, ""),
            (["exact", "1", "1", "300", "301"], 0, ""),
            (["approx", "25", "25", "25", "25"], 0, ""),
            (["sweep", "--intervals"], 0, ""),
            (["sweep", "--variant", "ratio10", "--intervals"], 0, ""),
            (["sweep", "--variant", "ratio100", "--intervals"], 0, ""),
            # the mc rows of test_mc_stdout_is_the_same_at_any_worker_count
            (["mc", "1", "1", "1000", "1000", "--trials", "50000"], 0, ""),
            (["mc", "1", "1", "1000", "1000", "--trials", "40000"], 0, ""),
            # its row of two batches, at two workers, so that the run forks
            (["mc", "1", "1", "1000", "1000", "--trials", "70000", "--workers", "2"], 0, ""),
            (["mc", "3", "5", "7", "40", "--trials", "200000"], 0, ""),
            (["mc", "1", "1", "1", "8388928", "--trials", "64"], 0, ""),
            (["mc", "3", "3", "3", "3", "--trials", "200000"], 0, ""),
            (["sweep", "--intervals", "--format", "json"], 0, ""),
            (["exact", "1", "1", "1", "1000000"], 2, "error: exact enumeration costs"),
            (["exact", "0", "1", "1", "1"], 1, "error: round counts must be positive"),
            (["mc", "25", "25", "25", "25", "--trials", "1000"], 0, "warning: only 0 hits"),
        ],
        ids=[
            "toy", "exact", "exactlongruns", "exactshortruns", "exactlong", "exactmirrored",
            "approx", "sweep", "sweep10", "sweep100",
            "mc", "mcuneven", "mcbatches", "mcword", "mcpieces", "mcshort",
            "sweep-json", "exact-over-budget", "exact-invalid", "mc-few-hits",
        ],
    )
    def test_exit_without_teardown_matches_dev_mode(self, argv, code, err):
        # outside -X dev the process ends with os._exit; what it wrote
        # through the pipes must still arrive whole, as under -X dev, where
        # the interpreter tears down as usual and writes any warning or
        # unclosed resource to stderr, which stays empty unless the command
        # reports an error or a warning of its own
        fast, dev = (run_module(flags, argv, capture_output=True) for flags in ([], ["-X", "dev"]))
        assert (fast.returncode, fast.stdout, fast.stderr) == (dev.returncode, dev.stdout, dev.stderr)
        assert fast.returncode == code
        assert fast.stderr.startswith(err) and bool(fast.stderr) == bool(err)
        if code == 0:
            assert fast.stdout.endswith("\n")
        if "json" in argv:
            assert [row["N"] for row in json.loads(fast.stdout)][-1] == 4096
        elif code == 0 and argv[0] == "exact":
            # one row, complete through its last cell; (1, 1, 1, 100000)
            # prints two integers of 30000 digits before it
            (row,) = parse_csv(fast.stdout)
            assert row["value_decimal"]


class TestEntry:
    """``entry`` is the process's way out: it exits with ``main``'s code
    and, outside dev mode, flushes stdout and stderr once ``main`` has
    returned and ends the process at once (``os._exit``)."""

    def run_entry(self, monkeypatch, argv, dev_mode):
        events = []
        run_main = cli.main

        def recorded_main():
            code = run_main()
            events.append(("main", code))
            return code

        def recorded_exit(code):
            events.append(("_exit", code))
            raise SystemExit(code)

        monkeypatch.setattr(sys, "argv", ["chshprob", *argv])
        monkeypatch.setattr(sys, "flags", SimpleNamespace(dev_mode=dev_mode))
        monkeypatch.setattr(cli, "main", recorded_main)
        monkeypatch.setattr(sys.stdout, "flush", lambda: events.append("stdout"))
        monkeypatch.setattr(sys.stderr, "flush", lambda: events.append("stderr"))
        monkeypatch.setattr(os, "_exit", recorded_exit)
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
        # the id is older than the exit: the process now skips its teardown
        assert self.run_entry(monkeypatch, argv, dev_mode=False) == (
            code,
            [("main", code), "stdout", "stderr", ("_exit", code)],
        )

    def test_dev_mode_keeps_the_full_teardown(self, monkeypatch, capsys):
        # sys.exit, not os._exit: the interpreter tears down as usual
        assert self.run_entry(monkeypatch, ["toy"], dev_mode=True) == (0, [("main", 0), "stdout"])

    def test_main_leaves_the_environment_alone(self, capsys):
        before = dict(os.environ)
        assert main(["mc", "2", "2", "2", "2", "--trials", "1000"]) == 0
        assert dict(os.environ) == before
