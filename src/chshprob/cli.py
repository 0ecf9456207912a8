"""Command line surface.

Data goes to stdout as text, CSV, or JSON; diagnostics and warnings go to
stderr.  Exit codes: 0 success, 1 usage or validation error, 2 work budget
exceeded (exact's enumeration or mc's word count).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import CorruptRecordError, InvalidConfigError, LimitError
from .model import (
    CHANNEL_SIGNS,
    CHANNELS,
    CLASSICAL_BOUND,
    DEFAULT_ENUMERATION_BUDGET,
    MAXIMAL_VIOLATION_RECORDS,
    NON_STRICT,
    STRICT,
    TSIRELSON_BOUND,
    ExperimentConfig,
    _Record,
    analytic_violation_probability,
    chsh_correlation,
    exact_violation_probability,
    gaussian_tail_probability,
    is_violation,
    tally,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

# Fixed default seed: runs are reproducible out of the box, never wall-clock.
DEFAULT_SEED = 42
DEFAULT_TRIALS = 1_000_000

# Channel weights per sweep variant; n_k = N * weight_k / sum(weights).
VARIANTS = {
    "equal": (1, 1, 1, 1),
    "ratio10": (1, 10, 10, 10),
    "ratio100": (1, 100, 100, 100),
}
SWEEP_MAX_TOTAL = 4096
INTERVAL_TOTALS = (4, 8, 12, 16, 20)

RESULT_FIELDS = ("method", "threshold", "N", "n1", "n2", "n3", "n4", "value", "value_decimal")
MC_FIELDS = RESULT_FIELDS + ("trials", "hits", "ci_low", "ci_high", "seed")
SWEEP_FIELDS = (
    "variant",
    "N",
    "n1",
    "n2",
    "n3",
    "n4",
    "p_analytic",
    "p_exact_strict",
    "p_exact_strict_decimal",
    "p_exact_nonstrict",
    "p_exact_nonstrict_decimal",
    "error",
)


class SweepRequest(_Record):
    """One sweep: a variant, its totals, and which columns to fill."""

    __slots__ = ("variant", "n_values", "include_exact_intervals", "continuous")

    def __init__(
        self,
        variant: str,
        n_values: tuple[int, ...],
        include_exact_intervals: bool = False,
        continuous: bool = False,
    ) -> None:
        if variant not in VARIANTS:
            raise InvalidConfigError(f"unknown variant {variant!r}")
        values = tuple(n_values)
        for n in values:
            if not isinstance(n, int) or isinstance(n, bool):
                raise InvalidConfigError(f"total round counts must be integers, got {n!r}")
        values = tuple(sorted(set(values)))
        super().__init__(variant, values, include_exact_intervals, continuous)
        if not values:
            raise InvalidConfigError("sweep needs at least one total round count")
        if values[0] < 1:
            raise InvalidConfigError(f"total round counts must be positive, got {values[0]}")
        # continuous splits are floats; an integer count stays exact at any size
        if self.continuous and values[-1] > sys.float_info.max:
            raise InvalidConfigError(
                f"continuous totals must be at most {sys.float_info.max!r} (the float range)"
            )


def default_totals(variant: str) -> tuple[int, ...]:
    """Per-variant default N grid: divisor * powers of 2 up to SWEEP_MAX_TOTAL."""
    divisor = sum(VARIANTS[variant])
    totals = []
    n = divisor
    while n <= SWEEP_MAX_TOTAL:
        totals.append(n)
        n *= 2
    return tuple(totals)


def split_rounds(variant: str, total: int) -> tuple[int, int, int, int] | None:
    """Integer per-channel counts for this variant, or None if N is indivisible."""
    weights = VARIANTS[variant]
    divisor = sum(weights)
    if total % divisor:
        return None
    unit = total // divisor
    return tuple(unit * w for w in weights)


def _result_row(
    method: str, threshold: str, config: ExperimentConfig, value: Fraction | float
) -> dict:
    rounds = config.rounds
    return {
        "method": method,
        "threshold": threshold,
        "N": config.total,
        "n1": rounds[0],
        "n2": rounds[1],
        "n3": rounds[2],
        "n4": rounds[3],
        "value": repr(float(value)) if isinstance(value, float) else str(value),
        "value_decimal": float(value),
    }


def _write_rows(rows: list[dict], fieldnames: tuple[str, ...], fmt: str, out) -> None:
    # each writer is imported in its own branch, so that CSV output never
    # loads json and JSON output never loads csv
    if fmt == "csv":
        import csv

        writer = csv.DictWriter(out, fieldnames=fieldnames, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    import json

    out.write("[\n")
    for index, row in enumerate(rows):
        tail = "," if index + 1 < len(rows) else ""
        out.write("  " + json.dumps(row) + tail + "\n")
    out.write("]\n")


def cmd_toy(args: argparse.Namespace) -> int:
    records = MAXIMAL_VIOLATION_RECORDS
    counts = tally(records)
    correlation = chsh_correlation(counts)
    config = ExperimentConfig(rounds=counts.n)
    strict_p = exact_violation_probability(config, STRICT).value
    nonstrict_p = exact_violation_probability(config, NON_STRICT).value
    contributions = [
        CHANNEL_SIGNS[CHANNELS.index(r.channel)] * r.c for r in records
    ]

    if args.json:
        payload = {
            "records": [
                {"time_index": r.time_index, "a": r.a, "b": r.b, "c": r.c, "i": r.i, "j": r.j}
                for r in records
            ],
            "contributions": contributions,
            "correlation": str(correlation),
            "correlation_decimal": float(correlation),
            "classical_bound": CLASSICAL_BOUND,
            "violation_strict": is_violation(correlation, STRICT),
            "config": list(config.rounds),
            "probability": {
                "strict": str(strict_p),
                "strict_decimal": float(strict_p),
                "non-strict": str(nonstrict_p),
                "non-strict_decimal": float(nonstrict_p),
            },
        }
        import json

        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    print("round   a   b  c=ab  i  j  contribution")
    for record, contribution in zip(records, contributions):
        print(
            f"{record.time_index:>5}  {record.a:+d}  {record.b:+d}    {record.c:+d}  "
            f"{record.i}  {record.j}  {contribution:+d}"
        )
    print(f"total CHSH correlation: C = {correlation}")
    print(
        f"classical bound |C| <= {CLASSICAL_BOUND} is exceeded "
        f"(quantum ceiling would be 2*sqrt(2) = {TSIRELSON_BOUND:.4f}); "
        "this is the maximal value finite data can reach."
    )
    print(
        f"probability of |C| > 2 from four fair single-round channels: "
        f"p = {strict_p} = {float(strict_p)}"
    )
    patterns = 2**config.total
    print(
        f"({strict_p.numerator * patterns // strict_p.denominator} of the {patterns} equally "
        f"likely outcome patterns violate strictly; with the boundary included, "
        f"p = {nonstrict_p} = {float(nonstrict_p)})"
    )
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    config = ExperimentConfig(rounds=tuple(args.rounds))
    result = exact_violation_probability(config, args.threshold, budget=args.budget)
    row = _result_row(result.method, result.threshold, config, result.value)
    _write_rows([row], RESULT_FIELDS, args.format, sys.stdout)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    config = ExperimentConfig(rounds=tuple(args.rounds))
    result = analytic_violation_probability(config)
    row = _result_row(result.method, result.threshold, config, result.value)
    _write_rows([row], RESULT_FIELDS, args.format, sys.stdout)
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    # imported here so that only mc loads the sampler
    from .montecarlo import estimate_violation_probability

    config = ExperimentConfig(rounds=tuple(args.rounds))
    try:
        estimate = estimate_violation_probability(
            config, args.trials, args.seed, args.threshold, workers=args.workers
        )
    except ImportError as exc:
        # only a run of rows longer than montecarlo.SHORT_ROW_ROUNDS imports
        # numpy, and refuses one without bitwise_count (numpy < 2.0)
        print(f"error: mc needs numpy >= 2.0 ({exc})", file=sys.stderr)
        return 1
    if estimate.hits < 10:
        print(
            f"warning: only {estimate.hits} hits in {estimate.trials} trials; "
            "the estimate is mostly zeros. Use 'exact' or 'approx' for this regime.",
            file=sys.stderr,
        )
    row = _result_row("monte-carlo", estimate.threshold, config, estimate.estimate)
    row.update(
        trials=estimate.trials,
        hits=estimate.hits,
        ci_low=estimate.ci_low,
        ci_high=estimate.ci_high,
        seed=estimate.seed,
    )
    if args.format == "json":
        # the CSV columns stay byte-stable; only JSON names the sampler stream
        row["stream"] = estimate.stream
    _write_rows([row], MC_FIELDS, args.format, sys.stdout)
    return 0


def sweep_rows(request: SweepRequest) -> list[dict]:
    """Dataset rows for one sweep, sorted by N and built in one pass.

    Indivisible totals become error rows instead of aborting the run.  With
    exact intervals, every row with an integer split gets both exact bracket
    cells, whatever the variant; a row whose exact plan is over the
    enumeration budget keeps them empty.  The totals in INTERVAL_TOTALS that
    the variant divides (only the equal variant's) join the requested ones,
    and take the integer split also under ``continuous``.
    """
    weights = VARIANTS[request.variant]
    divisor = sum(weights)
    interval_totals = set()
    if request.include_exact_intervals:
        interval_totals = {n for n in INTERVAL_TOTALS if n % divisor == 0}
    rows = []
    for total in sorted(set(request.n_values) | interval_totals):
        integer = not request.continuous or total in interval_totals
        if integer:
            parts = split_rounds(request.variant, total)
        else:
            parts = tuple(total * w / divisor for w in weights)
        row = {"variant": request.variant, "N": total}
        rows.append(row)
        if parts is None:
            row["error"] = (
                f"N={total} not divisible by {divisor}; use a multiple of {divisor} or --continuous"
            )
            continue
        row.update(n1=parts[0], n2=parts[1], n3=parts[2], n4=parts[3])
        row["p_analytic"] = gaussian_tail_probability(parts)
        if request.include_exact_intervals and integer:
            config = ExperimentConfig(rounds=parts)
            try:
                strict, nonstrict = (
                    exact_violation_probability(config, t).value for t in (STRICT, NON_STRICT)
                )
            except LimitError:
                continue
            for key, value in (("p_exact_strict", strict), ("p_exact_nonstrict", nonstrict)):
                row[key] = str(value)
                row[key + "_decimal"] = float(value)
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    request = SweepRequest(
        variant=args.variant,
        n_values=tuple(args.n_values) if args.n_values else default_totals(args.variant),
        include_exact_intervals=args.intervals,
        continuous=args.continuous,
    )
    _write_rows(sweep_rows(request), SWEEP_FIELDS, args.format, sys.stdout)
    return 0


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--strict",
        dest="threshold",
        action="store_const",
        const=STRICT,
        default=STRICT,
        help="count violations as |C| > 2 (default)",
    )
    group.add_argument(
        "--nonstrict",
        dest="threshold",
        action="store_const",
        const=NON_STRICT,
        help="count violations as |C| >= 2",
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )


def _add_rounds_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "rounds",
        metavar="N",
        type=int,
        nargs=4,
        help="rounds per channel: n1 n2 n3 n4 for channels (1,1) (1,2) (2,1) (2,2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshprob",
        description=(
            "Probability that a finite-round classical CHSH experiment shows a "
            "correlation past the |C| <= 2 bound, by exact enumeration, Gaussian "
            "tail formula, or Monte Carlo simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser(
        "toy", help="replay the built-in four-round dataset that reaches C = 4"
    )
    toy.add_argument("--json", action="store_true", help="machine-readable output")
    toy.set_defaults(func=cmd_toy)

    exact = sub.add_parser("exact", help="exact violation probability by enumeration")
    _add_rounds_argument(exact)
    _add_threshold_flags(exact)
    _add_format_flag(exact)
    exact.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="max price of the exact plan to accept: the larger of its time (entries "
        "visited, integer products, the walk along the longest row, and printing the "
        "result) and its memory (the middle table); the largest runs the default "
        "accepts took 0.5 to 2.7 s on a 2-core test machine (default %(default)s)",
    )
    exact.set_defaults(func=cmd_exact)

    approx = sub.add_parser("approx", help="Gaussian tail formula erfc(d)")
    _add_rounds_argument(approx)
    _add_format_flag(approx)
    approx.set_defaults(func=cmd_approx)

    mc = sub.add_parser("mc", help="Monte Carlo estimate from simulated experiments")
    _add_rounds_argument(mc)
    _add_threshold_flags(mc)
    _add_format_flag(mc)
    mc.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_TRIALS,
        help="experiments to simulate, ceil(N/64) drawn words each; a run over the "
        "word budget is refused before any draw",
    )
    mc.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stream seed (default %(default)s)")
    mc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="batch workers: the calling thread plus up to WORKERS - 1 threads, no more "
        "than the batches or the CPUs; rows of 16 rounds or fewer are counted in Python, "
        "one batch at a time, and gain nothing from more; the hits do not depend on it",
    )
    mc.set_defaults(func=cmd_mc)

    sweep = sub.add_parser("sweep", help="probability-vs-N dataset for plotting")
    sweep.add_argument(
        "--variant",
        choices=tuple(VARIANTS),
        default="equal",
        help="channel split: equal (n1=n2=n3=n4), ratio10 (10*n1=n2=n3=n4), "
        "ratio100 (100*n1=n2=n3=n4)",
    )
    sweep.add_argument(
        "--n-values",
        dest="n_values",
        metavar="N",
        type=int,
        nargs="+",
        help="total round counts (default: variant divisor times powers of 2 up to 4096)",
    )
    sweep.add_argument(
        "--intervals",
        action="store_true",
        help="add exact strict/non-strict bracket columns on every integer row the "
        "enumeration budget admits; the equal variant also gains rows N in "
        + ",".join(str(n) for n in INTERVAL_TOTALS),
    )
    sweep.add_argument(
        "--continuous",
        action="store_true",
        help="evaluate the formula at real-valued splits so any N works",
    )
    _add_format_flag(sweep)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; fold its exit codes into the 0/1 contract
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    # exact, and sweep with intervals, print p = k / 2**N with k in full:
    # N*log10(2) digits, past the interpreter's default 4300-digit
    # int-to-str limit once N > 14284
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except LimitError as exc:
        # exact and mc refuse work over their budgets; approx answers any size at once
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: chshprob approx {' '.join(map(str, args.rounds))}", file=sys.stderr)
        return 2
    except (InvalidConfigError, CorruptRecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run the command line and exit the process with its code.

    Before exiting, every object left is moved out of the collector's reach
    (``gc.freeze``): interpreter shutdown otherwise runs full collections
    over them, about a tenth of a short command's time.  Under ``-X dev``
    the full teardown stays, so that finalizers still report unclosed
    resources.

    Before ``main`` runs, OpenBLAS is capped at one thread unless
    ``OPENBLAS_NUM_THREADS`` is already set.  numpy loads OpenBLAS, which
    otherwise starts a thread per CPU during ``import numpy``; nothing in
    the package calls BLAS, and starting that pool costs an ``mc`` process
    60-75 ms of CPU time.  ``main`` itself never touches the environment.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    if not sys.flags.dev_mode:
        gc.freeze()
    sys.exit(code)
