"""Command line surface.

Data goes to stdout as text, CSV, or JSON; diagnostics and warnings go to
stderr.  Exit codes: 0 success, 1 usage or validation error or a closed
stdout, 2 work budget exceeded (exact's enumeration or mc's round count).
"""

from __future__ import annotations

import argparse
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
    gaussian_tail_probability,
    is_violation,
    tally,
)

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
    method: str, threshold: str, config: ExperimentConfig, text: str, decimal: float
) -> dict:
    values = (method, threshold, config.total, *config.rounds, text, decimal)
    return dict(zip(RESULT_FIELDS, values, strict=True))


def _write_rows(rows: list[dict], fieldnames: tuple[str, ...], fmt: str) -> None:
    # each writer is imported in its own branch, so that CSV output never
    # loads json and JSON output never loads csv
    if fmt == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return
    import json

    sys.stdout.write("[\n")
    for index, row in enumerate(rows):
        tail = "," if index + 1 < len(rows) else ""
        sys.stdout.write("  " + json.dumps(row) + tail + "\n")
    sys.stdout.write("]\n")


def cmd_toy(args: argparse.Namespace) -> int:
    # imported here, as in cmd_exact and sweep_rows, so that only the
    # commands that print an exact value load the exact route
    from .exact import format_dyadic, violation_count

    records = MAXIMAL_VIOLATION_RECORDS
    counts = tally(records)
    correlation = chsh_correlation(counts)
    config = ExperimentConfig(rounds=counts.n)
    strict_count = violation_count(config, STRICT)
    strict_text, strict_decimal = format_dyadic(strict_count, config.total)
    nonstrict_text, nonstrict_decimal = format_dyadic(violation_count(config, NON_STRICT), config.total)
    contributions = [
        CHANNEL_SIGNS[CHANNELS.index(r.channel)] * r.c for r in records
    ]

    if args.json:
        payload = {
            "records": [{name: getattr(r, name) for name in r.__slots__} for r in records],
            "contributions": contributions,
            "correlation": str(correlation),
            "correlation_decimal": float(correlation),
            "classical_bound": CLASSICAL_BOUND,
            "violation_strict": is_violation(correlation, STRICT),
            "config": list(config.rounds),
            "probability": {
                "strict": strict_text,
                "strict_decimal": strict_decimal,
                "non-strict": nonstrict_text,
                "non-strict_decimal": nonstrict_decimal,
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
        f"p = {strict_text} = {strict_decimal}"
    )
    print(
        f"({strict_count} of the {2**config.total} equally "
        f"likely outcome patterns violate strictly; with the boundary included, "
        f"p = {nonstrict_text} = {nonstrict_decimal})"
    )
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from .exact import format_dyadic, violation_count

    config = ExperimentConfig(rounds=tuple(args.rounds))
    count = violation_count(config, args.threshold, budget=args.budget)
    row = _result_row("exact", args.threshold, config, *format_dyadic(count, config.total))
    _write_rows([row], RESULT_FIELDS, args.format)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    config = ExperimentConfig(rounds=tuple(args.rounds))
    result = analytic_violation_probability(config)
    row = _result_row(result.method, result.threshold, config, repr(result.value), result.value)
    _write_rows([row], RESULT_FIELDS, args.format)
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    # imported here so that only mc loads the sampler
    from .montecarlo import estimate_violation_probability

    config = ExperimentConfig(rounds=tuple(args.rounds))
    # an unset --workers asks for every CPU, and the library forks no more
    # than the run's batches, usable CPUs and priced rounds pay for
    workers = (os.cpu_count() or 1) if args.workers is None else args.workers
    estimate = estimate_violation_probability(
        config, args.trials, args.seed, args.threshold, workers=workers
    )
    if estimate.hits < 10:
        print(
            f"warning: only {estimate.hits} hits in {estimate.trials} trials; "
            "the estimate is mostly zeros. Use 'exact' or 'approx' for this regime.",
            file=sys.stderr,
        )
    row = _result_row(
        "monte-carlo", estimate.threshold, config, repr(estimate.estimate), estimate.estimate
    )
    row.update((name, getattr(estimate, name)) for name in MC_FIELDS[len(RESULT_FIELDS) :])
    if args.format == "json":
        # the CSV columns stay byte-stable; only JSON names the sampler stream
        row["stream"] = estimate.stream
    _write_rows([row], MC_FIELDS, args.format)
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
            from .exact import format_dyadic, violation_count

            config = ExperimentConfig(rounds=parts)
            try:
                counts = [violation_count(config, t) for t in (STRICT, NON_STRICT)]
            except LimitError:
                continue
            for key, count in zip(("p_exact_strict", "p_exact_nonstrict"), counts):
                row[key], row[key + "_decimal"] = format_dyadic(count, config.total)
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    request = SweepRequest(
        variant=args.variant,
        n_values=tuple(args.n_values) if args.n_values else default_totals(args.variant),
        include_exact_intervals=args.intervals,
        continuous=args.continuous,
    )
    _write_rows(sweep_rows(request), SWEEP_FIELDS, args.format)
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
        "result) and its memory, the middle table's bytes (default %(default)s)",
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
        help="experiments to simulate, N drawn rounds each; a run over the round "
        "budget is refused before any draw",
    )
    mc.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stream seed (default %(default)s)")
    mc.add_argument(
        "--workers",
        type=int,
        help="most processes to share the batches among (default: the CPU count). "
        "A run uses at most one per batch, per usable CPU and per 2**24 rounds of "
        "trials * N, so a smaller run uses one; the hits are the same at any count. "
        "--workers 1 always uses one, as when many mc jobs run side by side",
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
        help=f"total round counts (default: variant divisor times powers of 2 up to {SWEEP_MAX_TOTAL})",
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
    # exact, and sweep with intervals, print p = k / 2**N with k in full:
    # N*log10(2) digits, past the interpreter's default 4300-digit
    # int-to-str limit once N > 14284, and argparse's int reads counts of
    # any length; the caller's limit comes back after
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse already printed usage; fold its exit codes into the 0/1 contract
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    except LimitError as exc:
        # exact and mc refuse work over their budgets; approx answers any size at once
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: chshprob approx {' '.join(map(str, args.rounds))}", file=sys.stderr)
        return 2
    except (InvalidConfigError, CorruptRecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    """Run the command line and exit the process with its code.

    Once stdout and stderr are flushed, the process ends at once
    (``os._exit``), without the interpreter's teardown: no command leaves
    a thread, an open file or an exit handler behind, and the teardown
    would only run full collections over every object still alive and
    free them, which changes no output.  Under ``-X dev`` the full teardown
    stays, so that finalizers still report unclosed resources.

    When stdout's reader has gone, the process exits 1 without a
    traceback: fd 1 is pointed at ``os.devnull``, so the flush at exit
    cannot fail again (the Python docs' SIGPIPE recipe).
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if sys.flags.dev_mode:
        sys.exit(code)
    sys.stderr.flush()
    os._exit(code)
