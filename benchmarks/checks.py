"""Output checks. A command whose output fails its check counts as failed.

* ``exact`` must equal the fraction recorded from chshprob 0.1.0, bit for bit.
* ``approx`` must match erfc(sqrt(2 / sum 1/n_k)) within 1e-12 relative.
* ``sweep`` is compared cell by cell with the recorded output. A cell that
  was empty may only gain the exact route's own value, which
  :func:`sweep_exact` computes independently of the package.
* ``mc`` must lie within 5 standard errors of the exact probability (never
  of the approx value, see README.md), and commands of one pair must report
  the same hit count. Hit counts themselves are not pinned.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import STRICT, Command

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REL_TOL = 1e-12
MAX_Z = 5.0
EXACT_COLUMNS = {
    "p_exact_strict": STRICT,
    "p_exact_nonstrict": "non-strict",
}
# Sweep variants as (1, w, w, w) channel weights.
VARIANT_WEIGHT = {"equal": 1, "ratio10": 10, "ratio100": 100}


def exact_key(rounds, threshold: str) -> str:
    return ",".join(str(n) for n in rounds) + "/" + threshold


def sweep_key(argv) -> str:
    """Reference key of a sweep command: its arguments minus the format."""
    args = list(argv)
    if "--format" in args:
        at = args.index("--format")
        del args[at : at + 2]
    return " ".join(args)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def parse_rows(text: str, argv) -> list[dict[str, str]]:
    """Rows of CSV or JSON output, every cell as the string CSV would show."""
    if "--format" in argv and argv[list(argv).index("--format") + 1] == "json":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError("JSON output is not a list of rows")
        return [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]
    return list(csv.DictReader(io.StringIO(text)))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _one_row(text: str, argv) -> dict[str, str]:
    rows = parse_rows(text, argv)
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    return rows[0]


def erfc_tail(rounds) -> float:
    return math.erfc(math.sqrt(2.0 / sum(1.0 / n for n in rounds)))


@functools.cache
def sweep_exact(weight: int, unit: int, threshold: str) -> Fraction:
    """Exact violation probability of the split (u, w*u, w*u, w*u).

    Independent of the package: with denominators cleared the test is
    |w*m1 + M| > 2*w*u, where M = m2 + m3 + m4 is one fair walk of 3*w*u
    steps (the (1,2) sign does not matter by symmetry). Sums C(u, i) times a
    prefix-summed binomial tail over M.
    """
    strict = threshold == STRICT
    steps = 3 * weight * unit
    row = [1]
    for j in range(steps):
        row.append(row[-1] * (steps - j) // (j + 1))
    prefix = [0]
    for c in row:
        prefix.append(prefix[-1] + c)
    bound = 2 * weight * unit
    total = 0
    for i in range(unit + 1):
        # |x + 2j| compared with bound, where M = 2j - steps
        x = weight * (2 * i - unit) - steps
        if strict:
            j_up = (bound - x) // 2 + 1
            j_down = -((bound + x) // 2) - 1
        else:
            j_up = -((x - bound) // 2)
            j_down = (-bound - x) // 2
        j_up = min(max(j_up, 0), steps + 1)
        j_down = min(max(j_down, -1), steps)
        count = (prefix[-1] - prefix[j_up]) + prefix[j_down + 1]
        total += math.comb(unit, i) * count
    return Fraction(total, 1 << (unit + steps))


def _check_exact(command: Command, text: str, ref: dict) -> str | None:
    row = _one_row(text, command.argv)
    want = Fraction(ref["exact"][exact_key(command.rounds, command.threshold)])
    if row.get("threshold") != command.threshold:
        return f"threshold {row.get('threshold')!r}, expected {command.threshold!r}"
    if Fraction(row["value"]) != want:
        return f"value {row['value']} != reference {want}"
    if not close(float(row["value_decimal"]), float(want)):
        return f"value_decimal {row['value_decimal']} != {float(want)!r}"
    return None


def _check_approx(command: Command, text: str, ref: dict) -> str | None:
    row = _one_row(text, command.argv)
    want = erfc_tail(command.rounds)
    if not close(float(row["value_decimal"]), want):
        return f"approx {row['value_decimal']} != erfc formula {want!r}"
    return None


def _check_toy(command: Command, text: str, ref: dict) -> str | None:
    strict = Fraction(ref["exact"][exact_key((1, 1, 1, 1), STRICT)])
    if command.kind == "toy-json":
        payload = json.loads(text)
        if Fraction(payload["correlation"]) != 4:
            return f"toy correlation {payload['correlation']}, expected 4"
        if Fraction(payload["probability"]["strict"]) != strict:
            return f"toy strict probability {payload['probability']['strict']}"
        if Fraction(payload["probability"]["non-strict"]) != Fraction(
            ref["exact"][exact_key((1, 1, 1, 1), "non-strict")]
        ):
            return f"toy non-strict probability {payload['probability']['non-strict']}"
        return None
    if "C = 4" not in text or f"p = {strict} = {float(strict)}" not in text:
        return "toy report lacks 'C = 4' or the 1/8 probability line"
    return None


def compare_sweep(reference: list[dict], rows: list[dict], variant: str) -> list[str]:
    """Cell-by-cell differences between a recorded sweep and a new one.

    Numeric cells may differ by 1e-12 relative, other cells not at all. A
    cell empty in the reference must stay empty, except that an exact
    column may gain the exact route's value for that row.
    """
    problems = []
    if [r.get("N") for r in rows] != [r["N"] for r in reference]:
        return [f"rows N={[r.get('N') for r in rows]}, expected {[r['N'] for r in reference]}"]
    for want_row, got_row in zip(reference, rows):
        for column, want in want_row.items():
            got = got_row.get(column) or ""
            if want == got:
                continue
            where = f"N={want_row['N']} {column}"
            if want == "":
                problem = _gained_cell(column, got, got_row, variant)
                if problem:
                    problems.append(f"{where}: {problem}")
                continue
            try:
                same = close(float(want), float(got))
            except ValueError:
                same = False
            if not same:
                problems.append(f"{where}: {got!r} != reference {want!r}")
    return problems


def _gained_cell(column: str, got: str, row: dict, variant: str) -> str | None:
    base = column.removesuffix("_decimal")
    if base not in EXACT_COLUMNS:
        return f"gained {got!r} in a column that only exact values may fill"
    try:
        unit = int(row["n1"])
        rounds = [int(row[f"n{k}"]) for k in (1, 2, 3, 4)]
    except (KeyError, ValueError):
        return "exact value on a row without an integer split"
    weight = VARIANT_WEIGHT[variant]
    if rounds != [unit, weight * unit, weight * unit, weight * unit]:
        return f"split {rounds} does not match variant {variant}"
    want = sweep_exact(weight, unit, EXACT_COLUMNS[base])
    if column == base:
        return None if Fraction(got) == want else f"{got} != exact {want}"
    return None if close(float(got), float(want)) else f"{got} != exact {float(want)!r}"


def _check_sweep(command: Command, text: str, ref: dict) -> str | None:
    argv = command.argv
    variant = argv[argv.index("--variant") + 1] if "--variant" in argv else "equal"
    problems = compare_sweep(ref["sweep"][sweep_key(argv)], parse_rows(text, argv), variant)
    return "; ".join(problems[:3]) if problems else None


def mc_hits(text: str, argv) -> int:
    return int(_one_row(text, argv)["hits"])


def _check_mc(command: Command, text: str, ref: dict) -> str | None:
    row = _one_row(text, command.argv)
    trials, hits = int(row["trials"]), int(row["hits"])
    if trials != command.trials:
        return f"trials {trials}, expected {command.trials}"
    p = float(Fraction(ref["exact"][exact_key(command.rounds, command.threshold)]))
    z = mc_z(hits, trials, p)
    if abs(z) > MAX_Z:
        return f"hits {hits}/{trials} is {z:+.2f} standard errors from exact p={p!r}"
    return None


def mc_z(hits: int, trials: int, p: float) -> float:
    """Standard score of a hit count against a known probability."""
    sd = math.sqrt(trials * p * (1.0 - p))
    if sd == 0.0:
        return 0.0 if hits == trials * p else math.inf
    return (hits - trials * p) / sd


_CHECKS = {
    "exact": _check_exact,
    "approx": _check_approx,
    "toy": _check_toy,
    "toy-json": _check_toy,
    "sweep": _check_sweep,
    "mc": _check_mc,
}


def check_output(command: Command, text: str, ref: dict) -> str | None:
    """None if ``text`` is a correct output of ``command``, else why not."""
    try:
        return _CHECKS[command.kind](command, text, ref)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_pairs(results) -> list[str]:
    """Commands of one pair (same config and seed, different worker
    counts) must report the same hits. ``results`` holds (command, stdout)
    of the commands that passed their own check."""
    hits: dict[tuple, set[int]] = {}
    for command, text in results:
        if command.kind == "mc" and command.pair:
            key = (command.pair, command.seed)
            hits.setdefault(key, set()).add(mc_hits(text, command.argv))
    return [f"{pair} seed {seed}: hits differ {sorted(h)}" for (pair, seed), h in hits.items() if len(h) > 1]
