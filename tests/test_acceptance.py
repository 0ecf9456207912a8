"""Acceptance checks: every headline behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; each line carries the measured numbers so a transcript
doubles as a results table.
"""

import math
import random
import time
from fractions import Fraction

from chshprob.cli import VARIANTS, default_totals, split_rounds
from chshprob.model import (
    MAXIMAL_VIOLATION_RECORDS,
    NON_STRICT,
    STRICT,
    ExperimentConfig,
    analytic_violation_probability,
    chsh_correlation,
    exact_violation_probability,
    gaussian_tail_probability,
    tally,
)
from chshprob.montecarlo import estimate_violation_probability
from chshprob.walks import walk_pmf
from oracles import (
    brute_force_violation_probability,
    erfc_series,
    gaussian_density,
    gaussian_halfspace_oracle,
)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _best_of(fn, repeats: int = 25) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_toy_probability():
    config = ExperimentConfig((1, 1, 1, 1))
    result = exact_violation_probability(config, STRICT)
    value_ok = isinstance(result.value, Fraction) and result.value == Fraction(1, 8)
    best = _best_of(lambda: exact_violation_probability(config, STRICT))
    _report(
        1,
        "toy-model probability",
        value_ok and best < 1e-3,
        f"p = {result.value} = {float(result.value)}, best run {best * 1e6:.1f} us (< 1 ms)",
    )


def test_criterion_2_builtin_replay():
    correlation = chsh_correlation(tally(MAXIMAL_VIOLATION_RECORDS))
    best = _best_of(lambda: chsh_correlation(tally(MAXIMAL_VIOLATION_RECORDS)))
    _report(
        2,
        "built-in dataset replay",
        correlation == 4 and best < 1e-3,
        f"C = {correlation}, best run {best * 1e6:.1f} us (< 1 ms)",
    )


def test_criterion_3_brute_force_equivalence():
    start = time.perf_counter()
    mismatches = []
    for total in (4, 8, 12, 16):
        rounds = (total // 4,) * 4
        config = ExperimentConfig(rounds)
        for threshold in (STRICT, NON_STRICT):
            fast = exact_violation_probability(config, threshold).value
            slow = brute_force_violation_probability(rounds, threshold)
            if fast != slow:
                mismatches.append((rounds, threshold, fast, slow))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "raw-sequence oracle equivalence",
        not mismatches and elapsed < 30.0,
        f"N in (4, 8, 12, 16), both thresholds, exact rational equality; "
        f"{elapsed:.1f} s (< 30 s)" + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_4_analytic_formula_and_gaussian_oracle():
    start = time.perf_counter()
    rng = random.Random(20260809)
    worst_rel = 0.0
    oracle_checks = 0
    failures = []
    for index in range(20):
        rounds = tuple(rng.randint(1, 40) for _ in range(4))
        config = ExperimentConfig(rounds)
        value = analytic_violation_probability(config).value
        reference = math.erfc(math.sqrt(2.0 / sum(1.0 / n for n in rounds)))
        rel = abs(value - reference) / reference
        worst_rel = max(worst_rel, rel)
        if rel > 1e-12:
            failures.append((rounds, "formula", value, reference))
        if value >= 1e-4:
            fraction = gaussian_halfspace_oracle(rounds, 10**6, seed=1000 + index)
            sigma = math.sqrt(value * (1.0 - value) / 10**6)
            oracle_checks += 1
            if abs(fraction - value) > 3 * sigma:
                failures.append((rounds, "oracle", fraction, value, sigma))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "analytic formula vs reference and sampling oracle",
        not failures and elapsed < 60.0,
        f"20 random configs, worst formula deviation {worst_rel:.2e} (<= 1e-12); "
        f"{oracle_checks} oracle checks within 3 standard errors; {elapsed:.1f} s (< 60 s)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_sweep_curve_properties():
    start = time.perf_counter()
    problems = []

    # (a) within each variant the curve falls strictly as N grows
    for variant in VARIANTS:
        totals = default_totals(variant)
        values = [
            gaussian_tail_probability(split_rounds(variant, total)) for total in totals
        ]
        if not all(a > b for a, b in zip(values, values[1:])):
            problems.append((variant, "not strictly decreasing", values))

    # (b) at any common N the most uneven split violates most
    for total in (2**k for k in range(2, 13)):
        by_variant = {}
        for variant, weights in VARIANTS.items():
            divisor = sum(weights)
            by_variant[variant] = gaussian_tail_probability(
                tuple(total * w / divisor for w in weights)
            )
        if not by_variant["ratio100"] >= by_variant["ratio10"] >= by_variant["equal"]:
            problems.append((total, "variant ordering", by_variant))
    # integer-split spot checks where two variants share a feasible N
    for total, pair in ((124, ("ratio10", "equal")), (1204, ("ratio100", "equal"))):
        upper = gaussian_tail_probability(split_rounds(pair[0], total))
        lower = gaussian_tail_probability(split_rounds(pair[1], total))
        if not upper >= lower:
            problems.append((total, "integer split ordering", pair, upper, lower))

    # (c) exact strict/non-strict brackets around the analytic curve
    print("[criterion 5] exact intervals (equal split): N, strict, analytic, non-strict")
    for total in (4, 8, 12, 16, 20):
        config = ExperimentConfig((total // 4,) * 4)
        strict = exact_violation_probability(config, STRICT).value
        nonstrict = exact_violation_probability(config, NON_STRICT).value
        analytic = analytic_violation_probability(config).value
        position = "inside" if float(strict) <= analytic <= float(nonstrict) else "OUTSIDE"
        print(
            f"    N={total:>2}: {str(strict):>12} ({float(strict):.8f})  "
            f"<= {analytic:.8f} <= {str(nonstrict):>12} ({float(nonstrict):.8f})  [{position}]"
        )
        if position != "inside":
            problems.append((total, "interval", strict, analytic, nonstrict))

    elapsed = time.perf_counter() - start
    _report(
        5,
        "probability-vs-N curve properties",
        not problems and elapsed < 60.0,
        f"monotone decrease, variant ordering, and five interval brackets hold; "
        f"{elapsed:.1f} s (< 60 s)" + (f"; problems: {problems}" if problems else ""),
    )


def test_criterion_6_monte_carlo_consistency_and_reproducibility():
    start = time.perf_counter()
    config = ExperimentConfig((1, 1, 1, 1))
    sequential = estimate_violation_probability(config, 10**6, seed=42, threshold=STRICT)
    parallel = estimate_violation_probability(
        config, 10**6, seed=42, threshold=STRICT, workers=8
    )
    sigma = math.sqrt(0.125 * 0.875 / 10**6)
    deviation = abs(sequential.estimate - 0.125)
    elapsed = time.perf_counter() - start
    _report(
        6,
        "Monte Carlo consistency",
        deviation <= 4 * sigma and sequential == parallel and elapsed < 30.0,
        f"estimate {sequential.estimate:.6f} vs 0.125, |diff| = {deviation:.2e} "
        f"<= 4 sigma = {4 * sigma:.2e}; 1-worker and 8-worker runs identical "
        f"({sequential.hits} hits); {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_7_gaussian_approximation_window():
    start = time.perf_counter()
    n = 256
    pmf = walk_pmf(n)
    reach = 3 * math.isqrt(n)
    worst = 0.0
    for m in range(-reach, reach + 1):
        if (m - n) % 2:
            continue
        mass = float(pmf[m])
        approx = 2.0 * gaussian_density(n, float(m))
        worst = max(worst, abs(approx - mass) / mass)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "lattice Gaussian approximation",
        worst <= 0.05 and elapsed < 5.0,
        f"n = {n}, |m| <= {reach}: worst relative deviation {worst:.4f} (<= 0.05); "
        f"{elapsed:.2f} s (< 5 s)",
    )


def test_criterion_8_erfc_accuracy():
    start = time.perf_counter()
    worst_rel = 0.0
    for j in range(25):
        x = Fraction(5 * j, 24)
        reference, bound = erfc_series(x)
        assert bound < Fraction(1, 10**25)
        rel = abs(math.erfc(float(x)) - float(reference)) / float(reference)
        worst_rel = max(worst_rel, rel)
    zero_exact = math.erfc(0.0) == 1.0
    worst_reflection = max(
        abs(math.erfc(x / 4.0) + math.erfc(-x / 4.0) - 2.0) for x in range(-40, 41)
    )
    elapsed = time.perf_counter() - start
    _report(
        8,
        "erfc accuracy",
        worst_rel <= 1e-12 and zero_exact and worst_reflection <= 1e-12 and elapsed < 1.0,
        f"25-point series-oracle grid worst relative error {worst_rel:.2e} (<= 1e-12), "
        f"erfc(0) == 1 exactly, reflection defect {worst_reflection:.2e} (<= 1e-12); "
        f"{elapsed:.2f} s (< 1 s)",
    )
