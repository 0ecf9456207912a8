"""The traced run: each module's public functions called in-process, with a
span around every call.

Spans are recorded from this file only, around calls into the package; the
one reach inside is that ``chshprob.model.walk_pmf`` is wrapped for the
duration of the exact calls, so the binomial row build shows as a child span
and the exact kernel's self time can be read off. Startup is measured from
outside, by spawning interpreters.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import stats
import workloads
from workloads import STRICT

# Repeats for cheap layers; medians over them are reported.
REPEATS = 3
STARTUP_REPEATS = 5
ANALYTIC_BLOCKS = 5
ANALYTIC_CALLS_PER_BLOCK = 200
SPAN_COST_SAMPLES = 20_000

# Which end-to-end metric each layer metric should move, on which workload,
# and where it should not move.
LAYER_NOTES = {
    "startup.interp_s": ("nothing (machine baseline)", "all"),
    "startup.numpy_import_s": ("setup_s; cmd_p50_s, group1_s, group2_s on cli-small", "group*_s on mc-heavy"),
    "startup.pkg_import_s": ("setup_s (all); cmd_p50_s, cmd_tail_s on cli-small", "-"),
    "cli.parse_s": ("cmd_p50_s on cli-small", "exact-heavy, mc-heavy"),
    "cli.main_s": ("cmd_p50_s on cli-small", "-"),
    "cli.sweep_rows_s": ("group2_s, cmd_p50_s on cli-small", "exact-heavy, mc-heavy"),
    "walks.walk_pmf_s": ("group3_s (exact_rows_s) on exact-heavy", "cli-small (n <= 5)"),
    "walks.terms_per_s": ("group3_s (exact_rows_s) on exact-heavy", "cli-small"),
    "model.exact_equal_s": ("group1_s (exact_equal_s) on exact-heavy", "the other two groups"),
    "model.exact_distinct_s": ("group2_s (exact_distinct_s) on exact-heavy", "the other two groups"),
    "model.exact_rows_s": ("group3_s (exact_rows_s) on exact-heavy", "the other two groups"),
    "model.exact_self_s": ("group1_s, group2_s on exact-heavy", "group3_s on exact-heavy"),
    "model.lattice_per_s": ("group1_s, group2_s on exact-heavy", "-"),
    "model.cost_spread": ("no timing; whether exit-2 budget refusals are truthful", "-"),
    "model.analytic_us": ("cmd_p50_s on cli-small", "exact-heavy, mc-heavy"),
    "montecarlo.short_w1_s": ("group1_s (mc_short) on mc-heavy", "exact-heavy"),
    "montecarlo.long_w1_s": ("group2_s (mc_long) on mc-heavy", "exact-heavy"),
    "montecarlo.draws_per_s": ("group2_s (mc_long) on mc-heavy", "exact-heavy"),
    "montecarlo.long_w2_s": ("group3_s (mc_w2) on mc-heavy", "-"),
    "montecarlo.pool_overhead_s": ("group3_s (mc_w2) on mc-heavy", "-"),
    "montecarlo.batches": ("peak_rss_mb on mc-heavy", "-"),
    "trace.overhead_s": ("nothing (cost of the spans themselves)", "all"),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent index and run id,
    plus the keyword attributes given when the span opened."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def span_cost(self, samples: int = SPAN_COST_SAMPLES) -> float:
        """Seconds one empty span adds, measured against an empty context."""
        probe = Tracer("probe")
        null = contextlib.nullcontext()
        start = time.perf_counter()
        for _ in range(samples):
            with null:
                pass
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        traced = time.perf_counter() - start
        return max(0.0, (traced - bare) / samples)


class LayerRun:
    """State of one traced run: tracer, checks done, and failures."""

    def __init__(self, root: Path, seed: int, workload: str):
        self.root = root
        self.rng = random.Random(f"trace/{workload}/{seed}")
        self.tracer = Tracer(f"{workload}/{seed}")
        self.ref = checks.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.baseline: list[tuple[str, float, str]] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def seed(self) -> int:
        return self.rng.randrange(1, 2**31)


def startup_layer(run: LayerRun) -> None:
    env = workloads.child_env(run.root)
    probes = {
        "startup.interp": "pass",
        "startup.numpy": "import numpy",
        "startup.pkg": "import chshprob.cli",
    }
    for _ in range(STARTUP_REPEATS):
        order = list(probes.items())
        run.rng.shuffle(order)
        for name, code in order:
            with run.tracer.span(name):
                proc = subprocess.run(
                    [sys.executable, "-c", code], env=env, cwd=run.root, capture_output=True, timeout=60
                )
            run.check(name, None if proc.returncode == 0 else f"exit {proc.returncode}")
    interp = statistics.median(run.tracer.durations("startup.interp"))
    run.metrics["startup.interp_s"] = interp
    run.metrics["startup.numpy_import_s"] = statistics.median(run.tracer.durations("startup.numpy")) - interp
    run.metrics["startup.pkg_import_s"] = statistics.median(run.tracer.durations("startup.pkg")) - interp


def cli_layer(run: LayerRun, cli) -> None:
    tracer = run.tracer
    commands = workloads.WORKLOADS["cli-small"].make_pass(run.rng)
    for _ in range(REPEATS):
        with tracer.span("cli.parse_suite"):
            for command in commands:
                with tracer.span("cli.parse", argv=command.full_argv()):
                    cli.build_parser().parse_args(list(command.full_argv()))
        with tracer.span("cli.main_suite"):
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with tracer.span("cli.main", argv=command.full_argv()):
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(list(command.full_argv()))
                problem = f"exit {code}" if code != 0 else checks.check_output(command, out.getvalue(), run.ref)
                run.check("cli.main " + " ".join(command.full_argv()), problem)
    run.metrics["cli.parse_s"] = statistics.median(tracer.durations("cli.parse_suite"))
    run.metrics["cli.main_s"] = statistics.median(tracer.durations("cli.main_suite"))

    requests = [cli.SweepRequest(v, cli.default_totals(v)) for v in cli.VARIANTS]
    requests.append(cli.SweepRequest("equal", cli.default_totals("equal"), include_exact_intervals=True))
    requests += [cli.SweepRequest(v, cli.default_totals(v), continuous=True) for v in cli.VARIANTS]
    for _ in range(REPEATS):
        with tracer.span("cli.sweep_suite"):
            for request in requests:
                with tracer.span("cli.sweep_rows", variant=request.variant):
                    rows = cli.sweep_rows(request)
                _check_sweep_rows(run, request, rows)
    run.metrics["cli.sweep_rows_s"] = statistics.median(tracer.durations("cli.sweep_suite"))


def _check_sweep_rows(run: LayerRun, request, rows: list[dict]) -> None:
    """Compare with the recorded CLI output of the same sweep, where there is one."""
    argv = ["sweep"]
    if request.variant != "equal":
        argv += ["--variant", request.variant]
    if request.include_exact_intervals:
        argv.append("--intervals")
    reference = run.ref["sweep"].get(checks.sweep_key(argv))
    if reference is None or request.continuous:
        return
    cells = [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]
    problems = checks.compare_sweep(reference, cells, request.variant)
    run.check(" ".join(argv) + " (sweep_rows)", "; ".join(problems[:3]) or None)


def _exact_counts() -> list[int]:
    return sorted({n for group in workloads.EXACT_GROUPS for rounds, _ in group for n in rounds})


def walks_layer(run: LayerRun, walks) -> None:
    tracer = run.tracer
    counts = _exact_counts()
    per_n = {}
    for n in counts:
        times = []
        for _ in range(REPEATS):
            with tracer.span("walks.walk_pmf", n=n) as span:
                walks.walk_pmf(n)
            times.append(span["end"] - span["start"])
        per_n[n] = statistics.median(times)
    total = sum(per_n.values())
    run.metrics["walks.walk_pmf_s"] = total
    run.metrics["walks.terms_per_s"] = sum(n + 1 for n in counts) / total
    run.baseline.append(("walk_pmf(4096), Fraction dict", per_n[4096], "1671 ms"))
    start = time.perf_counter()
    row = [1]
    for i in range(4096):
        row.append(row[-1] * (4096 - i) // (i + 1))
    run.baseline.append(("same row as integers, C(n,i) recurrence (benchmark's own)", time.perf_counter() - start, "7 ms"))


def model_layer(run: LayerRun, model) -> None:
    tracer = run.tracer
    original = getattr(model, "walk_pmf", None)

    def traced_walk_pmf(n, *args, **kwargs):
        with tracer.span("model.row", n=n):
            return original(n, *args, **kwargs)

    names = ("model.exact_equal_s", "model.exact_distinct_s", "model.exact_rows_s")
    seconds, costs, lattice = [], [], 0
    if original is not None:
        model.walk_pmf = traced_walk_pmf
    try:
        for name, group in zip(names, workloads.EXACT_GROUPS):
            group_total = 0.0
            for rounds, threshold in group:
                config = model.ExperimentConfig(rounds=rounds)
                with tracer.span("model.exact", rounds=rounds, threshold=threshold) as span:
                    result = model.exact_violation_probability(config, threshold)
                elapsed = span["end"] - span["start"]
                group_total += elapsed
                seconds.append(elapsed)
                costs.append(model.enumeration_cost(config))
                lattice += math.prod(n + 1 for n in rounds)
                want = Fraction(run.ref["exact"][checks.exact_key(rounds, threshold)])
                run.check(f"exact {rounds} {threshold}", None if result.value == want else f"{result.value} != {want}")
                if rounds == (99, 99, 99, 99) and threshold == STRICT:
                    run.baseline.append(("exact (99,)*4", elapsed, "584 ms"))
                if rounds == (50, 50, 50, 50):
                    run.baseline.append(("exact (50,)*4", elapsed, "84 ms"))
                if rounds == (1, 1, 1, 4096):
                    run.baseline.append(("exact (1,1,1,4096)", elapsed, "1.6 s"))
            run.metrics[name] = group_total
    finally:
        if original is not None:
            model.walk_pmf = original
    self_time = stats.self_times(tracer.spans)
    run.metrics["model.exact_self_s"] = sum(
        self_time[i] for i, s in enumerate(tracer.spans) if s["name"] == "model.exact"
    )
    run.metrics["model.lattice_per_s"] = lattice / sum(seconds)
    run.metrics["model.cost_spread"] = stats.cost_spread(seconds, costs)

    config = model.ExperimentConfig(rounds=(25, 25, 25, 25))
    with tracer.span("model.exact", rounds=config.rounds, threshold=STRICT, baseline=True) as span:
        result = model.exact_violation_probability(config)
    run.baseline.append(("exact (25,)*4", span["end"] - span["start"], "11 ms"))
    want = Fraction(run.ref["exact"][checks.exact_key(config.rounds, STRICT)])
    run.check("exact (25,)*4", None if result.value == want else f"{result.value} != {want}")


def analytic_layer(run: LayerRun, model, cli) -> None:
    configs = [
        model.ExperimentConfig(rounds=parts)
        for variant in cli.VARIANTS
        for total in cli.default_totals(variant)
        if (parts := cli.split_rounds(variant, total)) is not None
    ]
    per_call = []
    for _ in range(ANALYTIC_BLOCKS):
        with run.tracer.span("model.analytic_block", calls=len(configs) * ANALYTIC_CALLS_PER_BLOCK) as span:
            for _ in range(ANALYTIC_CALLS_PER_BLOCK):
                for config in configs:
                    model.analytic_violation_probability(config)
        per_call.append((span["end"] - span["start"]) / (len(configs) * ANALYTIC_CALLS_PER_BLOCK))
    run.metrics["model.analytic_us"] = statistics.median(per_call) * 1e6
    for config in configs:
        got = float(model.analytic_violation_probability(config).value)
        want = checks.erfc_tail(config.rounds)
        run.check(f"analytic {config.rounds}", None if checks.close(got, want) else f"{got!r} != {want!r}")


def _estimate(run: LayerRun, montecarlo, model, rounds, trials, threshold, workers, seed, label):
    config = model.ExperimentConfig(rounds=rounds)
    with run.tracer.span("montecarlo.estimate", rounds=rounds, trials=trials, workers=workers, label=label) as span:
        estimate = montecarlo.estimate_violation_probability(config, trials, seed, threshold, workers=workers)
    key = checks.exact_key(rounds, threshold)
    if key in run.ref["exact"]:
        z = checks.mc_z(estimate.hits, trials, float(Fraction(run.ref["exact"][key])))
        run.check(f"mc {rounds} z", None if abs(z) <= checks.MAX_Z else f"z = {z:+.2f}")
    return span["end"] - span["start"], estimate.hits


def _batches(montecarlo, rounds, trials) -> int:
    batch = max(1, min(montecarlo.MAX_BATCH_TRIALS, montecarlo.BATCH_ELEMENT_BUDGET // max(rounds)))
    return -(-trials // batch)


def montecarlo_layer(run: LayerRun, montecarlo, model) -> None:
    short = sum(
        _estimate(run, montecarlo, model, r, t, th, 1, run.seed(), "short")[0]
        for r, t, th in workloads.MC_SHORT
    )
    run.metrics["montecarlo.short_w1_s"] = short

    pair_seed = run.seed()
    long_total, rounds_drawn, w1_pair = 0.0, 0, None
    for r, t, th in workloads.MC_LONG:
        paired = r == workloads.MC_W2[0][0]
        elapsed, hits = _estimate(run, montecarlo, model, r, t, th, 1, pair_seed if paired else run.seed(), "long")
        long_total += elapsed
        rounds_drawn += t * sum(r)
        if paired:
            w1_pair = (elapsed, hits)
    run.metrics["montecarlo.long_w1_s"] = long_total
    run.metrics["montecarlo.draws_per_s"] = rounds_drawn / long_total

    (r, t, th), = workloads.MC_W2
    w2_elapsed, w2_hits = _estimate(run, montecarlo, model, r, t, th, 2, pair_seed, "w2")
    run.check(f"mc {r} w1 == w2 hits", None if w2_hits == w1_pair[1] else f"{w1_pair[1]} != {w2_hits}")
    run.metrics["montecarlo.long_w2_s"] = w2_elapsed
    run.metrics["montecarlo.pool_overhead_s"] = w2_elapsed - w1_pair[0] / 2
    run.metrics["montecarlo.batches"] = float(
        sum(_batches(montecarlo, r, t) for r, t, _ in workloads.MC_SHORT + workloads.MC_LONG + workloads.MC_W2)
    )

    # The ROADMAP baseline MC rows.
    for rounds, trials, label, roadmap in (
        ((2, 2, 2, 2), 1_000_000, "MC 1e6 trials (2,2,2,2), 1 worker", "125 ms"),
        ((25, 25, 25, 25), 1_000_000, "MC 1e6 trials (25,)*4, 1 worker", "430 ms"),
    ):
        elapsed, _ = _estimate(run, montecarlo, model, rounds, trials, STRICT, 1, run.seed(), "baseline")
        run.baseline.append((label, elapsed, roadmap))
    seed = run.seed()
    big = (1000, 1000, 1000, 1000)
    e1, h1 = _estimate(run, montecarlo, model, big, 100_000, STRICT, 1, seed, "baseline")
    e2, h2 = _estimate(run, montecarlo, model, big, 100_000, STRICT, 2, seed, "baseline")
    run.check("mc (1000,)*4 w1 == w2 hits", None if h1 == h2 else f"{h1} != {h2}")
    run.baseline.append(("MC 1e5 trials (1000,)*4, 1 worker", e1, "1350 ms"))
    run.baseline.append(("MC 1e5 trials (1000,)*4, 2 workers", e2, "-"))


def run_layers(root: Path, workload: str, seed: int) -> LayerRun:
    """The whole traced run. Metric names match BENCHMARK.json per_layer."""
    run = LayerRun(root, seed, workload)
    startup_layer(run)
    sys.path.insert(0, str(root / "src"))
    from chshprob import cli, model, montecarlo, walks

    cli_layer(run, cli)
    walks_layer(run, walks)
    model_layer(run, model)
    analytic_layer(run, model, cli)
    montecarlo_layer(run, montecarlo, model)

    run.baseline.append(("import numpy (fresh interpreter, minus bare start)", run.metrics["startup.numpy_import_s"], "167 ms"))
    run.baseline.append(("import chshprob.cli (same)", run.metrics["startup.pkg_import_s"], "223 ms"))
    command = workloads.approx((25, 25, 25, 25), group=1)
    with run.tracer.span("cli.process", argv=command.argv) as span:
        proc = subprocess.run(
            workloads.cli_argv(command.argv), env=workloads.child_env(root), cwd=root,
            capture_output=True, text=True, timeout=60,
        )
    run.check("approx 25 25 25 25 process", f"exit {proc.returncode}" if proc.returncode else checks.check_output(command, proc.stdout, run.ref))
    run.baseline.append(("chshprob approx 25 25 25 25, end to end", span["end"] - span["start"], "0.39 s"))

    run.metrics["trace.overhead_s"] = run.tracer.span_cost() * len(run.tracer.spans)
    return run

