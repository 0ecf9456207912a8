"""chshprob benchmark: CLI wall time per workload, or per-module timings.

Run from the repository root:

    python3 benchmarks/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload mc-heavy --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --compare BASE.jsonl [NEW.jsonl]

``--trace 0`` times real ``python -m chshprob`` processes, one at a time in
a closed loop, and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the in-process layer suite with spans and reports the
per-layer metrics. Either way the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out FILE``
also appends the full record (with provenance, and spans when traced) to a
JSON-lines file, which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9
# Untimed commands before any timing: they write the bytecode cache and let
# the machine leave an idle state, which otherwise slows the first seconds.
WARMUP_COMMANDS = 4
# Stop starting work after this long, so a run always ends within 180 s.
HARD_LIMIT_S = 165.0


def provenance() -> dict:
    """What the result was measured on."""
    record = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "platform": platform.platform(),
        "cpu_pinning": "none",
        "machine_settings_changed": False,
        "commit": _git_commit(),
        "src_sha256": _tree_digest(ROOT / "src"),
    }
    record.update(_caches())
    return record


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _caches() -> dict:
    caches = {"l2": "unknown", "l3": "unknown", "cpu": "unknown"}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return caches
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "L2 cache":
            caches["l2"] = value.strip()
        elif key.strip() == "L3 cache":
            caches["l3"] = value.strip()
        elif key.strip() == "Model name":
            caches["cpu"] = value.strip()
    return caches


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout; see src_sha256)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
    )
    return proc.stdout.strip() or "unknown"


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.rglob("*.py")):
        digest.update(str(file.relative_to(path)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _spawn(argv, timeout: float):
    """Run one CLI process; returns (seconds, exit code or None on timeout, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            workloads.cli_argv(argv),
            env=workloads.child_env(ROOT),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _control(code: str, timeout: float) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, timeout=timeout, check=True)
    return time.perf_counter() - start


def measure_setup(began: float) -> tuple[float, list[str]]:
    """Median wall time of a fresh ``python -m chshprob --help``."""
    for _ in range(WARMUP_COMMANDS):
        _spawn(["--help"], HARD_LIMIT_S - (time.perf_counter() - began))
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, code, out = _spawn(["--help"], HARD_LIMIT_S - (time.perf_counter() - began))
        times.append(elapsed)
        if code != 0 or "usage" not in out:
            problems.append(f"--help: exit {code}")
    return statistics.median(times), problems


def run_workload(name: str, seed: int, seconds: float) -> dict:
    began = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    ref = checks.load_reference()
    rng = random.Random(f"{name}/{seed}")
    setup_s, failures = measure_setup(began)
    attempted = SETUP_REPEATS

    pass_walls, group_times, samples, timeline, controls = [], [], [], [], []
    rates: dict[int, list[float]] = {}

    for _ in range(workload.passes(seconds)):
        commands = workload.make_pass(rng)
        outputs, groups, work = [], {1: 0.0, 2: 0.0, 3: 0.0}, {}
        pass_start, pass_controls = time.perf_counter(), 0.0
        for index, command in enumerate(commands):
            remaining = HARD_LIMIT_S - (time.perf_counter() - began)
            if remaining <= 0:
                break
            if index % workloads.CONTROL_EVERY == 0:
                controls.append(_control(workload.control, remaining))
                pass_controls += controls[-1]
            elapsed, code, out = _spawn(command.full_argv(), remaining)
            outputs.append((command, code, out))
            samples.append(elapsed)
            timeline.append((" ".join(command.argv), round(time.perf_counter() - began, 3), elapsed))
            groups[command.group] += elapsed
            if command.group in workload.rates:
                work[command.group] = work.get(command.group, 0) + workload.rates[command.group][2](command)
        pass_wall = time.perf_counter() - pass_start - pass_controls
        attempted += len(outputs)

        passed = []
        for command, code, out in outputs:
            argv = " ".join(command.full_argv())
            problem = f"exit {code}" if code != 0 else checks.check_output(command, out, ref)
            if problem:
                failures.append(f"{argv}: {problem}")
            else:
                passed.append((command, out))
        failures += checks.check_pairs(passed)
        if len(outputs) < len(commands):
            failures.append(f"time limit: pass cut after {len(outputs)} of {len(commands)} commands")
            break
        pass_walls.append(pass_wall)
        group_times.append(groups)
        for group, units in work.items():
            rates.setdefault(group, []).append(units / groups[group])

    if not pass_walls:
        raise SystemExit("error: no pass completed within the time limit")
    percentile, tail_s, count = stats.tail(samples)
    raw = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_walls),
        "cmd_p50_s": statistics.median(samples),
        "cmd_tail_s": tail_s,
    }
    for group in (1, 2, 3):
        raw[f"group{group}_s"] = statistics.median(g[group] for g in group_times)
    speed = workload.control_ref_s / statistics.median(controls)
    metrics = {key: value * speed for key, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    details = {
        "passes": len(pass_walls),
        "commands_per_pass": len(workload.base) * workload.copies,
        "cmd_tail_percentile": percentile,
        "cmd_samples": count,
        "raw_seconds": raw,
        "control_median_s": statistics.median(controls),
        "speed_factor": speed,
        "pass_walls": pass_walls,
        "timeline": timeline,
        "group_labels": workload.labels,
        "rates": {workload.rates[g][0]: (statistics.median(v) / speed, workload.rates[g][1]) for g, v in rates.items()},
    }
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "details": details}


def run_trace(name: str, seed: int) -> dict:
    layers = tracing.run_layers(ROOT, name, seed)
    return {
        "metrics": layers.metrics,
        "attempted": layers.attempted,
        "failures": layers.failures,
        "details": {"baseline": layers.baseline, "span_count": len(layers.tracer.spans)},
        "spans": layers.tracer.spans,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(bench: dict, name: str, trace: bool, outcome: dict, prov: dict) -> dict:
    """Print the human-readable report and return the result object."""
    entries = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in entries if m["name"] not in outcome["metrics"]]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    print(f"# chshprob benchmark, workload {name}, {'traced layer run' if trace else 'end to end'}")
    print("# machine: " + json.dumps(prov, sort_keys=True))
    details = outcome["details"]
    for entry in entries:
        value = outcome["metrics"][entry["name"]]
        line = f"{entry['name']:28s} {_fmt(value):>12s} {entry['unit']:9s} ({entry['better']} is better"
        line += f", bound {entry['bound']})" if "bound" in entry else ")"
        if trace:
            moves, holds = tracing.LAYER_NOTES[entry["name"]]
            line += f"  moves: {moves}; not: {holds}"
        print(line)
    if trace:
        print(f"# spans recorded: {details['span_count']}")
        print("# ROADMAP baseline table, this run vs the ROADMAP figure:")
        for label, seconds, roadmap in details["baseline"]:
            print(f"#   {label:60s} {seconds * 1000:10.1f} ms   (ROADMAP: {roadmap})")
    else:
        labels = details["group_labels"]
        for group in (1, 2, 3):
            print(f"# group{group}_s is {labels[group - 1]}")
        for rate, (value, unit) in details["rates"].items():
            print(f"# {rate} = {_fmt(value)} {unit} (higher is better)")
        print(
            f"# times above are scaled by {details['speed_factor']:.4f}, the control's reference time over "
            f"its median {details['control_median_s']:.4f} s in this run; unscaled: "
            + ", ".join(f"{k} {_fmt(v)}" for k, v in details["raw_seconds"].items())
        )
        print(
            f"# cmd_tail_s is p{details['cmd_tail_percentile']:.1f} of {details['cmd_samples']} commands; "
            f"{details['passes']} passes of {details['commands_per_pass']} commands"
        )
    fail_ratio = len(outcome["failures"]) / max(outcome["attempted"], 1)
    print(f"# fail_ratio = {fail_ratio:.6g} ratio (lower is better)")
    for failure in outcome["failures"][:20]:
        print(f"# FAILED {failure}")
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {
            e["name"]: {"value": outcome["metrics"][e["name"]], "unit": e["unit"]} for e in entries
        },
    }


def load_results(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for metric, entry in record["result"]["metrics"].items():
                    values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def compare(bench: dict, base_path: str, new_path: str | None) -> int:
    metrics = bench["end_to_end"] + bench["per_layer"]
    base = load_results(base_path)
    new = load_results(new_path) if new_path else None
    rows = stats.compare(base, new, metrics)
    for row in rows:
        q1, median, q3 = row["base"]
        line = f"{row['workload']:12s} {row['metric']:28s} base {_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}] spread {row['base_spread']:.3f}"
        if "new" in row:
            q1, median, q3 = row["new"]
            line += f" | new {_fmt(median)} [{_fmt(q1)}, {_fmt(q3)}] spread {row['new_spread']:.3f} ratio {row['ratio']:.4f}"
        line += f" {row['unit']} ({row['better']} better, {row['runs']} runs)"
        if "verdict" in row:
            line += f" bound {row['bound']}: {row['verdict']}"
        print(line)
    bad = {"REGRESSED", "noisy"}
    return 1 if any(row.get("verdict") in bad for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS", help="BASE.jsonl [NEW.jsonl]")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two result files")
        return compare(bench, args.compare[0], args.compare[1] if len(args.compare) == 2 else None)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "chshprob" / "__main__.py").is_file():
        print(f"error: no chshprob sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    prov = provenance()
    if args.trace:
        outcome = run_trace(args.workload, args.seed)
    else:
        outcome = run_workload(args.workload, args.seed, args.seconds)
    result = report(bench, args.workload, bool(args.trace), outcome, prov)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "provenance": prov,
            "details": outcome["details"],
            "failures": outcome["failures"],
            "spans": outcome.get("spans", []),
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
