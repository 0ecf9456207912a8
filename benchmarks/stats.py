"""Pure helpers: order statistics, span self time, cost spread, comparison."""

from __future__ import annotations

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (percentile, value, sample count). The value is the order
    statistic of rank ``n - beyond`` (1-based), so exactly ``beyond``
    samples lie above it. With ``beyond`` or fewer samples there is no such
    rank and the median stands in, reported as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return 50.0, statistics.median(ordered), n
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1], n


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of it that its
    direct children cover. ``spans`` is a sequence of dicts with ``start``,
    ``end`` and ``parent`` (an index into ``spans`` or None); the result is
    keyed by span index."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[index] = (end - start) - covered
    return result


def cost_spread(seconds, costs) -> float:
    """max/min over configs of seconds per unit of the program's cost model.

    1.0 means the cost model is proportional to the time it budgets.
    """
    rates = [t / c for t, c in zip(seconds, costs)]
    return max(rates) / min(rates)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if better == "lower":
        return new / base - 1.0
    return base / new - 1.0


def compare(base: dict, new: dict | None, metrics: list[dict]) -> list[dict]:
    """Compare two result sets metric by metric.

    ``base`` and ``new`` map (workload, metric name) to the values of all
    runs. ``metrics`` are the BENCHMARK.json metric entries; those without a
    ``bound`` are compared but never judged. With ``new`` None, only the
    spread of ``base`` is judged, against a third of the bound.
    """
    rows = []
    for (workload, name), base_values in sorted(base.items()):
        meta = next((m for m in metrics if m["name"] == name), None)
        if meta is None:
            continue
        bound = meta.get("bound")
        row = {
            "workload": workload,
            "metric": name,
            "unit": meta["unit"],
            "better": meta["better"],
            "bound": bound,
            "base": quartiles(base_values),
            "base_spread": spread(base_values),
            "runs": len(base_values),
        }
        if new is None:
            if bound is not None:
                row["verdict"] = "steady" if row["base_spread"] < bound / 3 else "noisy"
        elif (workload, name) in new:
            new_values = new[(workload, name)]
            row["new"] = quartiles(new_values)
            row["new_spread"] = spread(new_values)
            row["ratio"] = row["new"][1] / row["base"][1] if row["base"][1] else math.inf
            if bound is not None:
                worse = worse_by(row["base"][1], row["new"][1], meta["better"])
                every_run_better = all(
                    worse_by(b, n, meta["better"]) < 0 for b in base_values for n in new_values
                )
                if worse > bound:
                    row["verdict"] = "REGRESSED"
                elif max(row["base_spread"], row["new_spread"]) > bound and not every_run_better:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "ok"
        rows.append(row)
    return rows
