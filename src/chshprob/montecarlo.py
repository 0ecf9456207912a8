"""Seeded Monte Carlo simulation of finite-round experiments.

Round-level sampling: every channel round is an independent fair +-1 draw,
an experiment is a full tally, and the violation frequency over many
experiments estimates the same probability the exact and analytic routes
compute.  Streams are derived from a user seed through numpy SeedSequence
spawning, so runs are reproducible bit-for-bit regardless of how many
workers execute the trial batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidConfigError
from .model import (
    CHANNEL_SIGNS,
    STRICT,
    ExperimentConfig,
    _check_threshold,
)

# Fixed batching rule: batch b of a run draws from the child stream
# SeedSequence(seed, spawn_key=(b,)).  Batch size depends only on the
# config (bounding the per-channel draw matrix), never on the worker
# count, which is what makes 1-worker and k-worker runs bit-identical.
BATCH_ELEMENT_BUDGET = 1 << 22
MAX_BATCH_TRIALS = 1 << 16

_Z95 = NormalDist().inv_cdf(0.975)


@dataclass(frozen=True)
class McEstimate:
    """Violation-frequency estimate with its 95% Wilson interval."""

    trials: int
    hits: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int
    threshold: str
    config: ExperimentConfig

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.trials:
            raise InvalidConfigError(f"hits {self.hits} outside 0..{self.trials}")
        if not (0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0):
            raise InvalidConfigError(
                f"interval disordered: {self.ci_low} <= {self.estimate} <= {self.ci_high} required"
            )
        _check_threshold(self.threshold)


def wilson_interval(hits: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Chosen over the Wald interval because it stays sensible when hits is 0
    or tiny, the usual regime for rare violations.
    """
    if trials < 1 or not 0 <= hits <= trials:
        raise InvalidConfigError(f"need 0 <= hits <= trials, got hits={hits} trials={trials}")
    p = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the true interval always contains p; the clamps only absorb last-ulp rounding
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _batch_trials(rounds: tuple[int, ...]) -> int:
    return max(1, min(MAX_BATCH_TRIALS, BATCH_ELEMENT_BUDGET // max(rounds)))


def _seed_entropy(seed: int) -> int:
    # SeedSequence rejects negative entropy; keep the 64-bit pattern instead.
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _check_run(trials: int, workers: int) -> None:
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")


def _batch_hits(
    rounds: tuple[int, ...],
    seed: int,
    batch_index: int,
    count: int,
    threshold: str,
) -> int:
    """Violations among ``count`` experiments drawn from batch substream ``batch_index``.

    Channel k's rounds are the next n_k bits of each experiment's row, in
    channel order.  The violation test compares the integer
    sum_k sign_k*q_k*m_k against 2*lcm(rounds), which is the correlation
    inequality with denominators cleared; int64 covers any |sum| up to
    4*lcm, and configurations beyond that accumulate Python integers.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=_seed_entropy(seed), spawn_key=(batch_index,))
    )
    scale = math.lcm(*rounds)
    bound = 2 * scale
    dtype = np.int64 if 4 * scale < 2**62 else object
    acc = np.zeros(count, dtype=dtype)
    for sign, n in zip(CHANNEL_SIGNS, rounds):
        steps = rng.integers(0, 2, size=(count, n), dtype=np.int8)
        sums = 2 * steps.sum(axis=1, dtype=np.int64) - n
        acc += sign * (scale // n) * sums.astype(dtype, copy=False)
    magnitudes = np.abs(acc)
    if threshold == STRICT:
        return int(np.count_nonzero(magnitudes > bound))
    return int(np.count_nonzero(magnitudes >= bound))


def estimate_violation_probability(
    config: ExperimentConfig,
    trials: int,
    seed: int,
    threshold: str = STRICT,
    *,
    workers: int = 1,
) -> McEstimate:
    """Estimate the violation probability from ``trials`` simulated experiments.

    Deterministic in (seed, trials, config, threshold): trials are cut into
    fixed-size batches with per-batch substreams and hits are summed, so any
    worker count reproduces the sequential result exactly.
    """
    _check_threshold(threshold)
    _check_run(trials, workers)
    batch = _batch_trials(config.rounds)
    spans = [
        (config.rounds, seed, index, min(batch, trials - start), threshold)
        for index, start in enumerate(range(0, trials, batch))
    ]
    if workers > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(_batch_hits, *zip(*spans)))
    else:
        hits = sum(_batch_hits(*span) for span in spans)

    low, high = wilson_interval(hits, trials)
    return McEstimate(
        trials=trials,
        hits=hits,
        estimate=hits / trials,
        ci_low=low,
        ci_high=high,
        seed=seed,
        threshold=threshold,
        config=config,
    )
