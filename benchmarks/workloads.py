"""Workload definitions: which CLI commands a pass runs, and how they group.

Every workload is a fixed list of ``python -m chshprob`` argument lists. The
workload seed only shuffles their order and picks each ``mc --seed``; the
configurations themselves never depend on it. Each command belongs to one of
three groups, reported as ``group1_s`` .. ``group3_s``; ``Workload.labels``
says what the groups hold in each workload.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

STRICT = "strict"
NON_STRICT = "non-strict"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the benchmark knows about it.

    ``kind`` picks the output check. ``rounds`` and ``threshold`` describe
    the configuration for exact, approx and mc commands, ``trials`` the mc
    trial count. mc commands with the same ``pair`` share their seed within
    a pass and must report the same hit count.
    """

    argv: tuple[str, ...]
    group: int
    kind: str
    rounds: tuple[int, ...] = ()
    threshold: str = STRICT
    trials: int = 0
    pair: str = ""
    seed: int | None = None

    def full_argv(self) -> tuple[str, ...]:
        if self.seed is None:
            return self.argv
        return self.argv + ("--seed", str(self.seed))


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that runs the package from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_argv(argv) -> list[str]:
    return [sys.executable, "-m", "chshprob", *argv]


def _rounds_args(rounds) -> tuple[str, ...]:
    return tuple(str(n) for n in rounds)


def exact(rounds, threshold=STRICT, *, group, fmt="csv") -> Command:
    argv = ("exact",) + _rounds_args(rounds)
    if threshold == NON_STRICT:
        argv += ("--nonstrict",)
    if fmt == "json":
        argv += ("--format", "json")
    return Command(argv, group, "exact", tuple(rounds), threshold)


def approx(rounds, *, group, fmt="csv") -> Command:
    argv = ("approx",) + _rounds_args(rounds)
    if fmt == "json":
        argv += ("--format", "json")
    return Command(argv, group, "approx", tuple(rounds))


def mc(rounds, trials, threshold=STRICT, *, group, workers=1, pair="") -> Command:
    argv = ("mc",) + _rounds_args(rounds) + ("--trials", str(trials))
    if threshold == NON_STRICT:
        argv += ("--nonstrict",)
    if workers != 1:
        argv += ("--workers", str(workers))
    return Command(argv, group, "mc", tuple(rounds), threshold, trials, pair)


def sweep(*args: str, group) -> Command:
    return Command(("sweep",) + args, group, "sweep")


# cli-small: every command is short, so interpreter start, the numpy import
# and argument parsing are nearly all of the time. Group 1 needs no kernel,
# group 2 runs the pure-Python exact and sweep paths, group 3 needs numpy.
_CLI_SMALL_BASE = (
    Command(("toy",), 1, "toy"),
    Command(("toy", "--json"), 1, "toy-json"),
    approx((25, 25, 25, 25), group=1),
    approx((25, 25, 25, 25), group=1, fmt="json"),
    approx((1, 1, 1, 1), group=1),
    exact((1, 1, 1, 1), group=2),
    exact((1, 1, 1, 1), NON_STRICT, group=2),
    exact((2, 2, 2, 2), group=2),
    exact((3, 3, 3, 3), NON_STRICT, group=2, fmt="json"),
    sweep(group=2),
    sweep("--variant", "ratio10", group=2),
    sweep("--variant", "ratio100", group=2),
    sweep("--intervals", group=2),
    sweep("--intervals", "--format", "json", group=2),
    sweep("--variant", "ratio100", "--continuous", "--n-values", "10", "100", "1000", group=2),
    sweep("--variant", "ratio10", "--n-values", "31", "62", "124", group=2),
    mc((2, 2, 2, 2), 10_000, group=3),
    mc((2, 2, 2, 2), 10_000, NON_STRICT, group=3),
)

# exact-heavy: one group per planned exact-engine optimisation. Equal and
# ratio splits are what channel grouping would collapse; four distinct
# counts bypass grouping; one long channel makes the binomial row build
# dominate. A gain in one group paid for in another shows as its own metric.
EXACT_EQUAL = (
    ((99, 99, 99, 99), STRICT),
    ((99, 99, 99, 99), NON_STRICT),
    ((50, 50, 50, 50), STRICT),
    ((9, 90, 90, 90), STRICT),
)
EXACT_DISTINCT = (
    ((60, 70, 80, 90), STRICT),
    ((60, 70, 80, 90), NON_STRICT),
    ((20, 30, 40, 50), STRICT),
)
EXACT_ROWS = (
    ((1, 1, 1, 4096), STRICT),
    ((2, 3, 5, 2000), STRICT),
)
EXACT_GROUPS = (EXACT_EQUAL, EXACT_DISTINCT, EXACT_ROWS)

# mc-heavy: drawing and reducing bits. Short rows of 2 rounds are overhead-
# and reduce-bound, long rows are draw-bound, and the 2-worker run of a long
# config adds the process pool. No config has a tiny probability, so every
# estimate can be checked against the exact value.
MC_SHORT = (((2, 2, 2, 2), 4_000_000, STRICT), ((2, 2, 2, 2), 4_000_000, NON_STRICT))
MC_LONG = (((1, 1, 1000, 1000), 100_000, STRICT), ((1, 1, 1, 2000), 100_000, STRICT))
MC_W2 = (((1, 1, 1000, 1000), 100_000, STRICT),)


def _exact_heavy_base() -> tuple[Command, ...]:
    return tuple(
        exact(rounds, threshold, group=index)
        for index, configs in enumerate(EXACT_GROUPS, start=1)
        for rounds, threshold in configs
    )


def _mc_heavy_base() -> tuple[Command, ...]:
    long_pair = "long-1-1-1000-1000"
    commands = [mc(r, t, th, group=1) for r, t, th in MC_SHORT]
    commands += [
        mc(r, t, th, group=2, pair=long_pair if r == MC_W2[0][0] else "")
        for r, t, th in MC_LONG
    ]
    commands += [mc(r, t, th, group=3, workers=2, pair=long_pair) for r, t, th in MC_W2]
    return tuple(commands)


# Controls: interpreter start and the numpy import, as every command has;
# plus pure-Python integer arithmetic like the exact kernel, or int8 draws
# and row sums like the MC sampler.
CONTROL_EVERY = 3
CONTROL_IMPORT = "import numpy"
CONTROL_PYTHON = "import numpy\nt = 0\nfor i in range(1_000_000): t += i * i"
CONTROL_NUMPY = (
    "import numpy as np\nrng = np.random.default_rng(1)\nfor _ in range(12): "
    "rng.integers(0, 2, size=(4096, 512), dtype=np.int8).sum(axis=1, dtype=np.int64)"
)


def _trials(command: Command) -> int:
    return command.trials


def _rounds(command: Command) -> int:
    return command.trials * sum(command.rounds)


@dataclass(frozen=True)
class Workload:
    name: str
    base: tuple[Command, ...]
    # Copies of ``base`` in one pass, so that a pass is long enough to time.
    copies: int
    # Approximate seconds per pass on a 2-core x86 box with the seed code;
    # only used to turn --seconds into a fixed number of passes.
    nominal_pass_s: float
    # What group1_s .. group3_s hold, as printed in the report.
    labels: tuple[str, str, str]
    # A stand-in for this workload's commands that runs no package code:
    # Python source for ``python -c``, run before every third command. The
    # ratio of ``control_ref_s`` to its median in a run scales that run's
    # times, which cancels the drift of a shared machine's speed.
    control: str
    control_ref_s: float
    # Groups whose work is a fixed count: group -> (rate name, unit, work of
    # one command). The rate is printed; the gated metric is the time.
    rates: dict = field(default_factory=dict)

    def passes(self, seconds: float) -> int:
        """Whole passes a run of ``seconds`` makes. Fixed for a given
        ``seconds`` so that every run, on any commit, times the same work."""
        return max(1, math.floor(seconds / self.nominal_pass_s + 0.5))

    def make_pass(self, rng: random.Random) -> list[Command]:
        """One pass: the base list ``copies`` times, shuffled, with fresh
        mc seeds (shared by commands of the same pair)."""
        commands = list(self.base) * self.copies
        rng.shuffle(commands)
        seeds: dict[str | int, int] = {}
        out = []
        for index, command in enumerate(commands):
            if command.kind == "mc":
                key = command.pair or index
                if key not in seeds:
                    seeds[key] = rng.randrange(1, 2**31)
                command = replace(command, seed=seeds[key])
            out.append(command)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-small",
            _CLI_SMALL_BASE,
            copies=2,
            nominal_pass_s=10.5,
            labels=("toy+approx (startup only)", "exact+sweep (pure Python)", "mc (numpy)"),
            control=CONTROL_IMPORT,
            control_ref_s=0.17,
        ),
        Workload(
            "exact-heavy",
            _exact_heavy_base(),
            copies=1,
            nominal_pass_s=6.5,
            labels=("exact_equal_s", "exact_distinct_s", "exact_rows_s"),
            control=CONTROL_PYTHON,
            control_ref_s=0.33,
        ),
        Workload(
            "mc-heavy",
            _mc_heavy_base(),
            copies=1,
            nominal_pass_s=5.0,
            labels=("mc_short (trials/s)", "mc_long (rounds/s)", "mc_w2 (rounds/s)"),
            control=CONTROL_NUMPY,
            control_ref_s=0.30,
            rates={
                1: ("mc_short_trials_per_s", "trials/s", _trials),
                2: ("mc_long_rounds_per_s", "rounds/s", _rounds),
                3: ("mc_w2_rounds_per_s", "rounds/s", _rounds),
            },
        ),
    )
}


def all_commands() -> list[Command]:
    """Every distinct command of every workload (seeds unset)."""
    seen = []
    for workload in WORKLOADS.values():
        for command in workload.base:
            if command not in seen:
                seen.append(command)
    return seen
