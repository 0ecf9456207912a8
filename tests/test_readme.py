"""The README's library example runs as written and prints what it says,
its CLI block's comments state what the commands give, it and ``mc
--help`` state the fork floor the sampler uses, and every time that it or
the package's source states cites the BENCH file that records it."""

import csv
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

import chshprob
from chshprob import montecarlo
from chshprob.cli import main
from chshprob.exact import enumeration_cost
from chshprob.model import DEFAULT_ENUMERATION_BUDGET, ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"
# a unit of time after a number, as in "0.3 s", "51.4 ms" or "2 minutes", or
# in words, as in "a few ms", "under a minute" or "within seconds"; "a second"
# is left alone, since it is mostly an ordinal
DURATION = re.compile(
    r"\d\s?(?:[mµun]?s|seconds?|minutes?|hours?)\b"
    r"|\b(?:a few|few|several|many|some|within|under|over)\s+[mµun]?s\b"
    r"|\ban?\s+(?:minute|hour)\b"
    r"|\b(?:milli|micro|nano)?(?:seconds|minutes|hours)\b"
)


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _cli_comment(command: str) -> str:
    """The comment on the line of the README's CLI block that runs ``command``."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    (comment,) = (
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.split("#", 1)[0].strip() == command
    )
    return comment


def _run(capsys, command: str) -> str:
    assert main(command.split()[1:]) == 0
    return capsys.readouterr().out


def test_cli_block_comments_state_what_the_commands_give(capsys):
    assert "p = 1/8 = 0.125" in _cli_comment("chshprob toy")
    assert "p = 1/8 = 0.125" in _run(capsys, "chshprob toy")
    command = "chshprob exact 1 1 1 1 --strict"
    (row,) = csv.DictReader(io.StringIO(_run(capsys, command)))
    assert _cli_comment(command).startswith(f"{row['value']} ({row['value_decimal']})")
    assert (row["value"], row["value_decimal"]) == ("1/8", "0.125")
    command = "chshprob approx 25 25 25 25"
    (row,) = csv.DictReader(io.StringIO(_run(capsys, command)))
    stated = float(re.search(r"~ (\S+)$", _cli_comment(command)).group(1))
    assert stated == 5.73e-7 and abs(float(row["value"]) / stated - 1) < 0.001
    # priced without running it, which takes seconds
    command = "chshprob exact 1 1 1 800000 --budget 80000000 > p.csv"
    priced, budget = re.fullmatch(r"priced (\S+), past the default budget (\S+)", _cli_comment(command)).groups()
    cost = enumeration_cost(ExperimentConfig((1, 1, 1, 800000)))
    assert (priced, float(budget)) == ("7.8e7", DEFAULT_ENUMERATION_BUDGET)
    assert round(cost, -6) == float(priced) and DEFAULT_ENUMERATION_BUDGET < cost <= 80_000_000


def _unbacked_durations(text: str) -> list[str]:
    """The sentences of ``text`` that state a duration but name no BENCH
    file at the repo root."""
    sentences = re.split(r"(?<=[.!?])\s+(?=[A-Z`(])", " ".join(text.split()))
    return [
        sentence
        for sentence in sentences
        if DURATION.search(sentence)
        and not any((README.parent / name).is_file() for name in re.findall(r"BENCH_\w+\.json", sentence))
    ]


def test_every_stated_duration_cites_a_bench_file():
    # a time figure that no BENCH file records cannot be reproduced
    for path in (README, *sorted(Path(chshprob.__file__).parent.glob("*.py"))):
        assert _unbacked_durations(path.read_text()) == [], path.name
    bench = min(path.name for path in README.parent.glob("BENCH_*.json"))
    stated = (
        "It took 0.3 s.\nIt ran in 51.4\nms. It took 2 s (`BENCH_0000000.json`). Done in 45 ms (`%s`). "
        "It costs a few ms. It ends within seconds. It draws for under a\nminute. It takes milliseconds. "
        "A second batch of 2 rounds follows. Its sums fit in 64 bits. Done in seconds (`%s`)."
    )
    assert _unbacked_durations(stated % (bench, bench)) == [
        "It took 0.3 s.",
        "It ran in 51.4 ms.",
        "It took 2 s (`BENCH_0000000.json`).",
        "It costs a few ms.",
        "It ends within seconds.",
        "It draws for under a minute.",
        "It takes milliseconds.",
    ]


def test_mc_help_and_readme_state_the_fork_floor(capsys):
    # the parser does not import montecarlo, so its help writes the floor out
    exponent = montecarlo.FORK_FLOOR_ROUNDS.bit_length() - 1
    assert montecarlo.FORK_FLOOR_ROUNDS == 1 << exponent
    assert main(["mc", "--help"]) == 0
    assert f"per 2**{exponent} rounds" in " ".join(capsys.readouterr().out.split())
    assert f"per 2^{exponent} rounds" in " ".join(README.read_text().split())


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(_library_example(), namespace)
    assert namespace["exact"] == Fraction(9, 128)
    assert namespace["approx"] == 0.15729920705028513
    assert namespace["mc"].stream == 7


def test_package_root_is_the_documented_api():
    assert sorted(chshprob.__all__) == sorted([
        "ExperimentConfig",
        "STRICT",
        "NON_STRICT",
        "exact_violation_probability",
        "analytic_violation_probability",
        "estimate_violation_probability",
        "CorruptRecordError",
        "InvalidConfigError",
        "LimitError",
    ])
    assert all(hasattr(chshprob, name) for name in chshprob.__all__)


def test_star_import_binds_every_public_name_and_unknown_names_fail():
    namespace: dict = {}
    exec("from chshprob import *", namespace)
    assert set(chshprob.__all__) <= namespace.keys()
    assert namespace["estimate_violation_probability"] is (
        chshprob.montecarlo.estimate_violation_probability
    )
    with pytest.raises(AttributeError):
        chshprob.no_such_name
