"""The README's library example runs as written and prints what it says."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import chshprob

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(_library_example(), namespace)
    assert namespace["exact"] == Fraction(9, 128)
    assert namespace["approx"] == 0.15729920705028513
    assert namespace["mc"].stream == 3


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
