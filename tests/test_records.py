"""The six record classes are immutable values: compared, hashed, printed,
pickled and copied by their fields, and validated on every construction."""

import copy
import pickle
from fractions import Fraction

import pytest

from chshprob.cli import SweepRequest
from chshprob.errors import CorruptRecordError, InvalidConfigError
from chshprob.model import ExperimentConfig, MeasurementRecord, RoundTally, ViolationProbability
from chshprob.montecarlo import STREAM_VERSION, McEstimate

CONFIG = ExperimentConfig(rounds=(2, 2, 2, 2))

# class, valid keyword arguments, the repr a frozen dataclass printed for
# them, invalid overrides and the error each raises
CASES = {
    "ExperimentConfig": (
        ExperimentConfig,
        dict(rounds=(1, 2, 3, 4)),
        "ExperimentConfig(rounds=(1, 2, 3, 4))",
        [dict(rounds=(0, 1, 1, 1))],
        InvalidConfigError,
    ),
    "MeasurementRecord": (
        MeasurementRecord,
        dict(time_index=1, a=1, b=-1, c=-1, i=1, j=2),
        "MeasurementRecord(time_index=1, a=1, b=-1, c=-1, i=1, j=2)",
        [dict(c=1)],
        CorruptRecordError,
    ),
    "RoundTally": (
        RoundTally,
        dict(m=(1, -1, 1, 1), n=(1, 1, 3, 1)),
        "RoundTally(m=(1, -1, 1, 1), n=(1, 1, 3, 1))",
        [dict(m=(2, 0, 0, 0))],
        InvalidConfigError,
    ),
    "ViolationProbability": (
        ViolationProbability,
        dict(value=Fraction(9, 128), method="exact", threshold="strict", config=CONFIG),
        "ViolationProbability(value=Fraction(9, 128), method='exact', threshold='strict', "
        "config=ExperimentConfig(rounds=(2, 2, 2, 2)))",
        [dict(threshold="loose"), dict(value=2)],
        InvalidConfigError,
    ),
    "SweepRequest": (
        SweepRequest,
        dict(variant="ratio10", n_values=(22, 11, 11)),
        "SweepRequest(variant='ratio10', n_values=(11, 22), include_exact_intervals=False, "
        "continuous=False)",
        [dict(variant="ratio7"), dict(n_values=()), dict(n_values=(0, 11))],
        InvalidConfigError,
    ),
    "McEstimate": (
        McEstimate,
        dict(
            trials=10, hits=3, estimate=0.3, ci_low=0.1, ci_high=0.6, seed=42,
            threshold="non-strict", config=CONFIG,
        ),
        "McEstimate(trials=10, hits=3, estimate=0.3, ci_low=0.1, ci_high=0.6, seed=42, "
        "threshold='non-strict', config=ExperimentConfig(rounds=(2, 2, 2, 2)), stream=7)",
        [dict(hits=11), dict(ci_low=0.4)],
        InvalidConfigError,
    ),
}

params = pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))


@params
def test_equal_values_compare_and_hash_equal(case):
    cls, kwargs, *_ = case
    first, second = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != tuple(kwargs.values())


@params
def test_repr_matches_the_dataclass_repr(case):
    cls, kwargs, expected, *_ = case
    assert repr(cls(**kwargs)) == expected


@params
def test_keyword_and_positional_construction_agree(case):
    cls, kwargs, *_ = case
    record = cls(**kwargs)
    assert cls(*kwargs.values()) == record


@params
def test_fields_cannot_be_assigned_or_deleted(case):
    cls, kwargs, *_ = case
    record = cls(**kwargs)
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@params
def test_pickle_and_deepcopy_round_trip(case):
    cls, kwargs, *_ = case
    record = cls(**kwargs)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert twin == record and repr(twin) == repr(record)


@params
def test_construction_validates(case):
    cls, kwargs, _, overrides, error = case
    for bad in overrides:
        with pytest.raises(error):
            cls(**{**kwargs, **bad})


def test_defaults_fill_the_trailing_fields():
    request = SweepRequest("equal", (4,))
    assert (request.include_exact_intervals, request.continuous) == (False, False)
    assert McEstimate(10, 3, 0.3, 0.1, 0.6, 42, "strict", CONFIG).stream == STREAM_VERSION == 7
