"""The public behaviour of the three record types that carry a row, its
fire-weather codes and a stream checkpoint: construction, repr, equality,
hashing, immutability, pickling and copying."""

import copy
import pickle

import pytest

from firedss.fwi import FwiCodes
from firedss.ingest import WeatherRecord
from firedss.stream import Checkpoint

CASES = {
    "WeatherRecord": (
        WeatherRecord,
        dict(x=8, y=6, month="aug", day="mon", ffmc=92.3, dmc=88.9, dc=495.6,
             isi=8.5, temp=24.1, rh=27.0, wind=3.1, rain=0.0, area=0.0),
        "WeatherRecord(x=8, y=6, month='aug', day='mon', ffmc=92.3, dmc=88.9, "
        "dc=495.6, isi=8.5, temp=24.1, rh=27.0, wind=3.1, rain=0.0, area=0.0)",
    ),
    "FwiCodes": (
        FwiCodes,
        dict(ffmc=87.5, dmc=8.5, dc=19.0, isi=10.8, bui=8.4, fwi=10.1),
        "FwiCodes(ffmc=87.5, dmc=8.5, dc=19.0, isi=10.8, bui=8.4, fwi=10.1)",
    ),
    "Checkpoint": (
        Checkpoint,
        dict(source_id="file:a.csv", batch_seq=3, offset=80, fingerprint="ab12"),
        "Checkpoint(source_id='file:a.csv', batch_seq=3, offset=80, fingerprint='ab12')",
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_keyword_and_positional_construction_agree(case):
    kind, values, _ = case
    by_name = kind(**values)
    assert kind(*values.values()) == by_name
    for name, value in values.items():
        assert getattr(by_name, name) == value


def test_repr(case):
    kind, values, text = case
    assert repr(kind(**values)) == text


def test_equal_instances_hash_alike(case):
    kind, values, _ = case
    a, b = kind(**values), kind(**values)
    assert a == b and hash(a) == hash(b)
    first = next(iter(values))
    assert a != kind(**{**values, first: values[first] * 2})


def test_assignment_raises_attribute_error(case):
    kind, values, _ = case
    record = kind(**values)
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("round_trip", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trips(case, round_trip):
    kind, values, _ = case
    record = kind(**values)
    again = round_trip(record)
    assert type(again) is kind and again == record and repr(again) == repr(record)
