"""The value types against frozen dataclasses, the behaviour their base reproduces."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnkeypad.bn_text import (
    CONSONANTS,
    Category,
    CorpusStats,
    FrequencyTable,
    GraphemeUnit,
    _Record,
)
from bnkeypad.cli import RunConfig
from bnkeypad.ergonomics import KEYPAD_KEYS, Direction, ErgonomicModel, KeyErgonomics, default_model
from bnkeypad.layout import Layout, PlacementPolicy, Role
from bnkeypad.optimize import AssignmentInstance, KeySlot, Objective
from bnkeypad.transcribe import EvaluationReport, KeystrokeTrace

MODEL = default_model()
FEW_UNITS = st.sampled_from(CONSONANTS[:3])
KEYS = st.sampled_from(KEYPAD_KEYS[:3])
# small enough that two draws are often equal; a dict makes a record unhashable
ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-1, 2), st.sampled_from([0.5, -0.0]),
                      st.text(max_size=1), st.tuples(st.integers(0, 1)),
                      st.dictionaries(st.integers(0, 1), st.integers(0, 1), max_size=1))
SLOTS = (KeySlot("2", 1, 1.0), KeySlot("2", 2, 2.0), KeySlot("3", 1, 1.5))
ANGLES = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 181.0, float("inf")]), st.floats(-1, 200))


def _entries(drop):
    return {key: entry for key, entry in MODEL.entries.items() if key != drop}


def _tuples(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(tuple)


def _any(cls):
    return st.tuples(*[ANY_VALUE] * len(cls._fields))


# every record's field values, some of which its __post_init__ refuses; a
# record with no __post_init__ takes any values
FIELDS = {
    GraphemeUnit: st.tuples(st.lists(st.integers(0x0995, 0x0997), min_size=1, max_size=2),
                            st.sampled_from(Category), st.sampled_from(["", "KA"])),
    FrequencyTable: st.tuples(st.dictionaries(FEW_UNITS, st.integers(-1, 2), max_size=2)),
    CorpusStats: _any(CorpusStats),
    KeyErgonomics: st.tuples(ANGLES, st.sampled_from(Direction)),
    ErgonomicModel: st.tuples(st.sampled_from([None, "5"]).map(_entries),
                              st.sampled_from([1.0, 0.0, -1.0]), st.sampled_from([1.0, 0.0])),
    PlacementPolicy: _any(PlacementPolicy),
    Layout: st.tuples(st.dictionaries(KEYS, _tuples(FEW_UNITS, 2), max_size=2),
                      st.dictionaries(st.sampled_from(Role), KEYS, max_size=1),
                      st.sampled_from(["", "toy", "a\tb"])),
    KeystrokeTrace: _any(KeystrokeTrace),
    EvaluationReport: _any(EvaluationReport),
    RunConfig: _any(RunConfig),
    Objective: st.tuples(st.dictionaries(FEW_UNITS, st.integers(0, 2), max_size=2)
                         .map(FrequencyTable), st.just(MODEL), st.sampled_from([0.0, 0.5, -1.0]),
                         st.none() | st.dictionaries(st.tuples(FEW_UNITS, FEW_UNITS),
                                                     st.integers(0, 2), max_size=1)),
    AssignmentInstance: st.tuples(_tuples(st.tuples(FEW_UNITS, st.integers(0, 2)), 2),
                                  st.sampled_from([(), SLOTS, SLOTS[::-1], SLOTS[1:]]),
                                  _tuples(st.tuples(st.tuples(FEW_UNITS, FEW_UNITS),
                                                    st.integers(-1, 2)), 2),
                                  st.sampled_from([0.0, 0.5, -1.0, float("nan")])),
}


def _twin(cls):
    """A frozen dataclass with ``cls``'s name, fields, defaults and ``__post_init__``."""
    specs = [(name, object, dataclasses.field(default=vars(cls)[name]))
             if name in vars(cls) else (name, object) for name in cls._fields]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True,
                                      eq=cls is not GraphemeUnit)


TWINS = {cls: _twin(cls) for cls in FIELDS}
# a record class with the same fields, whose instances no record equals
STRANGERS = {cls: type("Stranger", (_Record,), {"__annotations__": dict.fromkeys(cls._fields)})
             for cls in FIELDS}


def test_every_record_has_an_oracle():
    records = {cls for cls in _Record.__subclasses__() if cls.__module__.startswith("bnkeypad.")}
    assert records == set(FIELDS)
    assert GraphemeUnit.__eq__ is object.__eq__ and GraphemeUnit.__hash__ is object.__hash__


def _outcome(build, *args, **kwargs):
    """``build``'s result, or the type and message of what it raised."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # the two sides must raise alike
        return type(exc), str(exc)


def _error(obj, action):
    with pytest.raises(AttributeError) as exc_info:
        action(obj)
    return str(exc_info.value)


@st.composite
def _arguments(draw, cls):
    """Field values for ``cls``, as many as its defaults allow leaving out."""
    values = draw(FIELDS[cls])
    required = sum(name not in vars(cls) for name in cls._fields)
    return values[:draw(st.integers(required, len(values)))]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_records_behave_as_frozen_dataclasses(cls, data):
    twin = TWINS[cls]
    a = data.draw(_arguments(cls))
    b = data.draw(st.just(a) | _arguments(cls))
    built = [_outcome(cls, *args) for args in (a, b)]
    twins = [_outcome(twin, *args) for args in (a, b)]
    assert [type(r) is cls for r in built] == [type(t) is twin for t in twins]
    for record, twin_record in zip(built, twins):
        if type(record) is tuple:
            assert record == twin_record  # the same exception from __post_init__

    # a missing, unknown, repeated or extra argument
    calls = [((), {}), (a, {"unknown": 1}), (a + (None,) * len(cls._fields), {})]
    if a:
        calls.append((a, {cls._fields[0]: a[0]}))
    for args, kwargs in calls:
        got, want = _outcome(cls, *args, **kwargs), _outcome(twin, *args, **kwargs)
        assert (type(got) is tuple) is (type(want) is tuple)
        if type(want) is tuple:  # GraphemeUnit's __new__ takes the arguments, not __init__
            assert got[0] is want[0] if cls is GraphemeUnit else got == want

    if type(built[0]) is not cls or type(built[1]) is not cls:
        return
    (x, y), (tx, ty) = built, twins
    if cls is GraphemeUnit:  # interned, so equal fields give one object
        assert (x == y) is (x is y) is (a[0] == b[0] and a[1:] == b[1:])
        assert hash(x) == object.__hash__(x)
    else:
        assert (x == y) is (tx == ty)
        assert x == cls(*a)
        assert repr(x) == repr(tx)
        assert _outcome(hash, x) == _outcome(hash, tx)
    assert x != tx and x.__eq__(tx) is NotImplemented
    assert x != STRANGERS[cls](*x._values()) and x.__eq__(None) is NotImplemented
    for name in (*cls._fields, "unknown"):
        assert _error(x, lambda r: setattr(r, name, 1)) == _error(tx, lambda r: setattr(r, name, 1))
        assert _error(x, lambda r: delattr(r, name)) == _error(tx, lambda r: delattr(r, name))
