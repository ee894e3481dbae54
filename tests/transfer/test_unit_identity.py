"""Unit identity: what ``MethodId`` and ``TransferUnit`` promise.

Every unit-keyed map relies on these promises: the batched core's
arrivals, the scoreboard's unit maps, the server's pre-encoded frames
and the fetch client's method events.  A decoded unit is a fresh
object, so it must find the plan's equal unit by value.
"""

import pickle

import pytest

from repro.errors import TransferError
from repro.netserve import decode_frame, encode_frame, unit_frame
from repro.program import MethodId
from repro.transfer import (
    TransferPolicy,
    TransferUnit,
    UnitKind,
    build_program_plans,
)
from repro.workloads.synthetic import generate_workload


def plan_units(program, policy):
    plans = build_program_plans(program, policy)
    return [unit for plan in plans.values() for unit in plan.units]


@pytest.fixture(scope="module")
def hanoi():
    return generate_workload("Hanoi").program


@pytest.fixture(scope="module", params=list(TransferPolicy), ids=str)
def policy(request):
    return request.param


@pytest.fixture(scope="module")
def units(hanoi, policy):
    return plan_units(hanoi, policy)


def differing_in_one_field(unit):
    """Units equal to ``unit`` in every field but one."""
    kind, name, size = unit.kind, unit.class_name, unit.size
    method = unit.method
    yield TransferUnit(kind, name + "X", size, method)
    yield TransferUnit(kind, name, size + 1, method)
    if method is None:
        other = (
            UnitKind.GLOBAL_UNUSED
            if kind is UnitKind.GLOBAL_DATA
            else UnitKind.GLOBAL_DATA
        )
        yield TransferUnit(other, name, size)
    else:
        yield TransferUnit(
            kind, name, size, MethodId(name, method.method_name + "X")
        )


def test_method_id_equality_agrees_with_its_hash():
    first = MethodId("Hanoi", "main")
    again = MethodId("Hanoi", "main")
    assert first is not again
    assert first == again and not first != again
    assert hash(first) == hash(again)
    others = [
        MethodId("Hanoi", "move"),
        MethodId("Disk", "main"),
        MethodId("Hanoi", ""),
    ]
    for other in others:
        assert first != other and not first == other
    assert len({first, again, *others}) == 1 + len(others)
    assert {first: "entry"}[again] == "entry"


def test_unit_equality_agrees_with_its_hash(hanoi, policy, units):
    rebuilt = plan_units(hanoi, policy)
    assert len(rebuilt) == len(units)
    for unit, twin in zip(units, rebuilt):
        assert unit is not twin
        assert unit == twin and not unit != twin
        assert hash(unit) == hash(twin)
    members = set(units)
    assert len(members | set(rebuilt)) == len(units)
    for unit in units:
        for other in differing_in_one_field(unit):
            assert unit != other and not unit == other
            assert other not in members


def test_method_ids_sort_by_class_then_method():
    ids = [
        MethodId("B", "a"),
        MethodId("A", "z"),
        MethodId("A", "b"),
        MethodId("AB", "a"),
        MethodId("A", "B"),
    ]
    assert sorted(ids) == [
        MethodId("A", "B"),
        MethodId("A", "b"),
        MethodId("A", "z"),
        MethodId("AB", "a"),
        MethodId("B", "a"),
    ]
    assert MethodId("A", "b") < MethodId("A", "c") <= MethodId("A", "c")
    assert MethodId("B", "a") > MethodId("A", "z") >= MethodId("A", "z")


def test_text_forms_are_unchanged():
    method = MethodId("Hanoi", "main")
    assert str(method) == "Hanoi.main"
    assert repr(method) == "MethodId(class_name='Hanoi', method_name='main')"
    assert method.class_name == "Hanoi"
    assert method.method_name == "main"
    unit = TransferUnit(UnitKind.METHOD, "Hanoi", 12, method)
    assert repr(unit) == (
        "TransferUnit(kind=<UnitKind.METHOD: 'method'>, "
        "class_name='Hanoi', size=12, "
        "method=MethodId(class_name='Hanoi', method_name='main'))"
    )
    assert repr(TransferUnit(UnitKind.GLOBAL_DATA, "Hanoi", 40)) == (
        "TransferUnit(kind=<UnitKind.GLOBAL_DATA: 'global_data'>, "
        "class_name='Hanoi', size=40, method=None)"
    )
    assert str(unit) == repr(unit)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_identity_survives_a_pickle_round_trip(units, protocol):
    for value in [*units, *(unit.method for unit in units if unit.method)]:
        copy = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value)
        assert repr(copy) == repr(value)


def test_a_decoded_unit_finds_the_plans_equal_unit(units):
    index = {unit: position for position, unit in enumerate(units)}
    members = set(units)
    methods = {unit.method: unit for unit in units if unit.method}
    for position, unit in enumerate(units):
        frame, _ = decode_frame(
            encode_frame(unit_frame(unit, bytes(unit.size)))
        )
        decoded = frame.unit
        assert decoded is not unit
        assert index[decoded] == position
        assert decoded in members
        if decoded.method is not None:
            assert decoded.method is not unit.method
            assert methods[decoded.method] is unit


def test_a_method_id_equals_its_plain_name_pair():
    """A ``MethodId`` is a named ``(class_name, method_name)`` pair: it
    equals, hashes and orders as the plain tuple, so either finds the
    other in a map."""
    method = MethodId("Hanoi", "main")
    pair = ("Hanoi", "main")
    assert method == pair and hash(method) == hash(pair)
    assert {pair: "entry"}[method] == "entry"
    assert {method: "entry"}[pair] == "entry"
    assert tuple(method) == pair
    assert MethodId(*pair) == method
    assert method < ("Hanoi", "move")


def test_a_unit_is_its_field_tuple(units):
    """A ``TransferUnit`` is a named ``(kind, class_name, size, method)``
    tuple: it equals and hashes as that tuple (the values a frozen
    dataclass hashed to), and survives a wire round trip."""
    for unit in units:
        fields = (unit.kind, unit.class_name, unit.size, unit.method)
        assert tuple(unit) == fields
        assert unit == fields and hash(unit) == hash(fields)
        assert TransferUnit(*fields) == unit
        frame, _ = decode_frame(
            encode_frame(unit_frame(unit, bytes(unit.size)))
        )
        assert type(frame.unit) is TransferUnit
        assert frame.unit == unit and hash(frame.unit) == hash(unit)


def test_a_unit_keeps_both_validation_errors():
    method = MethodId("Hanoi", "main")
    with pytest.raises(TransferError) as negative:
        TransferUnit(UnitKind.METHOD, "Hanoi", -1, method)
    assert str(negative.value) == (
        "negative unit size: TransferUnit(kind=<UnitKind.METHOD: "
        "'method'>, class_name='Hanoi', size=-1, "
        "method=MethodId(class_name='Hanoi', method_name='main'))"
    )
    with pytest.raises(TransferError) as missing:
        TransferUnit(UnitKind.METHOD, "Hanoi", 4)
    assert str(missing.value) == (
        "method must be set exactly for METHOD units: "
        "TransferUnit(kind=<UnitKind.METHOD: 'method'>, "
        "class_name='Hanoi', size=4, method=None)"
    )
    with pytest.raises(TransferError, match="method must be set exactly"):
        TransferUnit(
            kind=UnitKind.GLOBAL_DATA, class_name="Hanoi", size=4, method=method
        )
