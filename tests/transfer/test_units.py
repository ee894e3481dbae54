"""Transfer unit decomposition per policy."""

import pytest

from repro.classfile import METHOD_DELIMITER_SIZE, class_layout, serializer
from repro.errors import TransferError
from repro.transfer import (
    TransferPolicy,
    TransferUnit,
    UnitKind,
    build_class_plan,
    build_program_plans,
)
from repro.workloads import figure1_program
from repro.workloads.synthetic import generate_workload


@pytest.fixture()
def classfile():
    return figure1_program().class_named("A")


def test_strict_plan_is_single_unit(classfile):
    plan = build_class_plan(classfile, TransferPolicy.STRICT)
    assert len(plan.units) == 1
    assert plan.units[0].kind == UnitKind.CLASS_FILE
    assert plan.total_bytes == class_layout(classfile).strict_size


def test_nonstrict_plan_structure(classfile):
    plan = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    kinds = [unit.kind for unit in plan.units]
    assert kinds[0] == UnitKind.GLOBAL_DATA
    assert kinds.count(UnitKind.METHOD) == len(classfile.methods)
    assert plan.total_bytes == class_layout(classfile).nonstrict_size


def test_nonstrict_method_units_include_delimiter(classfile):
    plan = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    unit = plan.method_unit("main")
    assert (
        unit.size
        == classfile.method("main").size + METHOD_DELIMITER_SIZE
    )


def test_partitioned_plan_conserves_bytes(classfile):
    nonstrict = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    partitioned = build_class_plan(
        classfile, TransferPolicy.DATA_PARTITIONED
    )
    assert partitioned.total_bytes == nonstrict.total_bytes
    assert partitioned.units[0].kind == UnitKind.GLOBAL_FIRST
    # The needed-first chunk is smaller than the full global unit.
    assert partitioned.units[0].size < nonstrict.units[0].size


def test_partitioned_method_units_carry_gmd(classfile):
    nonstrict = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    partitioned = build_class_plan(
        classfile, TransferPolicy.DATA_PARTITIONED
    )
    for method in classfile.methods:
        assert (
            partitioned.method_unit(method.name).size
            >= nonstrict.method_unit(method.name).size
        )


def test_required_unit_semantics(classfile):
    strict = build_class_plan(classfile, TransferPolicy.STRICT)
    assert strict.required_unit_for("main").kind == UnitKind.CLASS_FILE
    nonstrict = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    required = nonstrict.required_unit_for("Bar_A")
    assert required.kind == UnitKind.METHOD
    assert required.method.method_name == "Bar_A"


def test_prefix_bytes_through(classfile):
    plan = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    first = plan.prefix_bytes_through("main")
    assert first == plan.units[0].size + plan.units[1].size
    everything = plan.prefix_bytes_through(classfile.methods[-1].name)
    # Last method's prefix spans all method units.
    assert everything == sum(
        unit.size
        for unit in plan.units
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.METHOD)
    )


def test_unknown_method_rejected(classfile):
    plan = build_class_plan(classfile, TransferPolicy.NON_STRICT)
    with pytest.raises(TransferError):
        plan.method_unit("missing")
    with pytest.raises(TransferError):
        plan.prefix_bytes_through("missing")


def test_unit_validation():
    with pytest.raises(TransferError):
        TransferUnit(kind=UnitKind.GLOBAL_DATA, class_name="A", size=-1)
    with pytest.raises(TransferError):
        TransferUnit(kind=UnitKind.METHOD, class_name="A", size=5)


def test_build_program_plans_covers_all_classes():
    program = figure1_program()
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    assert set(plans) == {"A", "B"}


@pytest.mark.parametrize(
    "policy",
    [TransferPolicy.NON_STRICT, TransferPolicy.DATA_PARTITIONED],
    ids=["non_strict", "data_partitioned"],
)
def test_plan_building_neither_serializes_nor_encodes(monkeypatch, policy):
    """Plans need sizes only: no class is serialized, no code encoded."""
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"plan building called {name}")

        return record

    monkeypatch.setattr(serializer, "serialize", forbidden("serialize"))
    monkeypatch.setattr(serializer, "encode_code", forbidden("encode"))
    plans = build_program_plans(generate_workload("Jess").program, policy)
    assert plans
    assert calls == []
