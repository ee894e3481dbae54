"""The paper's policies on one link: strict, interleaved, parallel.

Each test drives the one controller's own issue engine; the link's
stream engine underneath is ``engine.channels[0].engine``.
"""

import pytest

from repro.bytecode import assemble
from repro.classfile import ClassFileBuilder
from repro.errors import TransferError
from repro.harness import bundle
from repro.program import MethodId, Program
from repro.reorder import FirstUseOrder, estimate_first_use, restructure
from repro.sched import StripedController
from repro.transfer import (
    T1_LINK,
    TransferPolicy,
    UnitKind,
    build_interleaved_file,
    build_program_plans,
    build_schedule,
    transfer_layout,
)
from repro.workloads import figure1_program


@pytest.fixture()
def restructured():
    program = figure1_program()
    order = estimate_first_use(program)
    return restructure(program, order), order


def test_interleaved_file_order(restructured):
    program, order = restructured
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    sequence = build_interleaved_file(plans, order)
    labels = [
        (unit.kind, unit.class_name, getattr(unit.method, "method_name", None))
        for unit in sequence
    ]
    # Figure 5: A's globals, main, then B's globals, Bar_B, then the
    # remaining methods interleaved by first use.
    assert labels[0] == (UnitKind.GLOBAL_DATA, "A", None)
    assert labels[1] == (UnitKind.METHOD, "A", "main")
    assert labels[2] == (UnitKind.GLOBAL_DATA, "B", None)
    assert labels[3] == (UnitKind.METHOD, "B", "Bar_B")
    assert labels[4] == (UnitKind.METHOD, "A", "Bar_A")
    assert labels[5] == (UnitKind.METHOD, "A", "Foo_A")
    assert labels[6] == (UnitKind.METHOD, "B", "Foo_B")


def test_interleaved_file_conserves_bytes(restructured):
    # Hanoi's SCG order minus its last three entries names every class
    # but leaves methods out: those must still go out, after the order.
    item = bundle("Hanoi")
    partial = FirstUseOrder(entries=item.scg.entries[:-3], source="partial")
    for program, order in (
        restructured,
        (restructure(item.workload.program, item.scg), partial),
    ):
        plans = build_program_plans(program, TransferPolicy.NON_STRICT)
        sequence = build_interleaved_file(plans, order)
        assert sum(unit.size for unit in sequence) == sum(
            plan.total_bytes for plan in plans.values()
        )
        # Every plan unit goes out exactly once.
        planned = [unit for plan in plans.values() for unit in plan.units]
        assert sorted(map(id, sequence)) == sorted(map(id, planned))


def methodless_class_program():
    """``Main`` plus a ``Globals`` class with a field and no methods."""
    main = ClassFileBuilder("Main")
    main.add_method("main", "()V", assemble("return"))
    holder = ClassFileBuilder("Globals")
    holder.add_field("counter")
    return Program(classes=[main.build(), holder.build()])


@pytest.mark.parametrize(
    "policy",
    [TransferPolicy.NON_STRICT, TransferPolicy.DATA_PARTITIONED],
    ids=["non_strict", "data_partitioned"],
)
@pytest.mark.parametrize(
    "make_program",
    [methodless_class_program, figure1_program],
    ids=["methodless_class", "figure1"],
)
def test_interleaved_file_keeps_plan_order_within_each_class(
    make_program, policy
):
    program = make_program()
    order = estimate_first_use(program)
    plans = build_program_plans(restructure(program, order), policy)
    sequence = build_interleaved_file(plans, order)
    for class_name, plan in plans.items():
        assert [
            unit for unit in sequence if unit.class_name == class_name
        ] == list(plan.units)


def test_methodless_class_with_unused_data_goes_out_global_first():
    program = methodless_class_program()
    plans = build_program_plans(program, TransferPolicy.DATA_PARTITIONED)
    sequence = build_interleaved_file(plans, estimate_first_use(program))
    kinds = [unit.kind for unit in sequence if unit.class_name == "Globals"]
    assert kinds == [UnitKind.GLOBAL_FIRST, UnitKind.GLOBAL_UNUSED]


def _one_link(program, order, policy, **options):
    layout = transfer_layout(
        program,
        TransferPolicy.STRICT
        if policy == "strict"
        else TransferPolicy.NON_STRICT,
        order,
    )
    return StripedController(layout, (T1_LINK,), policy=policy, **options)


def test_interleaved_controller_single_stream(restructured):
    program, order = restructured
    controller = _one_link(program, order, "interleaved")
    engine = controller.start()
    assert len(engine.channels[0].engine.active) == 1
    unit = controller.required_unit(MethodId("B", "Bar_B"))
    assert unit.method == MethodId("B", "Bar_B")


def test_strict_controller_requires_whole_class():
    program = figure1_program()
    controller = _one_link(program, None, "strict")
    unit = controller.required_unit(MethodId("B", "Foo_B"))
    assert unit.kind == UnitKind.CLASS_FILE
    assert unit.class_name == "B"
    engine = controller.start()
    assert len(engine.channels[0].engine.active) == 1
    engine.run_until(1e12)
    assert engine.idle


def test_schedule_dependencies_and_prefixes(restructured):
    program, order = restructured
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    schedule = build_schedule(program, plans, order)
    a = schedule.start_for("A")
    b = schedule.start_for("B")
    # The entry class must start immediately and depends on nothing.
    assert a.start_after_bytes == 0.0
    assert a.dependency_bytes == 0.0
    assert schedule.dependencies_of(a) == ()
    # B depends on A: its trigger counts bytes delivered from A, and
    # its required prefix runs through Bar_B (global data + Bar_B).
    assert schedule.dependencies_of(b) == ("A",)
    assert b.dependency_bytes > 0
    assert b.required_prefix_bytes == plans["B"].prefix_bytes_through(
        "Bar_B"
    )
    with pytest.raises(TransferError):
        schedule.start_for("Zed")


def test_schedule_start_threshold_clamped_at_zero(restructured):
    program, order = restructured
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    schedule = build_schedule(program, plans, order)
    b = schedule.start_for("B")
    # B's required prefix exceeds main's predicted unique bytes, so it
    # is released immediately — Figure 4's "B starts before A is done".
    assert b.start_after_bytes == max(
        0.0, b.dependency_bytes - b.required_prefix_bytes
    )


def test_schedule_orders_by_threshold(restructured):
    program, order = restructured
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    schedule = build_schedule(program, plans, order)
    starts = schedule.in_start_order()
    thresholds = [start.start_after_bytes for start in starts]
    assert thresholds == sorted(thresholds)


def test_parallel_controller_releases_scheduled_streams(restructured):
    program, order = restructured
    controller = _one_link(program, order, "parallel", max_streams=4)
    engine = controller.start()
    # Both classes have near-zero start times at this CPI.
    engine.run_until(1e12)
    assert engine.idle
    assert set(engine.channels[0].engine.stream_start_times) == {"A", "B"}


def test_parallel_demand_fetch_on_stall():
    from repro.reorder import FirstUseEntry, FirstUseOrder

    program = figure1_program()
    static = estimate_first_use(program)
    # Predict B's first use after an enormous byte budget, so its
    # scheduled start threshold is far in the future.
    entries = [
        FirstUseEntry(
            method=entry.method,
            bytes_before=0 if entry.method.class_name == "A" else 10**9,
        )
        for entry in static.entries
    ]
    order = FirstUseOrder(entries=entries, source="static")
    target = restructure(program, order)
    controller = _one_link(target, order, "parallel", max_streams=4)
    engine = controller.start()
    # B is scheduled far in the future; a stall on Bar_B must fetch it.
    assert "B" not in engine.channels[0].engine.stream_start_times
    controller.on_stall(engine, MethodId("B", "Bar_B"))
    assert controller.demand_fetches == [MethodId("B", "Bar_B")]
    unit = controller.required_unit(MethodId("B", "Bar_B"))
    arrival = engine.run_until_unit(unit)
    assert arrival > 0


def test_parallel_stall_on_active_stream_is_noop(restructured):
    program, order = restructured
    controller = _one_link(program, order, "parallel", max_streams=4)
    engine = controller.start()
    controller.on_stall(engine, MethodId("A", "main"))
    assert controller.demand_fetches == []
