"""The byte-triggered greedy schedule (§5.1) in isolation."""

import pytest

from repro.program import MethodId
from repro.reorder import FirstUseEntry, FirstUseOrder
from repro.reorder import estimate_first_use, restructure
from repro.sched import StripedController
from repro.errors import TransferError
from repro.transfer import (
    T1_LINK,
    ScheduledStart,
    TransferPolicy,
    TransferSchedule,
    build_program_plans,
    build_schedule,
    transfer_layout,
)
from repro.workloads import figure1_program, mutual_recursion_program


def test_dependency_bytes_are_dep_class_prefixes():
    """B's trigger counts only what class A will have delivered by
    Bar_B's first use — A's global data plus main's unit."""
    program = figure1_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    schedule = build_schedule(target, plans, order)
    b = schedule.start_for("B")
    expected = plans["A"].prefix_bytes_through("main")
    assert b.dependency_bytes == pytest.approx(expected)


def test_dependency_bytes_grow_along_first_use_order():
    program = mutual_recursion_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    schedule = build_schedule(target, plans, order)
    starts = {
        start.class_name: start for start in schedule.starts
    }
    assert starts["Even"].dependency_bytes == 0
    assert starts["Odd"].dependency_bytes > 0


def test_threshold_never_exceeds_dependency_capacity():
    """The corrected accounting: a class's trigger must be satisfiable
    by its dependency classes' own bytes (else it would deadlock into
    a demand fetch every time)."""
    program = figure1_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    schedule = build_schedule(target, plans, order)
    for start in schedule.starts:
        capacity = sum(
            plans[dependency].total_bytes
            for dependency in schedule.dependencies_of(start)
        )
        assert start.start_after_bytes <= capacity + 1e-9


def test_eager_start_requests_everything_immediately():
    program = figure1_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    # Force B's threshold away from zero so the flag is observable.
    entries = [
        FirstUseEntry(
            method=entry.method,
            bytes_before=0 if entry.method.class_name == "A" else 10**9,
        )
        for entry in order.entries
    ]
    heavy = FirstUseOrder(entries=entries, source="static")
    layout = transfer_layout(target, TransferPolicy.NON_STRICT, heavy)
    for eager, expected in ((False, {"A"}), (True, {"A", "B"})):
        controller = StripedController(
            layout,
            (T1_LINK,),
            policy="parallel",
            max_streams=4,
            eager_start=eager,
        )
        engine = controller.start()
        started = engine.channels[0].engine.stream_start_times
        assert set(started) == expected


def test_globals_only_class_is_scheduled_last():
    from repro.classfile import ClassFileBuilder
    from repro.program import Program

    program = figure1_program()
    data_only = ClassFileBuilder("DataOnly")
    data_only.add_field("blob", initial_value=1)
    extended = Program(
        classes=list(program.classes) + [data_only.build()],
        entry_point=MethodId("A", "main"),
    )
    order = estimate_first_use(extended)
    target = restructure(extended, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    schedule = build_schedule(target, plans, order)
    data_start = schedule.start_for("DataOnly")
    assert set(schedule.dependencies_of(data_start)) == {"A", "B"}
    assert data_start.required_prefix_bytes == plans[
        "DataOnly"
    ].total_bytes


def test_dependencies_are_a_prefix_of_the_class_order():
    """Every start's dependencies are the classes first used before it,
    kept once as the schedule's class order."""
    program = mutual_recursion_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    plans = build_program_plans(target, TransferPolicy.NON_STRICT)
    schedule = build_schedule(target, plans, order)
    for start in schedule.starts:
        position = schedule.class_order.index(start.class_name)
        assert start.dependency_count == position
        assert schedule.dependencies_of(start) == schedule.class_order[:position]


@pytest.mark.parametrize("count", [-1, 2])
def test_a_dependency_count_outside_the_class_order_is_rejected(count):
    start = ScheduledStart("A", 0.0, 0.0, 0, dependency_count=count)
    with pytest.raises(TransferError, match="depends on"):
        TransferSchedule(starts=[start], class_order=("A",))
