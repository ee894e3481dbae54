"""Data-partitioned streams: prerequisites always precede a method.

The co-simulator's requirement check is just "has the method's unit
arrived"; that is only sound because every plan delivers a method's
prerequisites (its class's needed-first chunk, and all earlier GMDs)
*before* the method unit in stream order.  These tests pin that
invariant for both transfer methodologies.
"""

from repro.reorder import estimate_first_use, restructure
from repro.sched import StripedController
from repro.transfer import (
    T1_LINK,
    TransferPolicy,
    UnitKind,
    build_class_plan,
    transfer_layout,
)
from repro.workloads import figure1_program
from repro.workloads.synthetic import generate_workload
from tests.oracles.simulation_reference import ReferenceRun


def prepared(name="Hanoi"):
    workload = generate_workload(name)
    order = estimate_first_use(workload.program)
    return restructure(workload.program, order), order


def test_class_plan_streams_global_first():
    program, _ = prepared()
    for classfile in program.classes:
        for policy in (
            TransferPolicy.NON_STRICT,
            TransferPolicy.DATA_PARTITIONED,
        ):
            plan = build_class_plan(classfile, policy)
            kinds = [unit.kind for unit in plan.units]
            assert kinds[0] in (
                UnitKind.GLOBAL_DATA,
                UnitKind.GLOBAL_FIRST,
            )
            # Unused trailing data, if any, comes after all methods.
            if UnitKind.GLOBAL_UNUSED in kinds:
                assert kinds.index(UnitKind.GLOBAL_UNUSED) > max(
                    index
                    for index, kind in enumerate(kinds)
                    if kind == UnitKind.METHOD
                )


def _assert_arrivals_sound(engine, controller, program):
    """Every method unit lands on the link after its class's leading
    global (raw landings: the stream order itself, no retire hazard)."""
    landings = engine.channels[0].engine.arrival_times
    leading = {}
    for class_name, plan in controller.plans.items():
        leading[class_name] = plan.units[0]
    for unit, time in landings.items():
        if unit.kind == UnitKind.METHOD:
            lead = leading[unit.class_name]
            assert landings[lead] <= time + 1e-6


def _data_partitioned(program, order, policy, **options):
    return StripedController(
        transfer_layout(program, TransferPolicy.DATA_PARTITIONED, order),
        (T1_LINK,),
        policy=policy,
        **options,
    )


def test_interleaved_dp_arrival_order():
    program, order = prepared()
    controller = _data_partitioned(program, order, "interleaved")
    engine = ReferenceRun(controller).start()
    engine.run_until(1e14)
    assert engine.idle
    _assert_arrivals_sound(engine, controller, program)


def test_parallel_dp_arrival_order():
    program, order = prepared()
    controller = _data_partitioned(
        program, order, "parallel", max_streams=4
    )
    engine = ReferenceRun(controller).start()
    engine.run_until(1e14)
    # Force any still-pending scheduled classes (their triggers need
    # delivered bytes, which stop growing when the engine idles).
    for start in controller.schedule.starts:
        engine.demand_issue(start.class_name)
    engine.run_until(2e14)
    assert engine.idle
    _assert_arrivals_sound(engine, controller, program)


def test_figure1_dp_gmd_rides_with_methods():
    program = figure1_program()
    plan_plain = build_class_plan(
        program.classes[0], TransferPolicy.NON_STRICT
    )
    plan_dp = build_class_plan(
        program.classes[0], TransferPolicy.DATA_PARTITIONED
    )
    # The DP leading chunk is strictly smaller; methods strictly larger.
    assert plan_dp.units[0].size < plan_plain.units[0].size
    for plain_unit, dp_unit in zip(
        plan_plain.units[1:], plan_dp.units[1:]
    ):
        if dp_unit.kind == UnitKind.METHOD:
            assert dp_unit.size >= plain_unit.size
