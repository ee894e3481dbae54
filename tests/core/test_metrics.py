"""Baseline metrics: Table 3/4 accounting conventions."""

import pytest

from repro.core import (
    invocation_latency_cycles,
    program_wire_bytes,
    strict_baseline,
)
from repro.classfile import METHOD_DELIMITER_SIZE, class_layout
from repro.errors import SimulationError
from repro.program import MethodId
from repro.reorder import estimate_first_use, restructure
from repro.transfer import MODEM_LINK, T1_LINK, TransferPolicy
from repro.vm import record_run
from repro.workloads import figure1_program


@pytest.fixture(scope="module")
def setup():
    program = figure1_program()
    _, recorder = record_run(program)
    return program, recorder.trace


def test_program_wire_bytes_sums_layouts(setup):
    program, _ = setup
    expected = sum(
        class_layout(classfile).strict_size
        for classfile in program.classes
    )
    assert program_wire_bytes(program) == expected


def test_strict_baseline_is_the_sum(setup):
    program, trace = setup
    base = strict_baseline(program, trace, T1_LINK, cpi=10)
    assert base.execution_cycles == trace.total_instructions * 10
    assert base.transfer_cycles == T1_LINK.transfer_cycles(
        program_wire_bytes(program)
    )
    assert base.total_cycles == (
        base.execution_cycles + base.transfer_cycles
    )


def test_strict_baseline_rejects_bad_cpi(setup):
    program, trace = setup
    with pytest.raises(SimulationError):
        strict_baseline(program, trace, T1_LINK, cpi=0)


def test_invocation_latency_strict_is_first_class(setup):
    program, _ = setup
    latency = invocation_latency_cycles(
        program, T1_LINK, TransferPolicy.STRICT
    )
    first = class_layout(program.classes[0]).strict_size
    assert latency == T1_LINK.transfer_cycles(first)


def test_invocation_latency_nonstrict_is_prefix(setup):
    program, _ = setup
    order = estimate_first_use(program)
    restructured = restructure(program, order)
    latency = invocation_latency_cycles(
        restructured, T1_LINK, TransferPolicy.NON_STRICT
    )
    layout = class_layout(restructured.classes[0])
    expected_bytes = (
        layout.global_size
        + layout.method_size("main")
        + METHOD_DELIMITER_SIZE
    )
    assert latency == T1_LINK.transfer_cycles(expected_bytes)


def test_invocation_latency_ordering(setup):
    """strict >= non-strict >= partitioned, on both links."""
    program, _ = setup
    restructured = restructure(program, estimate_first_use(program))
    for link in (T1_LINK, MODEM_LINK):
        strict = invocation_latency_cycles(
            restructured, link, TransferPolicy.STRICT
        )
        nonstrict = invocation_latency_cycles(
            restructured, link, TransferPolicy.NON_STRICT
        )
        partitioned = invocation_latency_cycles(
            restructured, link, TransferPolicy.DATA_PARTITIONED
        )
        assert partitioned < nonstrict < strict


def test_invocation_latency_custom_entry(setup):
    program, _ = setup
    default = invocation_latency_cycles(
        program, T1_LINK, TransferPolicy.NON_STRICT
    )
    # Bar_A sits deeper in class A's file, so its prefix is longer.
    deeper = invocation_latency_cycles(
        program,
        T1_LINK,
        TransferPolicy.NON_STRICT,
        entry=MethodId("A", "Bar_A"),
    )
    assert deeper > default


def test_unrestructured_entry_method_costs_more(setup):
    """Without restructuring, a mis-laid-out class honestly pays for
    the methods ahead of the entry method."""
    program, _ = setup
    # In figure1's textual layout main is already first, so reorder it
    # to the back to create the mis-layout.
    classfile = program.class_named("A")
    shuffled = classfile.reordered(["Foo_A", "Bar_A", "main"])
    from repro.program import Program

    shuffled_program = Program(
        classes=[shuffled, program.class_named("B")],
        entry_point=MethodId("A", "main"),
    )
    good = invocation_latency_cycles(
        program, T1_LINK, TransferPolicy.NON_STRICT
    )
    bad = invocation_latency_cycles(
        shuffled_program, T1_LINK, TransferPolicy.NON_STRICT
    )
    assert bad > good


def test_latency_report_records_each_method_once():
    """``record`` is the one way in: entries keep their order, lookups
    go through the method index, and a method recorded twice (also
    through the constructor) is an error.  The index takes no part in
    equality or ``repr``."""
    from repro.core import InvocationLatencyReport, MethodInvocationLatency

    main, helper = MethodId("Main", "main"), MethodId("Main", "helper")
    report = InvocationLatencyReport(unit="cycles")
    report.record(main, 0.0)
    report.record(helper, 42.5, demand_fetched=True)
    assert report.methods() == [main, helper]
    assert report.latency_for(helper) == 42.5
    assert helper in report and MethodId("Main", "other") not in report
    with pytest.raises(SimulationError, match="duplicate"):
        report.record(main, 1.0)
    with pytest.raises(SimulationError, match="no latency recorded"):
        report.latency_for(MethodId("Main", "other"))
    rebuilt = InvocationLatencyReport("cycles", list(report.entries))
    assert rebuilt == report
    assert rebuilt.latency_for(main) == 0.0
    assert "_by_method" not in repr(report)
    with pytest.raises(SimulationError, match="duplicate"):
        InvocationLatencyReport(
            "cycles", [MethodInvocationLatency(main, 0.0)] * 2
        )
