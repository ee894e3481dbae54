"""Co-simulator invariants and hand-checked scenarios."""

import pytest

from repro.core import (
    Simulator,
    run_nonstrict,
    run_strict,
    strict_baseline,
)
from repro.errors import SimulationError
from repro.reorder import estimate_first_use, profile_first_use
from repro.sched import StripedController
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    NetworkLink,
    TransferPolicy,
    transfer_layout,
)
from repro.vm import ExecutionTrace, record_run
from repro.workloads import figure1_program

CPI = 50.0


@pytest.fixture(scope="module")
def setup():
    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    return program, recorder.trace, order


def test_total_is_execution_plus_stalls(setup):
    program, trace, order = setup
    result = run_nonstrict(program, trace, order, T1_LINK, CPI)
    assert result.total_cycles == pytest.approx(
        result.execution_cycles + result.stall_cycles
    )


def test_invocation_latency_equals_first_stall(setup):
    program, trace, order = setup
    result = run_nonstrict(program, trace, order, T1_LINK, CPI)
    # Execution cannot begin before main's unit arrives, so the first
    # stall *is* the invocation latency here.
    assert result.invocation_latency == pytest.approx(
        result.stalls[0].start + result.stalls[0].duration
    )


def test_nonstrict_invocation_latency_beats_strict(setup):
    program, trace, order = setup
    nonstrict = run_nonstrict(program, trace, order, T1_LINK, CPI)
    strict = run_strict(program, trace, T1_LINK, CPI)
    assert nonstrict.invocation_latency < strict.invocation_latency


def test_interleaved_no_worse_than_parallel_inf(setup):
    program, trace, order = setup
    interleaved = run_nonstrict(
        program, trace, order, T1_LINK, CPI, method="interleaved"
    )
    parallel = run_nonstrict(
        program, trace, order, T1_LINK, CPI, method="parallel"
    )
    assert interleaved.total_cycles <= parallel.total_cycles + 1


def test_data_partitioning_helps_invocation_latency(setup):
    program, trace, order = setup
    plain = run_nonstrict(program, trace, order, T1_LINK, CPI)
    partitioned = run_nonstrict(
        program, trace, order, T1_LINK, CPI, data_partitioning=True
    )
    assert (
        partitioned.invocation_latency < plain.invocation_latency
    )


def test_faster_link_scales_stalls_down(setup):
    program, trace, order = setup
    t1 = run_nonstrict(program, trace, order, T1_LINK, CPI)
    modem = run_nonstrict(program, trace, order, MODEM_LINK, CPI)
    assert modem.stall_cycles > t1.stall_cycles
    assert modem.total_cycles > t1.total_cycles
    # Execution cycles are link-independent.
    assert modem.execution_cycles == t1.execution_cycles


def test_total_at_least_needed_bytes_transfer_time(setup):
    """Execution can never outrun the wire."""
    program, trace, order = setup
    result = run_nonstrict(program, trace, order, T1_LINK, CPI)
    assert (
        result.total_cycles
        >= T1_LINK.transfer_cycles(result.bytes_delivered) - 1
    )


def test_unused_method_transfer_terminated():
    """A never-called method's bytes are cut off at completion."""
    from repro.bytecode import assemble
    from repro.classfile import ClassFileBuilder
    from repro.program import Program

    builder = ClassFileBuilder("U")
    builder.add_method("main", "()V", assemble("nop\nreturn"))
    builder.add_method(
        "unused",
        "()V",
        assemble("\n".join(["nop"] * 500 + ["return"])),
        local_data=b"\x00" * 400,
    )
    program = Program(classes=[builder.build()])
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    result = run_nonstrict(
        program, recorder.trace, order, T1_LINK, CPI
    )
    assert result.bytes_terminated > 800
    base = strict_baseline(program, recorder.trace, T1_LINK, CPI)
    # Skipping the unused method makes non-strict clearly faster.
    assert result.normalized_to(base.total_cycles) < 60


def test_strict_baseline_matches_table3_accounting(setup):
    program, trace, order = setup
    base = strict_baseline(program, trace, T1_LINK, CPI)
    assert base.total_cycles == pytest.approx(
        base.execution_cycles + base.transfer_cycles
    )
    assert 0 < base.percent_transfer < 100
    assert base.execution_cycles == pytest.approx(
        trace.total_instructions * CPI
    )


def test_simulated_strict_bounded_by_arithmetic_baseline(setup):
    program, trace, order = setup
    base = strict_baseline(program, trace, T1_LINK, CPI)
    simulated = run_strict(program, trace, T1_LINK, CPI)
    # Sequential strict with overlap can only beat the no-overlap sum.
    assert simulated.total_cycles <= base.total_cycles + 1


def test_normalized_to_requires_positive_baseline(setup):
    program, trace, order = setup
    result = run_nonstrict(program, trace, order, T1_LINK, CPI)
    with pytest.raises(SimulationError):
        result.normalized_to(0)


def test_invalid_cpi_rejected(setup):
    program, trace, order = setup
    controller = StripedController(
        transfer_layout(program, TransferPolicy.NON_STRICT, order),
        (T1_LINK,),
        policy="interleaved",
    )
    with pytest.raises(SimulationError):
        Simulator(trace, controller, cpi=0)


def test_unknown_method_name_rejected(setup):
    program, trace, order = setup
    with pytest.raises(SimulationError):
        run_nonstrict(
            program, trace, order, T1_LINK, CPI, method="teleport"
        )


def test_profile_order_simulation(setup):
    program, trace, _ = setup
    order = profile_first_use(program)
    result = run_nonstrict(program, trace, order, T1_LINK, CPI)
    assert result.total_cycles > 0
    assert result.controller_name == "interleaved"


def test_empty_trace_runs():
    program = figure1_program()
    order = estimate_first_use(program)
    result = run_nonstrict(
        program, ExecutionTrace(), order, T1_LINK, CPI
    )
    assert result.total_cycles == 0
    assert result.invocation_latency == 0


def test_fast_link_and_slow_cpu_hides_all_transfer():
    """With a near-infinite link, non-strict total ≈ pure execution."""
    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    instant = NetworkLink("instant", 1e-6)
    result = run_nonstrict(
        program, recorder.trace, order, instant, CPI
    )
    assert result.stall_cycles < 1.0
    assert result.total_cycles == pytest.approx(
        result.execution_cycles, rel=1e-6
    )
