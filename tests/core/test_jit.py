"""Overlapping JIT compilation with transfer (§8 extension)."""

import pytest

from repro.core import (
    JitModel,
    simulate_jit_overlap,
    strict_jit_total,
)
from repro.reorder import estimate_first_use
from repro.transfer import MODEM_LINK, T1_LINK, NetworkLink
from repro.vm import record_run
from repro.workloads import figure1_program

# Heavy enough that compilation matters against this toy program's
# small wire size (the delimiter overhead is ~80 KCycles on T1).
JIT = JitModel(compile_cycles_per_byte=5000.0, compiled_cpi=10.0)


@pytest.fixture(scope="module")
def setup():
    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    return program, recorder.trace, order


def test_overlap_beats_strict_jit(setup):
    program, trace, order = setup
    strict = strict_jit_total(program, trace, T1_LINK, JIT)
    overlapped = simulate_jit_overlap(
        program, trace, order, T1_LINK, JIT
    )
    assert overlapped.total_cycles < strict


def test_strict_jit_is_the_arithmetic_sum(setup):
    program, trace, order = setup
    from repro.core import program_wire_bytes

    strict = strict_jit_total(program, trace, T1_LINK, JIT)
    transfer = T1_LINK.transfer_cycles(program_wire_bytes(program))
    compile_cycles = sum(
        JIT.compile_cycles(m.code_bytes) for _, m in program.methods()
    )
    execution = trace.total_instructions * JIT.compiled_cpi
    assert strict == pytest.approx(
        transfer + compile_cycles + execution
    )


def test_all_compilation_is_accounted(setup):
    program, trace, order = setup
    result = simulate_jit_overlap(program, trace, order, MODEM_LINK, JIT)
    used_methods = trace.methods_used()
    minimum = sum(
        JIT.compile_cycles(program.method(m).code_bytes)
        for m in used_methods
    )
    # Every used method compiled; unused ones only if a stall had room.
    assert result.compile_cycles >= minimum - 1e-6
    assert (
        result.overlapped_compile_cycles <= result.compile_cycles
    )
    assert 0 <= result.overlap_fraction <= 1


def test_slow_link_hides_all_compilation(setup):
    """On the modem, stalls dwarf compile times: overlap ≈ 100%."""
    program, trace, order = setup
    result = simulate_jit_overlap(program, trace, order, MODEM_LINK, JIT)
    assert result.overlap_fraction > 0.95


def test_fast_link_cannot_hide_compilation(setup):
    """On a near-instant link there are no stalls to hide work in."""
    program, trace, order = setup
    instant = NetworkLink("instant", 1e-6)
    result = simulate_jit_overlap(program, trace, order, instant, JIT)
    assert result.overlap_fraction < 0.05
    # Total ≈ execution + visible compilation.
    assert result.total_cycles == pytest.approx(
        result.execution_cycles
        + (result.compile_cycles - result.overlapped_compile_cycles),
        rel=1e-3,
    )


def test_total_decomposition(setup):
    program, trace, order = setup
    result = simulate_jit_overlap(program, trace, order, T1_LINK, JIT)
    visible_compile = (
        result.compile_cycles - result.overlapped_compile_cycles
    )
    assert result.total_cycles == pytest.approx(
        result.execution_cycles
        + result.stall_cycles
        + result.overlapped_compile_cycles
        + visible_compile,
        rel=1e-6,
    )


#: The JIT bench's model (``benchmarks/bench_extension_jit_overlap.py``).
BENCH_JIT = JitModel(compile_cycles_per_byte=600.0, compiled_cpi=60.0)

#: Every workload's JitResult at the bench's settings (T1, Test order):
#: total, execution, compile, overlapped compile and stall cycles.
_BENCH_JIT_RESULTS = {
    "BIT": (911851740.0, 465780000.0, 8048400.0, 8048400.0, 438023340.0),
    "Hanoi": (42792500.0, 19740000.0, 465000.0, 465000.0, 22587500.0),
    "JavaCup": (
        537004355.0, 19080000.0, 14269800.0, 14269800.0, 503654555.0,
    ),
    "Jess": (
        1174241915.0, 186960000.0, 9187200.0, 9187200.0, 978094715.0,
    ),
    "JHLZip": (
        284529570.0, 142800000.0, 3697800.0, 3690600.0, 138031770.0,
    ),
    "TestDes": (
        223199170.0, 18600000.0, 7002600.0, 6995400.0, 197596570.0,
    ),
}


@pytest.mark.parametrize("name", sorted(_BENCH_JIT_RESULTS))
def test_bench_settings_are_pinned(name):
    """The bench's six JitResults, exact: a faster compile queue or
    arrival scan must not move a single cycle."""
    from repro.harness import bundle

    item = bundle(name)
    workload = item.workload
    result = simulate_jit_overlap(
        workload.program, workload.test_trace, item.test, T1_LINK, BENCH_JIT
    )
    assert (
        result.total_cycles,
        result.execution_cycles,
        result.compile_cycles,
        result.overlapped_compile_cycles,
        result.stall_cycles,
    ) == _BENCH_JIT_RESULTS[name]
