"""Failure injection at the simulation API boundary."""

import pytest

from repro.core import run_nonstrict, strict_baseline
from repro.errors import ReproError, SimulationError
from repro.program import MethodId
from repro.reorder import estimate_first_use
from repro.transfer import T1_LINK
from repro.vm import ExecutionTrace, TraceSegment, record_run
from repro.workloads import figure1_program


@pytest.fixture(scope="module")
def setup():
    program = figure1_program()
    _, recorder = record_run(program)
    return program, recorder.trace, estimate_first_use(program)


def test_trace_with_unknown_class_rejected(setup):
    program, _, order = setup
    ghost_trace = ExecutionTrace(
        segments=[TraceSegment(MethodId("Ghost", "main"), 10)]
    )
    with pytest.raises(ReproError):
        run_nonstrict(program, ghost_trace, order, T1_LINK, 10)


def test_trace_with_unknown_method_rejected(setup):
    program, _, order = setup
    ghost_trace = ExecutionTrace(
        segments=[TraceSegment(MethodId("A", "ghost"), 10)]
    )
    with pytest.raises(ReproError):
        run_nonstrict(program, ghost_trace, order, T1_LINK, 10)


def test_negative_cpi_rejected(setup):
    program, trace, order = setup
    with pytest.raises(ReproError):
        run_nonstrict(program, trace, order, T1_LINK, -5)


@pytest.mark.parametrize(
    "cpi", [float("nan"), float("inf")], ids=["nan", "inf"]
)
@pytest.mark.parametrize("entry", ["Simulator", "strict_baseline"])
def test_non_finite_cpi_rejected(setup, entry, cpi):
    """``cpi <= 0`` lets NaN through: a NaN CPI printed ``nan`` totals
    and a ``nan%`` normalized time."""
    program, trace, order = setup
    with pytest.raises(SimulationError, match="finite"):
        if entry == "Simulator":
            run_nonstrict(program, trace, order, T1_LINK, cpi)
        else:
            strict_baseline(program, trace, T1_LINK, cpi)


def test_zero_instruction_segments_are_harmless(setup):
    program, trace, order = setup
    padded = ExecutionTrace(
        segments=[
            TraceSegment(MethodId("A", "main"), 0),
            *trace.segments,
        ]
    )
    result = run_nonstrict(program, padded, order, T1_LINK, 10)
    reference = run_nonstrict(program, trace, order, T1_LINK, 10)
    assert result.total_cycles == pytest.approx(reference.total_cycles)


def test_restructure_false_matches_prefix_layout(setup):
    """Ablation path: simulate against the original textual layout."""
    program, trace, _ = setup
    from repro.reorder import textual_first_use

    order = textual_first_use(program)
    result = run_nonstrict(
        program, trace, order, T1_LINK, 10, restructure=False
    )
    assert result.total_cycles > 0
