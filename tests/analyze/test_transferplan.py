"""Transfer-plan stall/mispredict/deadlock proofs vs the simulator."""

import math

import pytest

from repro import MethodId, T1_LINK, record_run
from repro.analyze import (
    StallVerdict,
    analyze_schedule,
    analyze_transfer_plan,
)
from repro.cfg import program_facts
from repro.core import run_nonstrict
from repro.errors import AnalysisError
from repro.lang import compile_source
from repro.reorder import estimate_first_use
from repro.transfer import build_schedule
from repro.transfer.schedule import ScheduledStart, TransferSchedule
from repro.transfer.units import TransferPolicy, build_program_plans
from repro.workloads import figure1_program

CPI = 30.0


@pytest.fixture()
def figure1():
    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    return program, recorder.trace, order


def test_interleaved_trace_verdicts_are_exact(figure1):
    program, trace, order = figure1
    report = analyze_transfer_plan(
        program,
        program_facts(program),
        order,
        T1_LINK,
        CPI,
        methodology="interleaved",
        trace=trace,
    )
    assert report.model == "trace"
    result = run_nonstrict(
        program, trace, order, T1_LINK, CPI, method="interleaved"
    )
    stalled = {stall.method for stall in result.stalls}
    # Interleaved arrivals are exact, so the verdict partition must
    # match the simulator with no POSSIBLE_STALL residue.
    assert set(report.proven_stalls) == stalled
    assert report.possible_stalls == []
    executed = {segment.method for segment in trace.segments}
    assert set(report.proven_no_stall) == executed - stalled


def test_entry_method_always_stalls(figure1):
    program, trace, order = figure1
    for methodology in ("parallel", "interleaved"):
        report = analyze_transfer_plan(
            program, program_facts(program), order, T1_LINK, CPI,
            methodology=methodology, trace=trace,
        )
        entry = program.resolve_entry()
        assert report.verdicts[entry].verdict is StallVerdict.PROVEN_STALL


def test_static_model_never_claims_mispredicts(figure1):
    program, trace, order = figure1
    for methodology in ("parallel", "interleaved"):
        report = analyze_transfer_plan(
            program,
            program_facts(program),
            order,
            T1_LINK,
            CPI,
            methodology=methodology,
        )
        assert report.model == "static"
        assert report.guaranteed_mispredicts == []
        # Static proofs must stay sound against the simulated run.
        result = run_nonstrict(
            program, trace, order, T1_LINK, CPI, method=methodology
        )
        stalled = {stall.method for stall in result.stalls}
        assert not stalled & set(report.proven_no_stall)


def test_unknown_methodology_rejected(figure1):
    program, _, order = figure1
    with pytest.raises(AnalysisError):
        analyze_transfer_plan(
            program,
            program_facts(program),
            order,
            T1_LINK,
            CPI,
            methodology="carrier-pigeon",
        )


def test_real_schedules_never_deadlock(figure1):
    program, _, order = figure1
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    schedule = build_schedule(program, plans, order)
    health = analyze_schedule(schedule, plans)
    assert health.ok
    assert set(health.startable) == set(plans)


def test_tampered_schedule_deadlock_detected(figure1):
    program, trace, order = figure1
    plans = build_program_plans(program, TransferPolicy.NON_STRICT)
    real = build_schedule(program, plans, order)
    starts = []
    for start in real.starts:
        if start.class_name == "B":
            # B's trigger waits on B's own bytes: a dependence cycle.
            start = ScheduledStart(
                class_name="B",
                start_after_bytes=plans["B"].total_bytes + 1.0,
                dependency_bytes=start.dependency_bytes,
                required_prefix_bytes=start.required_prefix_bytes,
                dependency_classes=("B",),
            )
        starts.append(start)
    tampered = TransferSchedule(starts=starts)

    health = analyze_schedule(tampered, plans)
    assert not health.ok
    (finding,) = health.deadlocks
    assert finding.class_name == "B"
    assert finding.blocked_on == ("B",)
    assert finding.achievable_bytes < finding.start_after_bytes

    report = analyze_transfer_plan(
        program, program_facts(program), order, T1_LINK, CPI,
        methodology="parallel", trace=trace, schedule=tampered,
    )
    assert report.schedule_health is not None
    assert not report.schedule_health.ok
    # B's units can never be scheduled: no B method is stall-free, and
    # the arrival upper bound for B methods is unbounded.
    for method_id, verdict in report.verdicts.items():
        if method_id.class_name != "B":
            continue
        assert verdict.verdict is not StallVerdict.PROVEN_NO_STALL
        if verdict.verdict is not StallVerdict.NOT_EXECUTED:
            assert math.isinf(verdict.arrival_hi)


def test_dead_methods_reported():
    program = compile_source(
        """
        class A {
          func main() { print(live(2)); }
          func live(x) { return x * 2; }
          func orphan(x) { return x + 1; }
        }
        """
    )
    order = estimate_first_use(program)
    report = analyze_transfer_plan(
        program,
        program_facts(program),
        order,
        T1_LINK,
        CPI,
        methodology="interleaved",
    )
    assert MethodId("A", "orphan") in report.dead_methods
    assert MethodId("A", "live") not in report.dead_methods
    verdict = report.verdicts[MethodId("A", "orphan")]
    assert verdict.verdict is StallVerdict.NOT_EXECUTED
