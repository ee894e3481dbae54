"""StripedController: one link, striping wins, chaos, proofs.

On a single link the ``"parallel"`` and ``"interleaved"`` policies are
the paper's methodologies: ``run_striped`` there is ``run_nonstrict``,
and the committed ``BENCH_sim.json`` rows pin their numbers
(``tests/core/test_bench_sim_rows.py``).
"""

import pytest

from repro.analyze import StallVerdict, analyze_transfer_plan
from repro.cfg import program_facts
from repro.core import run_nonstrict
from repro.errors import TransferError
from repro.harness import BENCHMARK_NAMES, bundle
from repro.observe import TraceRecorder
from repro.reorder import estimate_first_use
from repro.sched import LinkOutage, StripedController, run_striped
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    TransferPolicy,
    links_from_bandwidths,
    transfer_layout,
)
from repro.vm import record_run
from repro.workloads import figure1_program
from tests.oracles.simulation_reference import (
    ReferenceRun,
    assert_matches_oracle,
)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_one_link_fidelity_is_exact(name):
    """One link is a degenerate stripe: ``run_striped`` builds the same
    controller as ``run_nonstrict`` and gives the same run."""
    item = bundle(name)
    workload = item.workload
    for order_label in ("SCG", "Train"):
        order = item.order(order_label)
        for policy in ("parallel", "interleaved"):
            reference = run_nonstrict(
                workload.program,
                workload.test_trace,
                order,
                T1_LINK,
                workload.cpi,
                method=policy,
            )
            striped = run_striped(
                workload.program,
                workload.test_trace,
                order,
                (T1_LINK,),
                workload.cpi,
                policy=policy,
            )
            key = f"{name}/{order_label}/{policy}"
            assert striped.controller_name == policy, key
            assert striped.total_cycles == reference.total_cycles, key
            assert striped.stall_count == reference.stall_count, key
            assert (
                striped.bytes_terminated == reference.bytes_terminated
            ), key
            # Exact float equality, method by method.
            assert (
                striped.latencies.entries == reference.latencies.entries
            ), key


@pytest.mark.parametrize("policy", ("round_robin", "interleaved"))
def test_striping_two_links_beats_one(policy):
    item = bundle("BIT")
    workload = item.workload
    single = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (MODEM_LINK,),
        workload.cpi,
        policy=policy,
    )
    double = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (MODEM_LINK, MODEM_LINK),
        workload.cpi,
        policy=policy,
    )
    assert double.total_cycles < single.total_cycles
    assert len(double.latencies) == len(single.latencies)


def test_heterogeneous_links_beat_their_fastest_member():
    item = bundle("Hanoi")
    workload = item.workload
    links = links_from_bandwidths((57_600, 28_800))
    fast_only = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        (links[0],),
        workload.cpi,
    )
    both = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        links,
        workload.cpi,
    )
    assert both.total_cycles < fast_only.total_cycles


def test_link_outage_converges_byte_identical():
    """A link dies a quarter into the run: the recorded run equals the
    oracle's, and the oracle's engine shows the fetch converging."""
    item = bundle("Hanoi")
    workload = item.workload
    links = (MODEM_LINK, MODEM_LINK)

    from repro.core import Simulator
    from repro.reorder import restructure

    layout = transfer_layout(
        restructure(workload.program, item.scg),
        TransferPolicy.NON_STRICT,
        item.scg,
    )

    def recorded(outages):
        run = ReferenceRun(StripedController(layout, links, outages=outages))
        result, events = assert_matches_oracle(
            Simulator(workload.test_trace, run.controller, workload.cpi), run
        )
        return result, events, run.engine

    baseline, _, baseline_engine = recorded(())
    outage_at = baseline.total_cycles / 4.0
    chaos, events, chaos_engine = recorded(
        (LinkOutage(outage_at, link_index=1),)
    )
    # The fetch converges: the exact same unit set arrives in full.
    assert set(chaos_engine.arrival_times) == set(
        baseline_engine.arrival_times
    )
    assert chaos.latencies.methods() == baseline.latencies.methods()
    # Retransmission costs cycles, never correctness.
    assert chaos.total_cycles >= baseline.total_cycles
    assert not chaos_engine.channels[1].alive
    assert [
        event.args["reason"]
        for event in events
        if event.name == "stripe_rebalance"
    ].count("link_outage") == 1


def test_validation_errors():
    item = bundle("Hanoi")
    workload = item.workload
    layout = transfer_layout(
        workload.program, TransferPolicy.NON_STRICT, item.scg
    )
    strict = transfer_layout(workload.program, TransferPolicy.STRICT)
    with pytest.raises(TransferError, match="unknown striping policy"):
        StripedController(layout, (T1_LINK,), policy="psychic")
    with pytest.raises(TransferError, match="unknown striping policy"):
        StripedController(layout, (T1_LINK,), policy="deadline")
    with pytest.raises(TransferError, match="at least one link"):
        StripedController(layout, ())
    with pytest.raises(TransferError, match="not supported"):
        StripedController(
            layout,
            (T1_LINK,),
            policy="parallel",
            outages=(LinkOutage(1.0, 0),),
        )
    with pytest.raises(TransferError, match="exactly one link"):
        StripedController(strict, (T1_LINK, MODEM_LINK), policy="strict")
    # Both loops run with the controller's stream limit, so the
    # controller rejects one neither could honour.
    for policy in ("parallel", "interleaved"):
        for limit in (0, -1):
            with pytest.raises(
                TransferError, match=f"max_streams must be >= 1, got {limit}"
            ):
                StripedController(
                    layout, (T1_LINK,), policy=policy, max_streams=limit
                )
    # Only parallel grains have byte watermarks for eager_start to zero;
    # every other policy would ignore it, so the controller rejects it.
    for policy, chosen, link_sets in (
        ("strict", strict, [(T1_LINK,)]),
        ("interleaved", layout, [(T1_LINK,), (T1_LINK, MODEM_LINK)]),
        ("round_robin", layout, [(T1_LINK,), (T1_LINK, MODEM_LINK)]),
    ):
        for links in link_sets:
            with pytest.raises(
                TransferError,
                match=f"eager_start applies to the 'parallel' policy only, "
                f"not '{policy}'",
            ):
                StripedController(
                    chosen, links, policy=policy, eager_start=True
                )
            StripedController(chosen, links, policy=policy, eager_start=False)
    for links in ((T1_LINK,), (T1_LINK, MODEM_LINK)):
        StripedController(layout, links, policy="parallel", eager_start=True)
    with pytest.raises(TransferError, match="needs a first-use order"):
        transfer_layout(workload.program, TransferPolicy.NON_STRICT)
    # The controller's policy sends whole files if and only if the
    # layout's unit policy is STRICT.
    partitioned = transfer_layout(
        workload.program, TransferPolicy.DATA_PARTITIONED, item.scg
    )
    for policy, wrong in (
        ("strict", layout),
        ("strict", partitioned),
        ("interleaved", strict),
        ("parallel", strict),
        ("round_robin", strict),
    ):
        with pytest.raises(TransferError, match="cannot send"):
            StripedController(wrong, (T1_LINK,), policy=policy)
    # The façade reaches the same check: strict transfer has no global
    # data to partition.
    with pytest.raises(TransferError, match="cannot send"):
        run_striped(
            workload.program,
            workload.test_trace,
            item.scg,
            (T1_LINK,),
            workload.cpi,
            policy="strict",
            data_partitioning=True,
        )


def test_an_outage_past_the_links_is_refused_when_built():
    """The controller is a pure description: an outage naming a link it
    lacks is refused at construction, not on the first run."""
    item = bundle("Hanoi")
    layout = transfer_layout(
        item.workload.program, TransferPolicy.NON_STRICT, item.scg
    )
    links = links_from_bandwidths((57600, 28800))
    for policy in ("interleaved", "round_robin"):
        with pytest.raises(
            TransferError,
            match="outage references link 5, but only 2 links exist",
        ):
            StripedController(
                layout, links, policy=policy, outages=(LinkOutage(1.0, 5),)
            )
        with pytest.raises(TransferError, match="references link 2"):
            StripedController(
                layout, links, policy=policy, outages=(LinkOutage(1.0, 2),)
            )
        StripedController(
            layout, links, policy=policy, outages=(LinkOutage(1.0, 1),)
        )


def test_escalation_toggle_controls_demand_correction():
    """With and without escalation the recorded run equals the
    oracle's; only the escalated run demand-fetches."""
    from repro.core import Simulator
    from repro.reorder import restructure

    item = bundle("BIT")
    workload = item.workload
    links = (MODEM_LINK, MODEM_LINK)
    layout = transfer_layout(
        restructure(workload.program, item.test),
        TransferPolicy.NON_STRICT,
        item.test,
    )
    corrected, uncorrected = (
        assert_matches_oracle(
            Simulator(
                workload.test_trace,
                StripedController(layout, links, escalate=escalate),
                workload.cpi,
            )
        )[0]
        for escalate in (True, False)
    )
    assert corrected.total_cycles == run_striped(
        workload.program,
        workload.test_trace,
        item.test,
        links,
        workload.cpi,
        escalate=True,
    ).total_cycles
    # Both complete; escalation may only help.
    assert corrected.total_cycles <= uncorrected.total_cycles
    assert any(entry.demand_fetched for entry in corrected.latencies.entries)
    assert not any(
        entry.demand_fetched for entry in uncorrected.latencies.entries
    )


def test_striped_analyzer_verdicts_hold_in_simulation():
    item = bundle("BIT")
    workload = item.workload
    links = links_from_bandwidths((57_600, 28_800))
    report = analyze_transfer_plan(
        workload.program,
        program_facts(workload.program),
        item.scg,
        links[0],
        workload.cpi,
        methodology="striped",
        trace=workload.test_trace,
        links=links,
    )
    result = run_striped(
        workload.program,
        workload.test_trace,
        item.scg,
        links,
        workload.cpi,
        escalate=False,  # the analyzer models escalation-free runs
    )
    stalled = {stall.method for stall in result.stalls}
    proven_quiet = {
        method
        for method, verdict in report.verdicts.items()
        if verdict.verdict is StallVerdict.PROVEN_NO_STALL
    }
    proven_stall = {
        method
        for method, verdict in report.verdicts.items()
        if verdict.verdict is StallVerdict.PROVEN_STALL
    }
    assert proven_quiet, "striped analyzer proved nothing"
    assert not (proven_quiet & stalled)
    assert proven_stall <= stalled


#: The decisions the paper's methodologies record for figure1 over the
#: modem at CPI 50.  Parallel has one stream slot, so B queues behind A
#: and the stall on Bar_B promotes it.
_PAPER_DECISIONS = {
    "strict": [
        (
            "schedule_decision",
            {
                "action": "stream_start",
                "target": "strict-sequential",
                "units": 2,
            },
        ),
    ],
    "interleaved": [
        (
            "schedule_decision",
            {"action": "stream_start", "target": "interleaved", "units": 7},
        ),
    ],
    "parallel": [
        (
            "schedule_decision",
            {
                "action": "stream_start",
                "target": "A",
                "start_after_bytes": 0.0,
                "required_prefix_bytes": 349,
            },
        ),
        (
            "schedule_decision",
            {
                "action": "stream_start",
                "target": "B",
                "start_after_bytes": 96.0,
                "required_prefix_bytes": 253,
            },
        ),
        ("demand_fetch", {"method": "B.Bar_B"}),
        (
            "schedule_decision",
            {"action": "promote", "target": "B", "reason": "demand_fetch"},
        ),
    ],
}


@pytest.mark.parametrize("policy", sorted(_PAPER_DECISIONS))
def test_recorded_one_link_runs_emit_the_paper_decisions(policy):
    """A recorded one-link run records the paper methodology's
    ``schedule_decision`` and ``demand_fetch`` events, in order, with
    their payloads (the oracle's, as ``tests/core/test_fastsim.py``
    checks event for event)."""
    program = figure1_program()
    _, vm_recorder = record_run(program)
    recorder = TraceRecorder(clock="cycles")
    result = run_striped(
        program,
        vm_recorder.trace,
        estimate_first_use(program),
        (MODEM_LINK,),
        50.0,
        policy=policy,
        max_streams=1,
        recorder=recorder,
    )
    assert result.controller_name == policy
    decisions = [
        (event.name, event.args)
        for event in recorder.events
        if event.name in ("schedule_decision", "demand_fetch")
    ]
    assert decisions == _PAPER_DECISIONS[policy]
    assert recorder.named("schedule_decision")[0].ts == 0.0
