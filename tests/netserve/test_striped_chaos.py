"""The multi-link chaos suite: every scenario converges byte-identical.

Each scenario runs a striped fetch against seeded per-link fault plans
— mid-stream cuts, corrupted and duplicated frames, a permanent
whole-link outage, a flapping link, a one-slow-link stall, and full
degradation — and asserts the fetched bytes equal a fault-free run's,
so striping never trades correctness for resilience.
"""

import asyncio

import pytest

from repro import figure1_program
from repro.errors import ResilienceExhaustedError
from repro.faults import FaultPlan
from repro.netserve import (
    ClassFileServer,
    LinkState,
    NonStrictFetcher,
    unit_wire_key,
)
from repro.observe import TraceRecorder
from repro.program import MethodId
from repro.workloads.synthetic import generate_workload


def run(coroutine):
    return asyncio.run(coroutine)


async def clean_reference(program):
    server = ClassFileServer(program)
    host, port = await server.start()
    fetcher = NonStrictFetcher(host, port)
    manifest = await fetcher.connect()
    await fetcher.wait_until_complete()
    data = {name: fetcher.class_bytes(name) for name in fetcher.buffers}
    methods = {
        MethodId(class_name, method)
        for _, class_name, method, _ in manifest["sequence"]
        if method is not None
    }
    await fetcher.aclose()
    await server.aclose()
    return data, methods


async def striped_chaos(
    program,
    link_plans,
    bandwidths=None,
    timeout=30.0,
    **kwargs,
):
    """One striped fetch over one server per (plan, bandwidth) link."""
    servers = [
        ClassFileServer(
            program,
            fault_plan=plan,
            bandwidth=(
                bandwidths[index] if bandwidths is not None else None
            ),
        )
        for index, plan in enumerate(link_plans)
    ]
    endpoints = [await server.start() for server in servers]
    recorder = TraceRecorder()
    kwargs.setdefault("backoff_base", 0.005)
    kwargs.setdefault("backoff_jitter", 0.0)
    fetcher = NonStrictFetcher(
        *endpoints[0], links=endpoints[1:], recorder=recorder, **kwargs
    )
    await fetcher.connect()
    try:
        await asyncio.wait_for(
            fetcher.wait_until_complete(), timeout=timeout
        )
        data = {
            name: fetcher.class_bytes(name) for name in fetcher.buffers
        }
    finally:
        await fetcher.aclose()
        for server in servers:
            await server.aclose()
    return data, fetcher, recorder


def test_mid_stream_cuts_on_one_link_converge():
    """A link that keeps dropping mid-stream resumes with the session's
    full holdings; the stripe converges without ever degrading."""

    async def scenario():
        program = figure1_program()
        clean, methods = await clean_reference(program)
        plan = FaultPlan(seed=13, cut_after_frames=(2, 2, 2))
        data, fetcher, _ = await striped_chaos(
            program, [None, plan], seed=13
        )
        assert data == clean
        for method_id in methods:
            assert fetcher.is_method_available(method_id)
        assert fetcher.stats.degraded == 0

    run(scenario())


def test_corrupt_and_duplicate_frames_on_a_pull_link_converge():
    """A pull link whose server corrupts two of the frames it carries
    and duplicates one: each damaged unit is re-requested alone, the
    extra copy is dropped by wire key, and the stripe lands every
    planned unit and reassembles the clean bytes."""

    async def scenario():
        program = generate_workload("Hanoi").program
        clean, methods = await clean_reference(program)
        plan = FaultPlan(seed=29, corrupt_frames=(3, 7), duplicate_frames=(5,))
        data, fetcher, _ = await striped_chaos(program, [None, plan], seed=29)
        assert data == clean
        for method_id in methods:
            assert fetcher.is_method_available(method_id)
        assert fetcher.stats.unit_retries >= 1
        assert fetcher.stats.duplicate_units >= 1
        planned = {tuple(row[:3]) for row in fetcher.manifest["sequence"]}
        landed = [unit for unit, _ in fetcher.unit_log]
        assert {unit_wire_key(unit) for unit in landed} == planned
        assert len({unit_wire_key(unit) for unit in landed}) == len(landed)
        assert fetcher.stats.link_units(1) > 7

    run(scenario())


def test_whole_link_outage_requeues_onto_survivors():
    """A server that vanishes mid-run takes its link down for good:
    redials are refused until the budget drains, the flight lands on
    the survivor, and the session never notices."""

    async def scenario():
        program = figure1_program()
        clean, _ = await clean_reference(program)
        # Pace the survivor so the dying link has time to drain its
        # whole reconnect budget before the stripe finishes.
        good = ClassFileServer(program, bandwidth=3_000)
        doomed = ClassFileServer(program)
        good_addr = await good.start()
        doomed_addr = await doomed.start()
        recorder = TraceRecorder()
        fetcher = NonStrictFetcher(
            *good_addr,
            links=[doomed_addr],
            seed=29,
            max_reconnects=2,
            failure_threshold=1,
            backoff_base=0.005,
            backoff_jitter=0.0,
            recorder=recorder,
        )
        await fetcher.connect()
        await doomed.aclose()  # the whole endpoint goes away
        try:
            await asyncio.wait_for(
                fetcher.wait_until_complete(), timeout=60
            )
            data = {
                name: fetcher.class_bytes(name)
                for name in fetcher.buffers
            }
        finally:
            await fetcher.aclose()
            await good.aclose()
        assert data == clean
        assert fetcher._links[1].dead
        assert not fetcher._links[0].dead
        assert fetcher.stats.degraded == 0
        assert fetcher.stats.link_outages >= 1
        names = [event.name for event in recorder.events]
        assert "link_outage" in names

    run(scenario())


def test_flapping_link_heals_through_half_open_probes():
    """Open circuit → half-open probe → restored, repeatedly, while
    the paced survivor keeps the transfer honest."""

    async def scenario():
        program = figure1_program()
        clean, _ = await clean_reference(program)
        plan = FaultPlan(seed=37, cut_after_frames=(2, 2, 2))
        data, fetcher, recorder = await striped_chaos(
            program,
            [None, plan],
            # A narrow window on a paced survivor keeps ready work
            # queued, so the half-open probe has a unit to prove
            # itself with.
            bandwidths=[3_000, None],
            seed=37,
            failure_threshold=1,
            window=2,
            timeout=60.0,
        )
        assert data == clean
        assert fetcher.stats.link_outages >= 1
        assert fetcher.stats.link_reconnects >= 1
        names = [event.name for event in recorder.events]
        assert "link_outage" in names
        assert "link_restored" in names
        restored = next(
            event
            for event in recorder.events
            if event.name == "link_restored"
        )
        assert restored.args["link"] == "1"

    run(scenario())


def test_one_slow_link_is_stalled_out_by_the_watchdog():
    """A frozen link delivers nothing; the watchdog declares the stall
    and its in-flight units requeue onto the healthy link."""

    async def scenario():
        program = figure1_program()
        clean, _ = await clean_reference(program)
        plan = FaultPlan(
            seed=41, stall_before_frame=0, stall_seconds=30.0
        )
        data, fetcher, recorder = await striped_chaos(
            program,
            [None, plan],
            seed=41,
            stall_timeout=0.2,
            failure_threshold=1,
            timeout=20.0,
        )
        assert data == clean
        assert fetcher.stats.link_outages >= 1
        outage = next(
            event
            for event in recorder.events
            if event.name == "link_outage"
        )
        assert outage.args["link"] == "1"
        assert outage.args["reason"].startswith("stalled:")
        assert outage.args["requeued"] >= 1

    run(scenario())


def test_all_links_dead_degrades_to_strict_and_completes():
    """The ladder's last rung: every link exhausted, the one-shot
    strict fetch still delivers the whole program."""

    async def scenario():
        program = figure1_program()
        _, methods = await clean_reference(program)
        # Each link: ack, then cut; one reconnect cut at the
        # handshake; the *third* connection (the strict fallback) is
        # clean because the plan has run dry.
        plan = lambda seed: FaultPlan(  # noqa: E731
            seed=seed, cut_after_frames=(1, 0)
        )
        data, fetcher, recorder = await striped_chaos(
            program,
            [plan(43), plan(47)],
            seed=43,
            max_reconnects=1,
            failure_threshold=1,
        )
        assert fetcher.stats.degraded == 1
        for method_id in methods:
            assert fetcher.is_method_available(method_id)
        assert data
        names = [event.name for event in recorder.events]
        assert "degraded_to_strict" in names

    run(scenario())


def test_exhausted_ladder_surfaces_resilience_exhausted():
    """Every rung fails — every link, every strict endpoint — and the
    session reports it instead of hanging."""

    async def scenario():
        program = figure1_program()
        plan = lambda seed: FaultPlan(  # noqa: E731
            seed=seed, cut_after_frames=(1,) + (0,) * 20
        )
        servers = [
            ClassFileServer(program, fault_plan=plan(seed))
            for seed in (53, 59)
        ]
        endpoints = [await server.start() for server in servers]
        fetcher = NonStrictFetcher(
            *endpoints[0],
            links=endpoints[1:],
            max_reconnects=1,
            failure_threshold=1,
            backoff_base=0.005,
            backoff_jitter=0.0,
        )
        await fetcher.connect()
        with pytest.raises(ResilienceExhaustedError):
            await asyncio.wait_for(
                fetcher.wait_until_complete(), timeout=30
            )
        await fetcher.aclose()
        for server in servers:
            await server.aclose()

    run(scenario())


def test_chaos_runs_leave_link_state_metrics_behind():
    """The per-link gauges land in the registry for dashboards."""

    async def scenario():
        program = figure1_program()
        clean, _ = await clean_reference(program)
        plan = FaultPlan(seed=61, cut_after_frames=(2,))
        data, fetcher, _ = await striped_chaos(
            program, [None, plan], seed=61
        )
        assert data == clean
        # Both links finished somewhere sane: not mid-probe.
        for link in fetcher._links:
            assert link.state in (
                LinkState.HEALTHY,
                LinkState.DEGRADED,
                LinkState.HALF_OPEN,
                LinkState.OPEN,
            )
        assert fetcher.stats.link_units(0) >= 1

    run(scenario())
