"""The acceptance sweep: seeded cut points, convergence, determinism.

Every test moves real bytes over real sockets with a fault plan on the
server side, so assertions are on *convergence* (same bytes, same
method set as a fault-free run) and on *seeded determinism* (same plan
⇒ same fault and recovery event streams), never on wall-clock values.
"""

import asyncio

import pytest

from repro import figure1_program
from repro.faults import FaultPlan
from repro.netserve import ClassFileServer, NonStrictFetcher
from repro.observe import TraceRecorder
from repro.program import MethodId


def run(coroutine):
    return asyncio.run(coroutine)


#: Args that must replay identically for a fixed seed (timestamps and
#: ephemeral peer ports are excluded by construction).
_STABLE_ARGS = {
    "fault_injected": ("fault", "detail", "frame"),
    "reconnect": ("attempt", "backoff"),
    "unit_retry": ("class_name", "method"),
    "degraded_to_strict": ("reason",),
}


def event_signature(recorder):
    """The deterministic shape of a recorder's fault/recovery stream."""
    signature = []
    for event in recorder.events:
        stable = _STABLE_ARGS.get(event.name)
        if stable is None:
            continue
        signature.append(
            (event.name, tuple(event.args.get(key) for key in stable))
        )
    return signature


async def clean_reference(program):
    """Fault-free per-class bytes, method set, and wire size."""
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
    wire_bytes = fetcher.stats.bytes_received
    await fetcher.aclose()
    await server.aclose()
    return data, methods, wire_bytes


async def chaos_fetch(program, plan, **kwargs):
    """One resilient fetch against a faulty server."""
    server = ClassFileServer(program, fault_plan=plan)
    host, port = await server.start()
    fetcher = NonStrictFetcher(
        host,
        port,
        backoff_base=0.005,
        backoff_jitter=0.0,
        **kwargs,
    )
    await fetcher.connect()
    await fetcher.wait_until_complete()
    data = {name: fetcher.class_bytes(name) for name in fetcher.buffers}
    await fetcher.aclose()
    await server.aclose()
    return data, fetcher


# -- the 25-point cut sweep --------------------------------------------


def test_cut_sweep_converges_to_the_clean_run():
    """25 distinct seeded cut offsets across the whole stream: every
    one converges to byte-identical classes and the full method set."""

    async def scenario():
        program = figure1_program()
        clean, methods, wire_bytes = await clean_reference(program)
        offsets = sorted(
            {max(1, (i * wire_bytes) // 26) for i in range(1, 26)}
        )
        assert len(offsets) == 25
        for offset in offsets:
            plan = FaultPlan(seed=offset, cut_after_bytes=(offset,))
            data, fetcher = await chaos_fetch(
                program, plan, seed=offset
            )
            assert data == clean, f"diverged at cut offset {offset}"
            for method_id in methods:
                assert fetcher.is_method_available(method_id)
            assert fetcher.stats.reconnects >= 1
            assert fetcher.stats.degraded == 0

    run(scenario())


def test_multiple_cuts_across_reconnects():
    """Each reconnect hits its own cut until the plan runs dry."""

    async def scenario():
        program = figure1_program()
        clean, _, wire_bytes = await clean_reference(program)
        cuts = (wire_bytes // 4, wire_bytes // 3, wire_bytes // 2)
        plan = FaultPlan(seed=5, cut_after_bytes=cuts)
        data, fetcher = await chaos_fetch(program, plan, seed=5)
        assert data == clean
        assert fetcher.stats.reconnects == len(cuts)

    run(scenario())


# -- graceful degradation ----------------------------------------------


def test_zero_reconnects_degrades_to_successful_strict_fetch():
    """With ``max_reconnects=0`` the first cut falls straight back to
    a one-shot strict transfer — which still completes the program."""

    async def scenario():
        program = figure1_program()
        _, methods, _ = await clean_reference(program)
        plan = FaultPlan(seed=11, cut_after_frames=(0,))
        recorder = TraceRecorder()
        server = ClassFileServer(program, fault_plan=plan)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host,
            port,
            max_reconnects=0,
            backoff_base=0.005,
            recorder=recorder,
        )
        await fetcher.connect()
        await fetcher.wait_until_complete()
        assert fetcher.stats.degraded == 1
        assert fetcher.stats.reconnects == 0
        for method_id in methods:
            assert fetcher.is_method_available(method_id)
        names = [event.name for event in recorder.events]
        assert "degraded_to_strict" in names
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_push_and_pull_links_report_reconnects_alike():
    """A cut push link and a cut pull link emit the same ``reconnect``
    event shape: attempt, backoff, link and error."""

    async def reconnects(plans, bandwidths):
        program = figure1_program()
        servers = [
            ClassFileServer(program, fault_plan=plan, bandwidth=bandwidth)
            for plan, bandwidth in zip(plans, bandwidths)
        ]
        endpoints = [await server.start() for server in servers]
        recorder = TraceRecorder()
        fetcher = NonStrictFetcher(
            *endpoints[0],
            links=endpoints[1:],
            backoff_base=0.005,
            recorder=recorder,
        )
        await fetcher.connect()
        await asyncio.wait_for(fetcher.wait_until_complete(), timeout=30)
        await fetcher.aclose()
        for server in servers:
            await server.aclose()
        return [e.args for e in recorder.events if e.name == "reconnect"]

    cut = FaultPlan(seed=5, cut_after_frames=(2,))
    push = run(reconnects([cut], [None]))
    # The paced survivor keeps the stripe open until the cut link is back.
    pull = run(reconnects([None, cut], [3_000, None]))
    assert [args["link"] for args in push] == ["0"]
    assert [args["link"] for args in pull] == ["1"]
    for args in push + pull:
        assert {"attempt", "backoff", "link", "error"} <= set(args)


# -- seeded determinism ------------------------------------------------


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(seed=21, cut_after_bytes=(600,), corrupt_frames=(1,)),
        FaultPlan(seed=21, drop_frames=(1, 3), jitter_seconds=0.002),
        FaultPlan(seed=21, drop_probability=0.15),
    ],
    ids=["cut+corrupt", "drops+jitter", "lottery"],
)
def test_identical_seed_replays_identical_event_streams(plan):
    async def one_run():
        program = figure1_program()
        server_recorder = TraceRecorder()
        client_recorder = TraceRecorder()
        server = ClassFileServer(
            program, fault_plan=plan, recorder=server_recorder
        )
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host,
            port,
            backoff_base=0.005,
            backoff_jitter=0.1,
            seed=plan.seed,
            recorder=client_recorder,
        )
        await fetcher.connect()
        await fetcher.wait_until_complete()
        data = {
            name: fetcher.class_bytes(name) for name in fetcher.buffers
        }
        await fetcher.aclose()
        await server.aclose()
        return (
            event_signature(server_recorder),
            event_signature(client_recorder),
            data,
        )

    first = run(one_run())
    second = run(one_run())
    assert first == second
    assert first[0], "plan injected no faults at all"
