"""Per-fault recovery paths, timeouts, and typed failure context."""

import asyncio

import pytest

from repro import figure1_program
from repro.errors import (
    ConnectionLostError,
    ResilienceExhaustedError,
    TransferError,
)
from repro.faults import FaultPlan
from repro.netserve import (
    ClassFileServer,
    FrameKind,
    NonStrictFetcher,
    encode_frame,
    eof_frame,
    hello_ack_frame,
    read_frame,
    resume_ack_frame,
    unit_frame,
)
from repro.observe import TraceRecorder
from repro.program import MethodId
from repro.transfer import TransferUnit, UnitKind


def run(coroutine):
    return asyncio.run(coroutine)


async def clean_bytes(program):
    server = ClassFileServer(program)
    host, port = await server.start()
    fetcher = NonStrictFetcher(host, port)
    await fetcher.connect()
    await fetcher.wait_until_complete()
    data = {name: fetcher.class_bytes(name) for name in fetcher.buffers}
    await fetcher.aclose()
    await server.aclose()
    return data


async def resilient_fetch(program, plan, **kwargs):
    server = ClassFileServer(program, fault_plan=plan)
    host, port = await server.start()
    fetcher = NonStrictFetcher(
        host, port, backoff_base=0.005, backoff_jitter=0.0, **kwargs
    )
    await fetcher.connect()
    try:
        await fetcher.wait_until_complete()
        return {
            name: fetcher.class_bytes(name) for name in fetcher.buffers
        }, fetcher
    finally:
        await fetcher.aclose()
        await server.aclose()


# -- one fault type at a time ------------------------------------------


def test_corrupted_frame_is_retried_in_place():
    async def scenario():
        program = figure1_program()
        clean = await clean_bytes(program)
        plan = FaultPlan(seed=7, corrupt_frames=(1,))
        data, fetcher = await resilient_fetch(program, plan, seed=7)
        assert data == clean
        assert fetcher.stats.unit_retries >= 1

    run(scenario())


def test_dropped_frame_is_recovered_by_resume():
    async def scenario():
        program = figure1_program()
        clean = await clean_bytes(program)
        plan = FaultPlan(seed=7, drop_frames=(2,))
        data, fetcher = await resilient_fetch(program, plan, seed=7)
        assert data == clean
        assert fetcher.stats.reconnects >= 1

    run(scenario())


def test_duplicated_frames_are_suppressed_by_wire_key():
    async def scenario():
        program = figure1_program()
        clean = await clean_bytes(program)
        plan = FaultPlan(seed=7, duplicate_frames=(1, 2))
        data, fetcher = await resilient_fetch(program, plan, seed=7)
        assert data == clean
        assert fetcher.stats.duplicate_units == 2
        assert fetcher.stats.reconnects == 0

    run(scenario())


def test_stall_and_jitter_need_no_recovery():
    async def scenario():
        program = figure1_program()
        clean = await clean_bytes(program)
        plan = FaultPlan(
            seed=7,
            stall_before_frame=1,
            stall_seconds=0.05,
            jitter_seconds=0.005,
        )
        data, fetcher = await resilient_fetch(program, plan, seed=7)
        assert data == clean
        assert fetcher.stats.reconnects == 0
        assert fetcher.stats.unit_retries == 0

    run(scenario())


def test_demand_fetch_still_works_through_recovery():
    """A first-use miss mid-chaos resolves like on a clean link."""

    async def scenario():
        program = figure1_program()
        plan = FaultPlan(seed=3, cut_after_bytes=(400,))
        server = ClassFileServer(program, fault_plan=plan)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, backoff_base=0.005, seed=3
        )
        manifest = await fetcher.connect()
        _, class_name, method, _ = next(
            entry
            for entry in reversed(manifest["sequence"])
            if entry[2] is not None
        )
        await fetcher.wait_for_method(MethodId(class_name, method))
        assert fetcher.is_method_available(MethodId(class_name, method))
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


# -- exhaustion and deadlines ------------------------------------------


def test_cutting_every_connection_exhausts_resilience():
    """When even the strict fallback's connection is cut, the typed
    exhaustion error surfaces from every waiter."""

    async def scenario():
        program = figure1_program()
        plan = FaultPlan(seed=1, cut_after_frames=(0,) * 8)
        server = ClassFileServer(program, fault_plan=plan)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, max_reconnects=2, backoff_base=0.005
        )
        await fetcher.connect()
        with pytest.raises(ResilienceExhaustedError):
            await fetcher.wait_until_complete()
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_deadline_bounds_the_whole_fetch():
    async def scenario():
        program = figure1_program()
        plan = FaultPlan(
            seed=1, stall_before_frame=1, stall_seconds=5.0
        )
        server = ClassFileServer(program, fault_plan=plan)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, deadline=0.2, backoff_base=0.005
        )
        await fetcher.connect()
        with pytest.raises(TransferError, match="deadline"):
            await fetcher.wait_until_complete()
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_negative_max_reconnects_is_rejected():
    with pytest.raises(TransferError):
        NonStrictFetcher("127.0.0.1", 1, max_reconnects=-1)


# -- connect timeout ----------------------------------------------------


def test_connect_timeout_against_a_silent_server():
    """A server that accepts but never answers the handshake."""

    async def scenario():
        async def silent(reader, writer):
            await asyncio.sleep(30)

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        fetcher = NonStrictFetcher(host, port, connect_timeout=0.1)
        with pytest.raises(ConnectionLostError, match="timed out"):
            await fetcher.connect()
        server.close()
        await server.wait_closed()

    run(scenario())


def test_connect_refused_is_a_typed_error():
    async def scenario():
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        host, port = server.sockets[0].getsockname()[:2]
        server.close()
        await server.wait_closed()
        fetcher = NonStrictFetcher(host, port, connect_timeout=0.5)
        with pytest.raises(ConnectionLostError, match="cannot connect"):
            await fetcher.connect()

    run(scenario())


# -- scripted servers ----------------------------------------------------

_GOOD_UNIT = TransferUnit(kind=UnitKind.GLOBAL_DATA, class_name="Cold", size=8)
_HOT_UNIT = TransferUnit(
    kind=UnitKind.METHOD,
    class_name="Hot",
    size=8,
    method=MethodId("Hot", "run"),
)
_SEQUENCE = [
    [UnitKind.GLOBAL_DATA.value, "Cold", None, 8],
    [UnitKind.METHOD.value, "Hot", "run", 8],
]


async def scripted_server(streams, sequence=_SEQUENCE):
    """A server whose ``n``-th connection gets ``streams[n]`` after an
    ack (announcing ``sequence``) matching its greeting, then holds the
    socket until the client hangs up (the last stream repeats)."""
    connections = []

    async def handler(reader, writer):
        greeting = await read_frame(reader)
        stream = streams[min(len(connections), len(streams) - 1)]
        connections.append(greeting.field_dict)
        ack = (
            resume_ack_frame
            if greeting.kind is FrameKind.RESUME
            else hello_ack_frame
        )
        writer.write(
            encode_frame(
                ack(unit_count=2, total_bytes=16, entry=None, sequence=sequence)
            )
        )
        writer.write(stream)
        await writer.drain()
        await reader.read()
        writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, connections


def test_stream_decode_error_names_unit_and_byte_offset():
    """Every connection carries a damaged unit that still names itself
    and then an unreadable frame.  The named unit is re-requested by
    name; the unreadable frame fails the link at its stream offset; once
    the strict fallback fails the same way, every waiter gets a typed
    error instead of hanging."""

    async def scenario():
        good = encode_frame(unit_frame(_GOOD_UNIT, b"\x01" * 8))
        corrupted = bytearray(encode_frame(unit_frame(_HOT_UNIT, b"\x02" * 8)))
        corrupted[-1] ^= 0xFF  # break the CRC, keep the names readable
        unreadable = bytearray(encode_frame(eof_frame()))
        unreadable[-1] ^= 0xFF  # a broken CRC on a frame with no unit
        server, _ = await scripted_server(
            [good + bytes(corrupted) + bytes(unreadable)]
        )
        host, port = server.sockets[0].getsockname()[:2]
        recorder = TraceRecorder()
        fetcher = NonStrictFetcher(
            host, port, max_reconnects=0, recorder=recorder
        )
        await fetcher.connect()
        waiter = asyncio.ensure_future(
            fetcher.wait_for_method(MethodId("Hot", "run"), demand=False)
        )
        with pytest.raises(ResilienceExhaustedError):
            await asyncio.wait_for(waiter, timeout=5.0)
        with pytest.raises(ResilienceExhaustedError):
            await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
        retry = next(e for e in recorder.events if e.name == "unit_retry")
        assert (retry.args["class_name"], retry.args["method"]) == (
            "Hot",
            "run",
        )
        degraded = next(
            e for e in recorder.events if e.name == "degraded_to_strict"
        )
        offset = len(good) + len(corrupted)
        assert f"stream decode failed at byte {offset}" in degraded.args[
            "reason"
        ]
        await fetcher.aclose()
        server.close()
        await server.wait_closed()

    run(scenario())


def test_framing_corruption_on_a_push_link_is_resumed():
    """Bad magic right after the ack is a link failure like any other:
    the one-endpoint fetch resumes once and completes."""

    async def scenario():
        units = (
            encode_frame(unit_frame(_GOOD_UNIT, b"\x01" * 8))
            + encode_frame(unit_frame(_HOT_UNIT, b"\x02" * 8))
            + encode_frame(eof_frame())
        )
        server, connections = await scripted_server([b"\x00" * 16, units])
        host, port = server.sockets[0].getsockname()[:2]
        fetcher = NonStrictFetcher(host, port, backoff_base=0.005)
        await fetcher.connect()
        await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
        assert fetcher.stats.reconnects == 1
        assert "have" in connections[1]  # the second greeting resumed
        assert fetcher.class_bytes("Hot") == b"\x02" * 8
        assert fetcher.is_method_available(MethodId("Hot", "run"))
        await fetcher.aclose()
        server.close()
        await server.wait_closed()

    run(scenario())


def test_malformed_manifest_row_fails_typed_instead_of_hanging():
    """A manifest row the client cannot read fails the fetch with a
    typed error the moment the row is needed (here: a short stream
    whose gaps must be named), instead of killing the link's task and
    leaving every waiter hanging."""

    async def scenario():
        good = encode_frame(unit_frame(_GOOD_UNIT, b"\x01" * 8))
        stream = good + encode_frame(eof_frame())
        server, _ = await scripted_server(
            [stream], sequence=[_SEQUENCE[0], ["bogus", "Hot", "run", 8]]
        )
        host, port = server.sockets[0].getsockname()[:2]
        fetcher = NonStrictFetcher(host, port, max_reconnects=0)
        await fetcher.connect()
        with pytest.raises(ResilienceExhaustedError, match="malformed manifest row"):
            await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
        await fetcher.aclose()
        server.close()
        await server.wait_closed()

    run(scenario())
