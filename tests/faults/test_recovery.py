"""Per-fault recovery paths, timeouts, and typed failure context."""

import asyncio
import struct

import pytest

from repro import figure1_program
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    ResilienceExhaustedError,
    StreamDecodeError,
    TransferError,
)
from repro.faults import FaultPlan
from repro.netserve import (
    MAGIC,
    PROTOCOL_VERSION,
    ClassFileServer,
    FrameKind,
    NonStrictFetcher,
    encode_frame,
    eof_frame,
    hello_ack_frame,
    read_frame,
    resume_ack_frame,
    unit_frame,
    unit_wire_key,
)
from repro.netserve.protocol import unit_kind_code
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
    [unit_kind_code(UnitKind.GLOBAL_DATA), "Cold", None, 8],
    [unit_kind_code(UnitKind.METHOD), "Hot", "run", 8],
]


async def scripted_server(streams, sequence=_SEQUENCE, sound_acks=0, acks=None):
    """A server whose ``n``-th connection gets ``streams[n]`` after an
    ack matching its greeting, then holds the socket until the client
    hangs up (the last stream repeats).  The first ``sound_acks`` acks
    announce ``_SEQUENCE``, every later one ``sequence``; ``acks``, when
    given, names each connection's sequence instead (the last
    repeats)."""
    connections = []

    async def handler(reader, writer):
        greeting = await read_frame(reader)
        stream = streams[min(len(connections), len(streams) - 1)]
        if acks is not None:
            announced = acks[min(len(connections), len(acks) - 1)]
        elif len(connections) < sound_acks:
            announced = _SEQUENCE
        else:
            announced = sequence
        connections.append(greeting.field_dict)
        ack = (
            resume_ack_frame
            if greeting.kind is FrameKind.RESUME
            else hello_ack_frame
        )
        writer.write(
            encode_frame(
                ack(unit_count=2, total_bytes=16, entry=None, sequence=announced)
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


def test_stream_decode_error_offset_counts_only_its_connection():
    """On a stripe's second link, an undecodable frame that names no
    unit is reported at its offset in that connection's stream, counted
    from the end of the handshake ack, with the last unit that
    connection delivered — whatever the other link already landed."""
    units = [
        TransferUnit(kind=UnitKind.GLOBAL_DATA, class_name="A", size=40),
    ] + [
        TransferUnit(
            kind=UnitKind.METHOD,
            class_name="A",
            size=size,
            method=MethodId("A", name),
        )
        for name, size in (("main", 30), ("helper", 20), ("tail", 10))
    ]
    fetcher = NonStrictFetcher("127.0.0.1", 1, links=[("127.0.0.1", 1)])
    fetcher._accept_manifest(
        {"sequence": [[*unit_wire_key(unit), unit.size] for unit in units]}
    )
    frames = [
        encode_frame(unit_frame(unit, bytes([index]) * unit.size))
        for index, unit in enumerate(units)
    ]
    # An EOF frame with a body and a CRC that does not match it.
    unreadable = struct.pack(
        ">HBBI", MAGIC, PROTOCOL_VERSION, int(FrameKind.EOF), 4
    ) + b"junk" + struct.pack(">I", 0)

    async def drain(link, stream):
        link.reader = asyncio.StreamReader()
        link.reader.feed_data(stream)
        link.reader.feed_eof()
        await fetcher._drain(link)

    async def scenario():
        first, second = fetcher._links
        with pytest.raises(ConnectionLostError):
            await drain(first, frames[0])
        with pytest.raises(StreamDecodeError) as caught:
            await drain(second, frames[1] + frames[2] + unreadable)
        return caught.value

    error = run(scenario())
    assert error.byte_offset == len(frames[1]) + len(frames[2])
    assert f"at byte {error.byte_offset}:" in str(error)
    assert (error.class_name, error.method_name) == ("A", "helper")
    assert fetcher.stats.units_received == 3


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


#: Manifests a client must refuse, each announcing the good Cold unit
#: beside its fault.
_MALFORMED_MANIFESTS = {
    "unknown-kind": [_SEQUENCE[0], ["bogus", "Hot", None, 8]],
    "short-row": [_SEQUENCE[0], [unit_kind_code(UnitKind.METHOD), "Hot"]],
    "size-not-int": [_SEQUENCE[0], [unit_kind_code(UnitKind.GLOBAL_DATA), "Hot", None, "x"]],
    "sequence-not-a-list": 7,
}


@pytest.mark.parametrize("pull", [False, True], ids=["push", "pull"])
@pytest.mark.parametrize("ack", ["HELLO_ACK", "RESUME_ACK"])
@pytest.mark.parametrize(
    "sequence", list(_MALFORMED_MANIFESTS.values()), ids=list(_MALFORMED_MANIFESTS)
)
def test_malformed_manifest_ends_as_a_protocol_error(sequence, ack, pull):
    """Every manifest row is read by one parser that raises
    ``ProtocolError``: a pull stripe reads the session's rows at once,
    so ``connect()`` refuses them; every other manifest is read when
    the plan is next needed, and the reconnect ladder takes the error
    like any other link failure.  With every later ack malformed too,
    the fetch ends in a typed error that names the manifest — never a
    built-in exception from a row, and never a hang."""

    async def scenario():
        good = encode_frame(unit_frame(_GOOD_UNIT, b"\x01" * 8))
        links = 2 if pull else 1
        server, connections = await scripted_server(
            [good + encode_frame(eof_frame())],
            sequence=sequence,
            sound_acks=links if ack == "RESUME_ACK" else 0,
        )
        host, port = server.sockets[0].getsockname()[:2]
        fetcher = NonStrictFetcher(
            host,
            port,
            links=[(host, port)] * (links - 1),
            max_reconnects=1,
            backoff_base=0.005,
            backoff_jitter=0.0,
        )
        try:
            with pytest.raises(
                (ProtocolError, ResilienceExhaustedError), match="malformed manifest"
            ) as caught:
                await fetcher.connect()
                await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
        finally:
            await fetcher.aclose()
            server.close()
            await server.wait_closed()
        return caught.value, connections

    error, connections = run(scenario())
    refused_at_connect = ack == "HELLO_ACK" and (pull or sequence == 7)
    assert isinstance(error, ProtocolError) == refused_at_connect
    if not refused_at_connect:
        # The strict fallback's refused ack is why the fetch ended.
        assert isinstance(error.__cause__, ProtocolError)
        assert "malformed manifest" in str(error.__cause__)
    if ack == "RESUME_ACK":
        assert any("have" in greeting for greeting in connections)


def test_refused_resume_ack_never_enters_the_plan():
    """A push fetch's resumed ack announces a malformed row, so the
    resume is refused as it lands; the strict fallback's ack is sound,
    so the fetch still lands both planned units (before a refused ack
    stayed queued for the plan and failed the fallback too)."""
    cold_file = TransferUnit(kind=UnitKind.CLASS_FILE, class_name="Cold", size=8)
    hot_file = TransferUnit(kind=UnitKind.CLASS_FILE, class_name="Hot", size=8)
    strict_sequence = [
        [*unit_wire_key(unit), unit.size] for unit in (cold_file, hot_file)
    ]

    async def scenario():
        good = encode_frame(unit_frame(_GOOD_UNIT, b"\x01" * 8))
        strict = (
            encode_frame(unit_frame(cold_file, b"\x03" * 8))
            + encode_frame(unit_frame(hot_file, b"\x04" * 8))
            + encode_frame(eof_frame())
        )
        server, connections = await scripted_server(
            [good + encode_frame(eof_frame()), encode_frame(eof_frame()), strict],
            acks=[_SEQUENCE, [[unit_kind_code(UnitKind.METHOD), "Hot", None, 8]], strict_sequence],
        )
        host, port = server.sockets[0].getsockname()[:2]
        fetcher = NonStrictFetcher(
            host, port, max_reconnects=1, backoff_base=0.005, backoff_jitter=0.0
        )
        try:
            await fetcher.connect()
            await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
            assert fetcher.stats.degraded
            assert fetcher.is_method_available(MethodId("Hot", "run"))
            assert fetcher.class_bytes("Hot") == b"\x04" * 8
        finally:
            await fetcher.aclose()
            server.close()
            await server.wait_closed()
        return connections

    connections = run(scenario())
    assert "have" in connections[1]  # the refused resume
    assert len(connections) == 3
