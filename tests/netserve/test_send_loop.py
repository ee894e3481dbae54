"""The serve loop over real sockets: batching, fairness, demand checks.

The server sends a session in batches of whole frames and yields once
per batch; the fetcher yields once after a landing wakes a waiter.
These tests pin what that buys — a waiting caller resumes when its
unit lands, and a second session's handshake interleaves with the
first session's bulk — and what it must not change: the bytes on the
wire and the per-connection counts.
"""

import asyncio
from collections import deque

import pytest

from repro import figure1_program
from repro.netserve import (
    ArtifactCache,
    ClassFileServer,
    Frame,
    FrameKind,
    NonStrictFetcher,
    decode_frame,
    encode_frame,
    eof_frame,
    hello_frame,
    program_fingerprint,
    read_frame,
)
from repro.netserve import protocol
from repro.netserve import server as server_module
from repro.observe import TraceRecorder
from repro.program import MethodId
from repro.transfer import TransferPolicy, UnitKind
from repro.workloads.synthetic import generate_workload
from repro.workloads.spec import PAPER_BENCHMARKS

WORKLOADS = [spec.name for spec in PAPER_BENCHMARKS]


def run(coroutine):
    return asyncio.run(coroutine)


async def greet(host, port, policy):
    """A raw client: send HELLO, return (reader, writer, ack)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_frame(hello_frame(policy)))
    await writer.drain()
    return reader, writer, await read_frame(reader)


# -- a waiter resumes when its unit lands ------------------------------


@pytest.mark.parametrize("policy", ["non_strict", "data_partitioned"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_entry_wait_returns_when_the_entry_unit_lands(name, policy):
    """On an unpaced link, a passive wait for the entry method returns
    with exactly the units up to the entry's unit landed — not once the
    socket buffer, or the whole stream, has been decoded."""

    async def scenario():
        server = ClassFileServer(generate_workload(name).program)
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port, policy=policy)
        try:
            manifest = await fetcher.connect()
            entry = MethodId(*manifest["entry"])
            await fetcher.wait_for_method(entry, demand=False)
            landed = fetcher.stats.units_received
        finally:
            await fetcher.aclose()
            await server.aclose()
        announced = [(row[1], row[2]) for row in manifest["sequence"]]
        position = announced.index((entry.class_name, entry.method_name))
        return landed, position

    landed, position = run(scenario())
    assert landed == position + 1


def test_second_session_connects_while_the_first_streams():
    """A second client's handshake is served between the first
    session's batches, not after its whole stream."""

    async def scenario():
        server = ClassFileServer(generate_workload("Jess").program)
        host, port = await server.start()
        first = NonStrictFetcher(host, port)
        second = NonStrictFetcher(host, port)
        try:
            manifest = await first.connect()
            await second.connect()
            landed = first.stats.units_received
            await first.wait_until_complete()
            await second.wait_until_complete()
        finally:
            await first.aclose()
            await second.aclose()
            await server.aclose()
        return landed, manifest["unit_count"]

    landed, total = run(scenario())
    assert landed < total


# -- batching changes writes, never bytes ------------------------------


@pytest.mark.parametrize(
    "policy", ["strict", "non_strict", "data_partitioned"]
)
def test_push_bytes_are_the_artifact_frames_in_sequence_order(policy):
    """After the ack, a push session is every pre-encoded frame in plan
    order, then EOF, then the end of the stream — and the connection's
    counters match what was read."""

    async def scenario():
        program = generate_workload("Jess").program
        cache = ArtifactCache()
        server = ClassFileServer(program, cache=cache)
        host, port = await server.start()
        reader, writer, ack = await greet(host, port, policy)
        stream = await reader.read()
        writer.close()
        await writer.wait_closed()
        await server.aclose()

        def missing():
            raise LookupError(policy)

        artifact = cache.get_or_build(
            (program_fingerprint(program), policy, "static"), missing
        )
        return ack, stream, artifact, server.stats.connections[0]

    ack, stream, artifact, conn = run(scenario())
    assert ack.kind is FrameKind.HELLO_ACK
    frames = [artifact.frames[unit] for unit in artifact.sequence]
    assert stream == b"".join(frames) + encode_frame(eof_frame())
    assert conn.frames_sent == len(frames) + 1
    assert conn.units_sent == len(frames)
    assert conn.bytes_sent == len(stream)
    assert not conn.aborted


# -- malformed demands are typed, not crashes --------------------------


@pytest.mark.parametrize(
    "fields",
    [
        {"class": "A", "kind": "abc", "resend": True},
        {"class": ["a"], "resend": True},
        {"class": "A", "method": 5},
        {"units": "A.main"},
        {"units": [[4, "A", "main"], [4, "A"]]},
        {"units": [{"kind": 4, "class": "A", "method": "main"}]},
        {"units": [["4", "A", "main"]]},
        {"units": [[4.0, "A", "main"]]},
        {"units": [[True, "A", "main"]]},
        {"class": "A", "method": "main", "kind": 4, "resend": True},
        {"class": "A"},
        {"class": "A", "method": None, "units": []},
        {},
    ],
    ids=[
        "kind-not-int",
        "class-not-str",
        "method-not-str",
        "units-not-list",
        "units-entry-not-3-items",
        "units-entry-not-list",
        "units-kind-str",
        "units-kind-float",
        "units-kind-bool",
        "version-1-resend",
        "class-without-method",
        "both-shapes",
        "no-fields",
    ],
)
def test_malformed_demand_ends_the_demand_loop_quietly(fields):
    """A DEMAND_FETCH with a wrongly typed field, a ``units`` list that
    is not a list of ``[integer, string, string or null]`` entries, or
    a field set that is neither ``{class, method}`` nor ``{units}`` is
    refused like a frame that cannot be decoded: the demand loop stops
    listening, nothing reaches the loop's exception handler, and the
    paced push session still completes."""

    async def scenario():
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        server = ClassFileServer(figure1_program(), bandwidth=4000, burst=64)
        host, port = await server.start()
        reader, writer, ack = await greet(host, port, "non_strict")
        demand = Frame(
            kind=FrameKind.DEMAND_FETCH, fields=tuple(sorted(fields.items()))
        )
        writer.write(encode_frame(demand))
        await writer.drain()
        stream = await reader.read()
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.05)  # the handler finishes its teardown
        await server.aclose()
        return ack, stream, unhandled, server

    ack, stream, unhandled, server = run(scenario())
    kinds = []
    offset = 0
    while offset < len(stream):
        frame, offset = decode_frame(stream, offset)
        kinds.append(frame.kind)
    assert kinds.count(FrameKind.UNIT) == ack.field_dict["unit_count"]
    assert kinds[-1] is FrameKind.EOF
    assert unhandled == []
    assert server.stats.demand_loop_errors == 0


# -- a class demand promotes the class's pending units ----------------


_METHOD = protocol.unit_kind_code(UnitKind.METHOD)
_GLOBAL_FIRST = protocol.unit_kind_code(UnitKind.GLOBAL_FIRST)
_CLASS_FILE = protocol.unit_kind_code(UnitKind.CLASS_FILE)


def _sent_and_pending(artifact):
    """A data-partitioned figure-1 session part-way through: class A's
    leading global, ``main`` and ``Bar_A`` sent, the rest pending."""
    sent = {
        unit
        for unit in artifact.sequence
        if unit.class_name == "A"
        and (
            unit.kind is UnitKind.GLOBAL_FIRST
            or (unit.method and unit.method.method_name in ("main", "Bar_A"))
        )
    }
    return sent, deque(unit for unit in artifact.sequence if unit not in sent)


@pytest.mark.parametrize(
    "class_name, method", [("A", "Foo_A"), ("A", None), ("B", "main"), ("Z", "main")]
)
def test_class_demand_promotes_the_class_pending_units(
    monkeypatch, class_name, method
):
    """A ``{class, method}`` demand moves the class's pending units, in
    queue order, ahead of the rest, whatever method it names; it never
    re-queues a sent unit, an unknown class moves nothing, and matching
    never builds wire keys."""
    program = figure1_program()
    server = ClassFileServer(program)
    artifact = server._plan_session(TransferPolicy.DATA_PARTITIONED, "static")
    sent, pending = _sent_and_pending(artifact)
    before = list(pending)
    promoted = [unit for unit in before if unit.class_name == class_name]
    wire_keys = []
    monkeypatch.setattr(
        server_module, "unit_wire_key", lambda unit: wire_keys.append(unit)
    )

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(
            encode_frame(protocol.demand_fetch_frame(class_name, method))
        )
        reader.feed_eof()
        conn = server.stats.open_connection("peer", 0.0)
        await server._demand_requests(reader, pending, artifact, conn, None)
        return conn

    conn = run(scenario())
    assert list(pending) == promoted + [
        unit for unit in before if unit not in promoted
    ]
    assert not sent.intersection(pending)
    assert conn.demand_fetches == 1
    assert conn.promoted_units == len(promoted)
    assert wire_keys == []


# -- a units list is a block of exact resends --------------------------


def _units_by_wire_keys(artifact, entries):
    """What a ``units`` list promotes, found by scanning the send
    order: for each entry in order, the one unit whose wire key it is,
    each unit once."""
    block = []
    for entry in entries:
        for unit in artifact.sequence:
            if list(protocol.unit_wire_key(unit)) == entry and unit not in block:
                block.append(unit)
    return block


@pytest.mark.parametrize(
    "entries, expect",
    [
        (
            [[_METHOD, "A", "Foo_A"], [_METHOD, "A", "main"], [_GLOBAL_FIRST, "A", None]],
            ["Foo_A", "main", UnitKind.GLOBAL_FIRST],
        ),
        (
            [[_METHOD, "B", "Foo_B"], [_METHOD, "A", "Bar_A"], [_METHOD, "B", "Bar_B"]],
            ["Foo_B", "Bar_A", "Bar_B"],
        ),
        ([[_METHOD, "A", "main"], [_METHOD, "A", "main"]], ["main"]),
        ([[_METHOD, "Z", "main"]], []),
        ([[_METHOD, "A", "nope"]], []),
        ([[99, "A", "main"]], []),
        ([[_CLASS_FILE, "A", None]], []),
        ([[_METHOD, "A", None]], []),
        ([], []),
    ],
    ids=[
        "pending-then-sent",
        "across-classes",
        "repeated-entry",
        "unknown-class",
        "unknown-method",
        "unknown-kind-code",
        "kind-not-in-class",
        "method-kind-without-a-name",
        "empty",
    ],
)
def test_units_list_promotes_its_matches_as_one_block(
    monkeypatch, entries, expect
):
    """A ``units`` list moves every unit it names to the front as one
    block, in list order: a sent unit is queued again, a pending one
    moves without a second copy, and the rest of the queue keeps its
    order.  Each entry is an exact wire key: one naming an unknown
    class, method or kind code, or a method kind with no method name,
    names nothing.  The frame counts as one demand fetch with every promoted
    unit and emits one ``demand_fetch`` event (and one
    ``schedule_decision`` when it promotes anything), and matching
    never builds wire keys."""
    program = figure1_program()
    recorder = TraceRecorder(clock="seconds")
    server = ClassFileServer(program, recorder=recorder)
    artifact = server._plan_session(TransferPolicy.DATA_PARTITIONED, "static")
    sent, pending = _sent_and_pending(artifact)
    before = list(pending)
    block = _units_by_wire_keys(artifact, entries)
    wire_keys = []
    monkeypatch.setattr(
        server_module, "unit_wire_key", lambda unit: wire_keys.append(unit)
    )

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(
            encode_frame(protocol.demand_fetch_frame(units=entries))
        )
        reader.feed_eof()
        conn = server.stats.open_connection("peer", 0.0)
        await server._demand_requests(reader, pending, artifact, conn, None)
        return conn

    conn = run(scenario())
    assert [
        unit.method.method_name if unit.method else unit.kind
        for unit in block
    ] == expect
    assert list(pending) == block + [
        unit for unit in before if unit not in block
    ]
    assert len(pending) == len(before) + len(sent.intersection(block))
    assert conn.demand_fetches == 1
    assert conn.promoted_units == len(block)
    assert len(recorder.named("demand_fetch")) == 1
    decisions = recorder.named("schedule_decision")
    assert [event.args["promoted_units"] for event in decisions] == (
        [len(block)] if block else []
    )
    assert wire_keys == []
