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
    ],
)
def test_malformed_demand_ends_the_demand_loop_quietly(fields):
    """A DEMAND_FETCH with a wrongly typed field, or a ``units`` list
    that is not a list of ``[integer, string, string or null]``
    entries, is handled like a frame that cannot be decoded: the demand
    loop stops listening, nothing reaches the loop's exception handler,
    and the paced push session still completes."""

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


# -- a resend is matched inside its class ------------------------------


def _resend_by_wire_keys(artifact, pending, fields):
    """What a resend promotes, matched by wire keys: the class's units
    that are not pending and match its kind code and method name, then
    the class's pending units."""
    demanded, held = fields["class"], set(pending)
    kind_code, method = fields.get("kind"), fields.get("method")
    return [
        unit
        for unit in artifact.units_by_class.get(demanded, ())
        if unit not in held
        and kind_code in (None, protocol.unit_wire_key(unit)[0])
        and method in (None, protocol.unit_wire_key(unit)[2])
    ] + [unit for unit in pending if unit.class_name == demanded]


_METHOD = protocol.unit_kind_code(UnitKind.METHOD)
_GLOBAL_FIRST = protocol.unit_kind_code(UnitKind.GLOBAL_FIRST)
_CLASS_FILE = protocol.unit_kind_code(UnitKind.CLASS_FILE)


@pytest.mark.parametrize(
    "fields, expect",
    [
        ({"class": "A", "method": "main", "kind": _METHOD}, "main"),
        ({"class": "A", "kind": _GLOBAL_FIRST}, UnitKind.GLOBAL_FIRST),
        ({"class": "A", "method": "Foo_A", "kind": _METHOD}, None),
        ({"class": "A", "kind": _METHOD}, None),
        ({"class": "A", "method": "Bar_A"}, None),
        ({"class": "A"}, None),
        ({"class": "A", "kind": 99}, "plain"),
        ({"class": "A", "kind": _CLASS_FILE}, "plain"),
        ({"class": "Z", "method": "main", "kind": _METHOD}, "plain"),
    ],
    ids=[
        "exact-method",
        "exact-global",
        "exact-but-pending",
        "method-kind-any-method",
        "method-name-any-kind",
        "whole-class",
        "unknown-kind-code",
        "kind-not-in-class",
        "unknown-class",
    ],
)
def test_resend_promotes_its_matches_ahead_of_the_class(
    monkeypatch, fields, expect
):
    """A resend re-enqueues the sent units of its class that match its
    kind and method, ahead of the class's pending units, and the rest
    of the queue keeps its order; matching never builds wire keys.

    ``expect`` names the one unit an exact resend puts first, or is
    ``"plain"`` when nothing matches and only the plain demand's
    promotion is left."""
    program = figure1_program()
    server = ClassFileServer(program)
    artifact = server._plan_session(TransferPolicy.DATA_PARTITIONED, "static")
    sent = {
        unit
        for unit in artifact.units_by_class["A"]
        if unit.kind is UnitKind.GLOBAL_FIRST
        or (unit.method and unit.method.method_name in ("main", "Bar_A"))
    }
    pending = deque(unit for unit in artifact.sequence if unit not in sent)
    before = list(pending)
    promoted = _resend_by_wire_keys(artifact, before, fields)
    wire_keys = []
    monkeypatch.setattr(
        server_module, "unit_wire_key", lambda unit: wire_keys.append(unit)
    )

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(
            encode_frame(
                Frame(
                    kind=FrameKind.DEMAND_FETCH,
                    fields=tuple(sorted({**fields, "resend": True}.items())),
                )
            )
        )
        reader.feed_eof()
        conn = server.stats.open_connection("peer", 0.0)
        await server._demand_requests(reader, pending, artifact, conn, None)
        return conn

    conn = run(scenario())
    assert list(pending) == promoted + [
        unit for unit in before if unit not in promoted
    ]
    plain = [unit for unit in before if unit.class_name == fields["class"]]
    if expect == "plain":
        assert promoted == plain
    elif expect is not None:
        head = pending[0]
        assert head in sent
        assert expect in (head.kind, head.method and head.method.method_name)
        assert promoted == [head] + plain
    assert conn.demand_fetches == 1
    assert conn.promoted_units == len(promoted)
    assert wire_keys == []


# -- a units list is a block of exact resends --------------------------


def _units_by_wire_keys(artifact, entries):
    """What a ``units`` list promotes, matched by wire keys: for each
    entry in order, the units of its class with its kind code and (when
    given) method name, each unit once."""
    block = []
    for code, class_name, method in entries:
        for unit in artifact.units_by_class.get(class_name, ()):
            kind, _, name = protocol.unit_wire_key(unit)
            if kind == code and method in (None, name) and unit not in block:
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
        "empty",
    ],
)
def test_units_list_promotes_its_matches_as_one_block(
    monkeypatch, entries, expect
):
    """A ``units`` list moves every match to the front as one block, in
    list order: a sent unit is queued again, a pending one moves
    without a second copy, and the rest of the queue keeps its order.
    An entry naming an unknown class, method or kind code matches
    nothing.  The frame counts as one demand fetch with every promoted
    unit and emits one ``demand_fetch`` event (and one
    ``schedule_decision`` when it promotes anything), and matching
    never builds wire keys."""
    program = figure1_program()
    recorder = TraceRecorder(clock="seconds")
    server = ClassFileServer(program, recorder=recorder)
    artifact = server._plan_session(TransferPolicy.DATA_PARTITIONED, "static")
    sent = {
        unit
        for unit in artifact.units_by_class["A"]
        if unit.kind is UnitKind.GLOBAL_FIRST
        or (unit.method and unit.method.method_name in ("main", "Bar_A"))
    }
    pending = deque(unit for unit in artifact.sequence if unit not in sent)
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
