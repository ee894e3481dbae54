"""Striped fetch: pull-mode sessions, scoreboard retire semantics,
hedged demand races, and teardown hygiene.

The chaos scenarios (link cuts, outages, flapping, stalls) live in
``test_striped_chaos.py``; this file covers the mechanism itself.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import figure1_program
from repro.netserve import ClassFileServer, NonStrictFetcher
from repro.netserve.protocol import (
    FrameKind,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    hello_frame,
    read_frame,
    unit_kind_code,
    unit_wire_key,
)
from repro.netserve.client import LinkState, _Link
from repro.program import MethodId
from repro.transfer import UnitKind
from repro.workloads.synthetic import generate_workload


_GLOBAL_DATA = unit_kind_code(UnitKind.GLOBAL_DATA)
_METHOD = unit_kind_code(UnitKind.METHOD)


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


# -- the pull-mode wire protocol ---------------------------------------


def test_pull_session_sends_nothing_until_asked():
    """A pull HELLO gets the manifest but no pushed units; each unit
    arrives only against an explicit request naming its wire key, and
    there is no EOF — the client ends the session by closing."""

    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            encode_frame(hello_frame("non_strict", pull=True))
        )
        await writer.drain()
        ack = await read_frame(reader)
        assert ack.kind is FrameKind.HELLO_ACK
        fields = ack.field_dict
        assert fields.get("pull") is True
        sequence = fields["sequence"]
        assert sequence

        # Nothing is pushed while we stay silent.
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(read_frame(reader), timeout=0.1)

        # Pull exactly one unit: the plan head, by its wire key.
        class_name = sequence[0][1]
        writer.write(encode_frame(demand_fetch_frame(units=[sequence[0][:3]])))
        await writer.drain()
        frame = await asyncio.wait_for(read_frame(reader), timeout=2.0)
        assert frame.kind is FrameKind.UNIT
        assert frame.unit is not None
        assert frame.unit.class_name == class_name

        # Still no EOF, no second unit.
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(read_frame(reader), timeout=0.1)

        writer.close()
        await server.aclose()
        assert server.stats.connections[0].pull_sessions == 1

    run(scenario())


def test_a_units_entry_naming_no_unit_sends_nothing():
    """``[method code, class, null]`` is the wire key of no unit, so as
    an exact resend it promotes and sends nothing — not every method
    unit of the class."""

    async def scenario():
        server = ClassFileServer(generate_workload("Hanoi").program)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame(hello_frame("non_strict", pull=True)))
        await writer.drain()
        ack = await read_frame(reader)
        assert [_METHOD, "hanoi/C0", "main"] in [
            row[:3] for row in ack.field_dict["sequence"]
        ]
        nothing = demand_fetch_frame(units=[(_METHOD, "hanoi/C0", None)])
        writer.write(encode_frame(nothing))
        await writer.drain()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(read_frame(reader), timeout=0.2)
        writer.close()
        await server.aclose()
        return server.stats.connections[0]

    conn = run(scenario())
    assert conn.demand_fetches == 1
    assert conn.promoted_units == 0
    assert conn.units_sent == 0


# -- whole-stripe behavior ---------------------------------------------


@pytest.mark.parametrize("count, pulls", [(1, 0), (2, 1)], ids=["push", "pull"])
def test_endpoint_count_sets_the_link_mode(count, pulls):
    """One endpoint fetches in push mode; two fetch in pull mode only."""

    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, links=[(host, port)] * (count - 1)
        )
        await fetcher.connect()
        await asyncio.wait_for(fetcher.wait_until_complete(), timeout=10)
        await fetcher.aclose()
        await server.aclose()
        return server.stats.connections

    connections = run(scenario())
    assert len(connections) == count
    assert all(conn.pull_sessions == pulls for conn in connections)



def test_striped_fetch_matches_clean_run_and_uses_every_link():
    async def scenario():
        program = figure1_program()
        clean, methods = await clean_reference(program)
        server = ClassFileServer(program)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, links=[(host, port), (host, port)]
        )
        await fetcher.connect()
        await asyncio.wait_for(
            fetcher.wait_until_complete(), timeout=10
        )
        data = {
            name: fetcher.class_bytes(name) for name in fetcher.buffers
        }
        assert data == clean
        for method_id in methods:
            assert fetcher.is_method_available(method_id)
        used = [fetcher.stats.link_units(link) for link in range(3)]
        assert all(count > 0 for count in used)
        assert fetcher.stats.duplicate_units == 0
        await fetcher.aclose()
        await server.aclose()
        assert all(
            conn.pull_sessions == 1
            for conn in server.stats.connections
        )

    run(scenario())


def test_two_link_stripe_names_many_units_per_demand_frame():
    """A real two-server stripe reassembles the push run's bytes, lands
    every planned unit exactly once, and asks for them in fewer than
    half as many demand frames as units: each frame names a link's
    whole round, and a round follows a whole read, not one landing."""

    async def scenario():
        program = generate_workload("Hanoi").program
        clean, methods = await clean_reference(program)
        servers = [ClassFileServer(program) for _ in range(2)]
        endpoints = [await server.start() for server in servers]
        fetcher = NonStrictFetcher(*endpoints[0], links=endpoints[1:])
        manifest = await fetcher.connect()
        try:
            await asyncio.wait_for(fetcher.wait_until_complete(), timeout=10)
            data = {name: fetcher.class_bytes(name) for name in fetcher.buffers}
        finally:
            await fetcher.aclose()
            for server in servers:
                await server.aclose()
        landed = [unit_wire_key(unit) for unit, _ in fetcher.unit_log]
        demands = sum(
            conn.demand_fetches
            for server in servers
            for conn in server.stats.connections
        )
        return data, clean, methods, fetcher, manifest, landed, demands

    data, clean, methods, fetcher, manifest, landed, demands = run(scenario())
    assert data == clean
    assert all(fetcher.is_method_available(method) for method in methods)
    assert len(landed) == len(set(landed)) == manifest["unit_count"]
    assert fetcher.stats.duplicate_units == 0
    assert demands < len(landed) / 2


def _round_fetcher(states):
    """A pull fetcher over ten ready grains whose links write into lists.

    ``states`` sets each link's circuit state; every link has window 4.
    """
    rows = [[_GLOBAL_DATA, "A", None, 10]] + [
        [_METHOD, "A", f"m{index}", 5 + index] for index in range(9)
    ]
    fetcher = NonStrictFetcher(
        "127.0.0.1", 1, links=[("127.0.0.1", 1)] * (len(states) - 1), window=4
    )
    fetcher._accept_manifest({"sequence": rows})

    class Writer:
        def __init__(self):
            self.frames = []

        def write(self, data):
            self.frames.append(data)

        async def drain(self):
            pass

        def close(self):
            pass

    for link, state in zip(fetcher._links, states):
        link.writer = Writer()
        link.state = state
    return fetcher


def _named_keys(writer):
    """Each frame a link wrote, as the wire keys its ``units`` names."""
    named = []
    for data in writer.frames:
        frame, end = decode_frame(data)
        assert end == len(data) and frame.kind is FrameKind.DEMAND_FETCH
        named.append([tuple(key) for key in frame.field_dict["units"]])
    return named


def test_one_dispatch_sends_one_demand_frame_per_link():
    """One issue round over two healthy links at window 4 writes one
    DEMAND_FETCH per link, each naming the link's four units in
    scoreboard order."""
    fetcher = _round_fetcher([LinkState.HEALTHY, LinkState.HEALTHY])
    board = fetcher._board
    order = [
        unit_wire_key(item.units[0])
        for item in board.ready_items(lambda item: 0.0)
    ]
    run(fetcher._dispatch())
    first, second = (_named_keys(link.writer) for link in fetcher._links)
    assert first == [order[0:8:2]]
    assert second == [order[1:8:2]]
    assert [len(link.in_flight) for link in fetcher._links] == [4, 4]


def test_half_open_link_frame_names_one_unit():
    """A half-open link probes with exactly one unit, so its round's
    frame names one key; the healthy link's names its full window."""
    fetcher = _round_fetcher([LinkState.HEALTHY, LinkState.HALF_OPEN])
    board = fetcher._board
    order = [
        unit_wire_key(item.units[0])
        for item in board.ready_items(lambda item: 0.0)
    ]
    run(fetcher._dispatch())
    healthy, probe = (_named_keys(link.writer) for link in fetcher._links)
    assert probe == [order[:1]]
    assert healthy == [order[1:5]]


def test_hedged_demand_race_wins_on_the_healthy_link():
    """A demanded unit stuck on a frozen link is raced on the other
    link after ``hedge_delay``; the hedge copy wins, and if the frozen
    copy ever thaws it is suppressed as a duplicate."""
    from repro.faults import FaultPlan
    from repro.observe import TraceRecorder

    async def scenario():
        program = figure1_program()
        good = ClassFileServer(program)
        frozen = ClassFileServer(
            program,
            fault_plan=FaultPlan(
                seed=3, stall_before_frame=0, stall_seconds=30.0
            ),
        )
        good_addr = await good.start()
        frozen_addr = await frozen.start()
        recorder = TraceRecorder()
        fetcher = NonStrictFetcher(
            *good_addr,
            links=[frozen_addr],
            hedge_delay=0.05,
            demand_timeout=5.0,
            stall_timeout=60.0,  # keep the watchdog out of the race
            recorder=recorder,
        )
        manifest = await fetcher.connect()
        # The arbiter alternates links over the ready plan, so unit
        # ``seq`` was issued on link ``seq % 2``.  Demand a method
        # stuck on the frozen link whose class lead landed on the
        # healthy one.
        rows = manifest["sequence"]
        lead_seq = {}
        for seq, (kind, class_name, method, _size) in enumerate(rows):
            if method is None:
                lead_seq.setdefault(class_name, seq)
        target_row = next(
            (seq, row)
            for seq, row in enumerate(rows)
            if row[2] is not None
            and seq % 2 == 1
            and lead_seq.get(row[1], 1) % 2 == 0
        )
        target = MethodId(target_row[1][1], target_row[1][2])
        arrival = await asyncio.wait_for(
            fetcher.wait_for_method(target), timeout=10
        )
        assert arrival >= 0.0
        assert fetcher.is_method_available(target)
        assert fetcher.stats.hedges >= 1
        assert fetcher.stats.hedge_wins >= 1
        names = [event.name for event in recorder.events]
        assert "hedge_fired" in names
        won = next(
            event
            for event in recorder.events
            if event.name == "hedge_won"
        )
        assert won.args["role"] == "hedge"
        # Exactly one copy landed.
        landings = [
            event
            for event in recorder.events
            if event.name == "unit_arrived"
            and event.args.get("method") == target.method_name
            and event.args.get("class_name") == target.class_name
        ]
        assert len(landings) == 1
        await fetcher.aclose()
        await good.aclose()
        await frozen.aclose()

    run(scenario())


def test_aclose_mid_transfer_leaks_no_tasks_or_transports():
    """Tearing down a half-finished stripe cancels every background
    task (counted) and closes every link transport."""

    async def scenario():
        program = figure1_program()
        server = ClassFileServer(program, bandwidth=5_000)
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port, links=[(host, port)])
        await fetcher.connect()
        before = {
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        }
        assert before, "no background tasks were started"
        await fetcher.aclose()
        assert fetcher.stats.cancelled_tasks >= 3  # 2 links + watchdog
        for link in fetcher._links:
            assert link.writer is None
            assert link.task is not None and link.task.done()
        await server.aclose()
        # The server's connection handlers unwind asynchronously once
        # their transports close; give them a moment.
        for _ in range(100):
            leftovers = {
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
                and not task.done()
            }
            if not leftovers:
                break
            await asyncio.sleep(0.01)
        assert not leftovers

    run(scenario())


# -- retire-order property ---------------------------------------------

_SEQUENCE = (
    # (kind code, class, method, size) manifest rows: two non-strict
    # classes with leading globals, plus one strict whole-file class.
    (_GLOBAL_DATA, "A", None, 40),
    (_METHOD, "A", "main", 30),
    (_METHOD, "A", "helper", 20),
    (unit_kind_code(UnitKind.CLASS_FILE), "B", None, 50),
    (unit_kind_code(UnitKind.GLOBAL_FIRST), "C", None, 10),
    (_METHOD, "C", "run", 25),
    (unit_kind_code(UnitKind.GLOBAL_UNUSED), "C", None, 15),
)


def _offline_fetcher():
    """A two-endpoint (pull) fetcher with a scoreboard but no sockets."""
    fetcher = NonStrictFetcher("127.0.0.1", 1, links=[("127.0.0.1", 1)])
    fetcher._accept_manifest({"sequence": [list(row) for row in _SEQUENCE]})
    return fetcher


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(len(_SEQUENCE)))))
def test_any_landing_order_reassembles_plan_order(order):
    """Property: whatever order per-link arrivals land in, a method is
    observable only after its class's leading global retired, and the
    final class bytes equal the plan-order concatenation."""
    fetcher = _offline_fetcher()
    link = _Link(0, "127.0.0.1", 1, pull=True)
    link.state = LinkState.HEALTHY
    units = list(fetcher._unit_by_key.values())
    payloads = {
        index: bytes([index]) * unit.size
        for index, unit in enumerate(units)
    }
    landed = set()
    for index in order:
        fetcher._land_unit(link, units[index], payloads[index])
        landed.add(index)
        for check, unit in enumerate(units):
            if unit.kind is not UnitKind.METHOD:
                continue
            lead = next(
                pos
                for pos, other in enumerate(units)
                if other.class_name == unit.class_name
                and other.kind
                in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST)
            )
            expected = check in landed and lead in landed
            assert (
                fetcher.is_method_available(unit.method) is expected
            )
    assert fetcher._eof.is_set()
    for class_name in {unit.class_name for unit in units}:
        expected = b"".join(
            payloads[index]
            for index, unit in enumerate(units)
            if unit.class_name == class_name
        )
        assert fetcher.class_bytes(class_name) == expected
