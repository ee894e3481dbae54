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
    demand_fetch_frame,
    encode_frame,
    hello_frame,
    read_frame,
)
from repro.netserve.client import LinkState, _Link
from repro.program import MethodId
from repro.transfer import UnitKind


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
    arrives only against an explicit resend request, and there is no
    EOF — the client ends the session by closing."""

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

        # Pull exactly one unit: the plan head.
        kind_value, class_name, method_name, _size = sequence[0]
        writer.write(
            encode_frame(
                demand_fetch_frame(
                    class_name,
                    method_name,
                    kind=UnitKind(kind_value),
                    resend=True,
                )
            )
        )
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
    # (kind value, class, method, size) manifest rows: two non-strict
    # classes with leading globals, plus one strict whole-file class.
    (UnitKind.GLOBAL_DATA.value, "A", None, 40),
    (UnitKind.METHOD.value, "A", "main", 30),
    (UnitKind.METHOD.value, "A", "helper", 20),
    (UnitKind.CLASS_FILE.value, "B", None, 50),
    (UnitKind.GLOBAL_FIRST.value, "C", None, 10),
    (UnitKind.METHOD.value, "C", "run", 25),
    (UnitKind.GLOBAL_UNUSED.value, "C", None, 15),
)


def _offline_fetcher():
    """A two-endpoint (pull) fetcher with a scoreboard but no sockets."""
    fetcher = NonStrictFetcher("127.0.0.1", 1, links=[("127.0.0.1", 1)])
    fetcher._accept_manifest({"sequence": [list(row) for row in _SEQUENCE]})
    fetcher._build_board()
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
