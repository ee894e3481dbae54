"""Fleet-scale serving: shared-link pacing, admission, teardown.

The pacing tests measure wall-clock on purpose — the whole point of
the shared-bucket fix is that aggregate egress respects the configured
link rate no matter how many clients connect — so they use generous
ratio bounds, never exact durations.
"""

import asyncio
import time

import pytest

from repro import figure1_program
from repro.errors import ServerBusyError
from repro.netserve import ClassFileServer, NonStrictFetcher


def run(coroutine):
    return asyncio.run(coroutine)


async def fetch_once(host, port, **kwargs):
    fetcher = NonStrictFetcher(host, port, **kwargs)
    await fetcher.connect()
    await fetcher.wait_until_complete()
    await fetcher.aclose()
    return fetcher


async def timed_fetches(server, clients):
    """Start ``clients`` concurrent sessions; returns elapsed seconds."""
    host, port = server.address
    started = time.monotonic()
    await asyncio.gather(
        *(fetch_once(host, port) for _ in range(clients))
    )
    return time.monotonic() - started


# -- shared-link pacing (the bandwidth-multiplication bugfix) ----------


def test_two_paced_clients_share_one_link():
    """Two concurrent clients take ~2x one client's wall-clock.

    Under the old per-connection-bucket bug each client got its own
    ``bandwidth`` allowance, so N clients finished in ~1x single-client
    time while the aggregate egress ran at N times the configured
    rate.  With the shared server-level bucket the aggregate rate is
    fixed, so doubling the clients must roughly double the wall-clock.
    """

    async def scenario():
        server = ClassFileServer(
            figure1_program(), bandwidth=4000, burst=64
        )
        await server.start()
        try:
            solo = await timed_fetches(server, 1)
            duo = await timed_fetches(server, 2)
        finally:
            await server.aclose()
        return solo, duo

    solo, duo = run(scenario())
    assert duo >= 1.5 * solo, (
        f"two clients finished in {duo:.3f}s vs {solo:.3f}s solo: "
        f"per-connection pacing is multiplying bandwidth again"
    )


def test_aggregate_egress_respects_configured_rate():
    """Aggregate bytes/second stays within 10% of the configured link
    rate regardless of client count."""

    async def scenario():
        server = ClassFileServer(
            figure1_program(), bandwidth=4000, burst=64
        )
        await server.start()
        try:
            elapsed = await timed_fetches(server, 6)
        finally:
            await server.aclose()
        return server.stats.bytes_sent / elapsed

    rate = run(scenario())
    assert 3600 <= rate <= 4400, (
        f"aggregate egress ran at {rate:.0f} B/s against a 4000 B/s "
        f"link"
    )


def test_per_connection_cap_stacks_on_shared_link():
    """An unpaced link with a per-connection cap still paces."""

    async def scenario():
        server = ClassFileServer(
            figure1_program(),
            per_connection_bandwidth=4000,
            burst=64,
        )
        await server.start()
        try:
            elapsed = await timed_fetches(server, 1)
        finally:
            await server.aclose()
        return elapsed

    # 941 wire bytes at 4000 B/s with a 64-byte burst: >= ~0.2s.
    assert run(scenario()) >= 0.1


# -- admission control -------------------------------------------------


def test_connection_past_limit_gets_clean_busy_error():
    async def scenario():
        # Slow pacing keeps the first connection occupying the slot.
        server = ClassFileServer(
            figure1_program(),
            bandwidth=4000,
            burst=64,
            max_connections=1,
        )
        host, port = await server.start()
        first = asyncio.create_task(fetch_once(host, port))
        await asyncio.sleep(0.05)  # first client is mid-stream
        # No retry budget: BUSY surfaces at once instead of being
        # retried until the slot frees up.
        rejected = NonStrictFetcher(host, port, max_reconnects=0)
        with pytest.raises(ServerBusyError):
            await rejected.connect()
        await rejected.aclose()
        await first
        # The slot is free again: a later connection is admitted.
        await fetch_once(host, port)
        await server.aclose()
        return server

    server = run(scenario())
    assert server.stats.rejected_connections == 1
    # Rejections never create connection stats entries.
    assert len(server.stats.connections) == 2


def test_resilient_fetcher_retries_busy_until_admitted():
    async def scenario():
        server = ClassFileServer(
            figure1_program(),
            bandwidth=4000,
            burst=64,
            max_connections=1,
        )
        host, port = await server.start()
        first = asyncio.create_task(fetch_once(host, port))
        await asyncio.sleep(0.05)
        patient = NonStrictFetcher(
            host,
            port,
            backoff_base=0.1,
            backoff_jitter=0.0,
            max_reconnects=8,
        )
        await patient.connect()
        await patient.wait_until_complete()
        await patient.aclose()
        await first
        await server.aclose()
        return server, patient

    server, patient = run(scenario())
    assert patient.stats.busy_retries >= 1
    assert server.stats.rejected_connections >= 1


def test_striped_connect_retries_busy_until_admitted():
    """BUSY is as transient for a two-endpoint stripe as for one link:
    both links back off and retry, one is admitted once the slot frees
    up, and the stripe completes over it."""

    async def scenario():
        server = ClassFileServer(figure1_program(), max_connections=1)
        host, port = await server.start()
        # Hold the only slot for 0.2 s with a connection that stays
        # silent, so the server never starts its session.
        _, holder = await asyncio.open_connection(host, port)
        await asyncio.sleep(0.05)
        asyncio.get_running_loop().call_later(0.2, holder.close)
        fetcher = NonStrictFetcher(
            host, port, links=[(host, port)], backoff_jitter=0.0
        )
        await fetcher.connect()
        await asyncio.wait_for(fetcher.wait_until_complete(), timeout=10)
        await fetcher.aclose()
        await server.aclose()
        return server, fetcher

    server, fetcher = run(scenario())
    assert fetcher.stats.busy_retries >= 2
    assert fetcher.stats.degraded == 0
    assert server.stats.rejected_connections >= 2
    assert all(conn.pull_sessions == 1 for conn in server.stats.connections[1:])


def test_striped_connect_returns_once_one_link_is_admitted():
    """One link admitted, its sibling turned away with BUSY: connect()
    returns at once and the stripe runs on the admitted link.  The busy
    link rejoins through its reconnect budget, not by holding the
    connect in backoff."""

    async def scenario():
        server = ClassFileServer(figure1_program(), max_connections=1)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host,
            port,
            links=[(host, port)],
            backoff_base=2.0,
            backoff_jitter=0.0,
        )
        started = time.monotonic()
        await fetcher.connect()
        connected = time.monotonic() - started
        await asyncio.wait_for(fetcher.wait_until_complete(), timeout=10)
        await fetcher.aclose()
        await server.aclose()
        return connected, server, fetcher

    connected, server, fetcher = run(scenario())
    assert connected < 1.0
    assert fetcher.stats.busy_retries == 0
    assert fetcher.stats.degraded == 0
    assert server.stats.rejected_connections == 1


def test_max_connections_validation():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        ClassFileServer(figure1_program(), max_connections=0)


# -- teardown hygiene --------------------------------------------------


def test_no_tasks_survive_session_and_close():
    """Every server/client task is awaited out before the loop ends."""

    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        await asyncio.gather(
            *(fetch_once(host, port) for _ in range(3))
        )
        await server.aclose()
        await asyncio.sleep(0)  # let close callbacks run
        return [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]

    assert run(scenario()) == []


def test_active_connection_gauge_returns_to_zero():
    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        await asyncio.gather(
            *(fetch_once(host, port) for _ in range(3))
        )
        await asyncio.sleep(0.05)  # handlers drain their finally blocks
        await server.aclose()
        return server

    server = run(scenario())
    assert server.stats.active_connections == 0
    assert len(server.stats.connections) == 3


def test_demand_loop_failure_is_surfaced_not_swallowed():
    """A real demand-loop exception is counted, never silently lost."""

    async def scenario():
        # Paced, so the send loop yields and the demand task actually
        # starts (an unpaced localhost send can finish without ever
        # reaching the event loop).
        server = ClassFileServer(
            figure1_program(), bandwidth=20000, burst=64
        )

        async def broken_demand_loop(
            reader, pending, sequence, conn, **kwargs
        ):
            raise RuntimeError("demand loop blew up")

        server._demand_loop = broken_demand_loop
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(
            lambda _loop, ctx: unhandled.append(ctx)
        )
        await fetch_once(host, port)
        await asyncio.sleep(0.05)  # handler finishes its finally/raise
        await server.aclose()
        return server

    server = run(scenario())
    assert server.stats.demand_loop_errors == 1


def test_client_aclose_waits_for_transport():
    """aclose() in the middle of a push transfer closes the link's
    transport and drops it."""

    async def scenario():
        # Paced, so the transfer is still running when aclose() comes.
        server = ClassFileServer(figure1_program(), bandwidth=4000, burst=64)
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port)
        await fetcher.connect()
        link = fetcher._links[0]
        writer = link.writer
        open_before = not writer.is_closing()
        await fetcher.aclose()
        closed = writer.is_closing() and link.writer is None
        await server.aclose()
        return open_before, closed

    open_before, closed = run(scenario())
    assert open_before
    assert closed
