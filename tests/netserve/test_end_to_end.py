"""Server + client over localhost: the acceptance-criteria suite.

These tests move real bytes over real sockets, so they assert on
*ordering* and *population* (deterministic under token-bucket pacing),
never on exact wall-clock values.
"""

import asyncio

import pytest

from repro import figure1_program, record_run
from repro.errors import (
    ProtocolError,
    ResilienceExhaustedError,
    TransferError,
)
from repro.netserve import (
    ClassFileServer,
    NonStrictFetcher,
    TokenBucket,
    run_networked,
)
from repro.program import MethodId
from repro.transfer import UnitKind


def run(coroutine):
    return asyncio.run(coroutine)


async def started_server(**kwargs):
    server = ClassFileServer(figure1_program(), **kwargs)
    await server.start()
    return server


def manifest_units(manifest):
    """Announced (class, method) pairs from a HELLO_ACK manifest."""
    return [
        (class_name, method)
        for _, class_name, method, _ in manifest["sequence"]
    ]


# -- full-workload completion ------------------------------------------


def test_multi_class_workload_completes_non_strict():
    async def scenario():
        server = await started_server()
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, policy="non_strict")
        manifest = await fetcher.connect()
        await fetcher.wait_until_complete()
        assert fetcher.stats.units_received == manifest["unit_count"]
        assert fetcher.stats.payload_bytes == manifest["total_bytes"]
        assert fetcher.stats.bytes_received > manifest["total_bytes"]
        # Every method of every class became available.
        for class_name, method in manifest_units(manifest):
            if method is not None:
                assert fetcher.is_method_available(
                    MethodId(class_name, method)
                )
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_intra_class_order_is_preserved():
    """A method unit never precedes its class's global unit."""

    async def scenario():
        server = await started_server()
        host, port = server.address
        fetcher = NonStrictFetcher(host, port)
        await fetcher.connect()
        await fetcher.wait_until_complete()
        globals_seen = set()
        for unit, _ in fetcher.unit_log:
            if unit.kind in (
                UnitKind.GLOBAL_DATA,
                UnitKind.GLOBAL_FIRST,
            ):
                globals_seen.add(unit.class_name)
            elif unit.kind == UnitKind.METHOD:
                assert unit.class_name in globals_seen
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


# -- demand-fetch priority (§5.1 on the wire) --------------------------


def test_demand_fetch_is_served_before_queued_regular_units():
    async def scenario():
        # Slow enough that the demand lands while most units queue.
        server = await started_server(bandwidth=2000, burst=64)
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, policy="non_strict")
        manifest = await fetcher.connect()
        announced = manifest_units(manifest)
        # Force a misprediction: demand the very last announced method.
        last_class, last_method = next(
            (c, m) for c, m in reversed(announced) if m is not None
        )
        target = MethodId(last_class, last_method)
        await fetcher.wait_for_method(target)
        assert fetcher.stats.demand_fetches >= 1
        conn = server.stats.connections[0]
        assert conn.demand_fetches >= 1
        assert conn.promoted_units >= 1
        await fetcher.wait_until_complete()

        # The demanded unit must have overtaken at least one unit that
        # was announced ahead of it: it was served before queued
        # regular units, the front-of-queue rule on the wire.
        arrival_order = [
            (unit.class_name, unit.method.method_name if unit.method else None)
            for unit, _ in fetcher.unit_log
        ]
        demanded_pos = arrival_order.index((last_class, last_method))
        announced_pos = announced.index((last_class, last_method))
        overtaken = [
            pair
            for pair in announced[:announced_pos]
            if arrival_order.index(pair) > demanded_pos
        ]
        assert overtaken, (
            f"demand fetch was not prioritized: announced={announced} "
            f"arrived={arrival_order}"
        )
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


# -- bridge: measured latencies ----------------------------------------


def test_bridge_populates_latency_for_every_invoked_method():
    async def scenario():
        program = figure1_program()
        _, recorder = record_run(program)
        server = await started_server(bandwidth=20_000, burst=128)
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, policy="non_strict")
        await fetcher.connect()
        result = await run_networked(fetcher, recorder.trace, cpi=50)
        invoked = recorder.trace.methods_used()
        assert result.latencies.unit == "seconds"
        for method in invoked:
            assert method in result.latencies
            assert result.latencies.latency_for(method) >= 0.0
        assert len(result.latencies) == len(invoked)
        assert result.invocation_latency >= 0.0
        assert result.wall_seconds >= result.stall_seconds
        assert result.bytes_received > 0
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


# -- paced strict vs non-strict ----------------------------------------


def test_nonstrict_first_method_available_before_strict():
    """Same workload, same pacing: the entry method becomes available
    strictly earlier under non-strict transfer (the paper's Table 4
    effect, measured on a real socket)."""

    async def first_availability(policy):
        server = await started_server(bandwidth=1500, burst=64)
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, policy=policy)
        await fetcher.connect()
        arrival = await fetcher.wait_for_method(
            MethodId("A", "main"), demand=False
        )
        await fetcher.aclose()
        await server.aclose()
        return arrival

    async def scenario():
        strict = await first_availability("strict")
        non_strict = await first_availability("non_strict")
        # Strict waits for all of class A; non-strict only for the
        # global unit plus main's unit.  At 1500 B/s the gap is tens
        # of milliseconds — far above scheduler jitter.
        assert non_strict < strict

    run(scenario())


# -- robustness ---------------------------------------------------------


def test_connection_loss_mid_stream_raises_typed_error():
    """The server vanishes mid-stream: every reconnect and the strict
    fallback are refused, and every waiter gets the typed exhaustion
    error instead of hanging."""

    async def scenario():
        # Pacing so slow that nearly nothing arrives before the cut.
        server = await started_server(bandwidth=300, burst=16)
        host, port = server.address
        fetcher = NonStrictFetcher(
            host,
            port,
            demand_timeout=0.2,
            demand_retries=2,
            backoff_base=0.005,
        )
        manifest = await fetcher.connect()
        announced = manifest_units(manifest)
        last_class, last_method = next(
            (c, m) for c, m in reversed(announced) if m is not None
        )
        target = MethodId(last_class, last_method)
        waiter = asyncio.ensure_future(
            fetcher.wait_for_method(target, demand=False)
        )
        # Deterministic readiness: yield to the loop until the waiter
        # has registered its arrival event, instead of hoping a fixed
        # sleep is long enough on a loaded CI machine.
        for _ in range(1000):
            if target in fetcher._events:
                break
            await asyncio.sleep(0)
        else:
            raise AssertionError("waiter never registered its event")
        await server.aclose()  # drops the connection mid-stream
        with pytest.raises(ResilienceExhaustedError, match="cannot connect"):
            await asyncio.wait_for(waiter, timeout=5.0)
        with pytest.raises(ResilienceExhaustedError):
            await asyncio.wait_for(fetcher.wait_until_complete(), timeout=5.0)
        assert fetcher.stats.reconnects == fetcher.max_reconnects
        await fetcher.aclose()

    run(scenario())


def test_demand_fetch_timeout_raises_not_hangs():
    async def scenario():
        server = await started_server(bandwidth=300, burst=16)
        host, port = server.address
        fetcher = NonStrictFetcher(
            host,
            port,
            demand_timeout=0.05,
            demand_retries=2,
        )
        await fetcher.connect()
        # A method the server will never have: retries, then raises.
        with pytest.raises(TransferError):
            await fetcher.wait_for_method(MethodId("Ghost", "spooky"))
        assert fetcher.stats.demand_fetches == 2
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_unknown_policy_is_rejected_with_error_frame():
    async def scenario():
        server = await started_server()
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, policy="telepathy")
        with pytest.raises(ProtocolError):
            await fetcher.connect()
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


# -- concurrency and pacing --------------------------------------------


def test_many_concurrent_clients_each_get_everything():
    async def scenario():
        server = await started_server()
        host, port = server.address

        async def one_client(policy):
            fetcher = NonStrictFetcher(host, port, policy=policy)
            manifest = await fetcher.connect()
            await fetcher.wait_until_complete()
            count = fetcher.stats.units_received
            await fetcher.aclose()
            return count, manifest["unit_count"]

        results = await asyncio.gather(
            *(
                one_client("non_strict" if i % 2 else "strict")
                for i in range(8)
            )
        )
        for received, expected in results:
            assert received == expected
        assert len(server.stats.connections) == 8
        await server.aclose()

    run(scenario())


def test_token_bucket_enforces_long_run_rate():
    async def scenario():
        import time

        bucket = TokenBucket(rate=50_000, burst=100)
        start = time.monotonic()
        total = 0
        while total < 10_000:
            await bucket.consume(1000)
            total += 1000
        elapsed = time.monotonic() - start
        # 10_000 bytes at 50_000 B/s is 0.2s minus the 100-byte burst;
        # allow generous headroom above for slow CI, none below.
        assert elapsed >= 0.15

    run(scenario())


@pytest.mark.parametrize(
    "rate", [float("nan"), float("inf"), 0.0, -1.0], ids=str
)
def test_token_bucket_refuses_a_rate_that_is_not_finite_and_positive(rate):
    """A NaN rate consumed any amount at once, so a server built with
    ``bandwidth=nan`` served unpaced and reported nothing."""
    with pytest.raises(ProtocolError, match="pacing rate"):
        TokenBucket(rate)


def test_strategy_negotiation_textual_vs_static():
    async def scenario():
        server = await started_server()
        host, port = server.address
        manifests = {}
        for strategy in ("static", "textual"):
            fetcher = NonStrictFetcher(
                host, port, strategy=strategy
            )
            manifests[strategy] = await fetcher.connect()
            await fetcher.wait_until_complete()
            await fetcher.aclose()
        assert manifests["static"]["strategy"] == "static"
        assert manifests["textual"]["strategy"] == "textual"
        # figure1's static first-use order differs from textual order,
        # so the announced sequences must differ.
        assert (
            manifests["static"]["sequence"]
            != manifests["textual"]["sequence"]
        )
        await server.aclose()

    run(scenario())

def test_weighted_strategy_negotiates_and_serves():
    async def scenario():
        server = await started_server()
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, strategy="weighted")
        manifest = await fetcher.connect()
        # Unlike "profile", "weighted" needs no training profile: it
        # degrades to its pure-static layout and keeps its name.
        assert manifest["strategy"] == "weighted"
        await fetcher.wait_until_complete()
        await fetcher.aclose()
        await server.aclose()

    run(scenario())


def test_profile_strategy_without_profile_falls_back_to_static():
    async def scenario():
        server = await started_server()
        host, port = server.address
        fetcher = NonStrictFetcher(host, port, strategy="profile")
        manifest = await fetcher.connect()
        assert manifest["strategy"] == "static"
        await fetcher.wait_until_complete()
        await fetcher.aclose()
        await server.aclose()

    run(scenario())
