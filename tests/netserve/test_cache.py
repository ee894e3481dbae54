"""The shared artifact cache: keys, LRU bounds, and server reuse."""

import asyncio

import pytest

from repro import figure1_program
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.netserve import (
    ArtifactCache,
    ClassFileServer,
    NonStrictFetcher,
    program_fingerprint,
)
from repro.observe import MetricsRegistry
from repro.transfer import TransferPolicy


def run(coroutine):
    return asyncio.run(coroutine)


# -- fingerprint -------------------------------------------------------


def test_fingerprint_is_stable_across_instances():
    assert program_fingerprint(figure1_program()) == program_fingerprint(
        figure1_program()
    )


def test_fingerprint_changes_with_content():
    base = figure1_program()
    fingerprint = program_fingerprint(base)
    mutated = figure1_program()
    mutated.classes[0].methods[0].instructions.pop()
    assert program_fingerprint(mutated) != fingerprint


# -- cache mechanics ---------------------------------------------------


def make_cache(**kwargs):
    return ArtifactCache(**kwargs)


class Stub:
    """Just enough artifact for cache mechanics: a size and identity."""

    def __init__(self, wire_bytes=10):
        self.wire_bytes = wire_bytes


def test_get_or_build_counts_hits_and_misses():
    cache = make_cache()
    calls = []
    artifact = Stub()

    def build():
        calls.append(1)
        return artifact

    key = ("fp", "non_strict", "static")
    assert cache.get_or_build(key, build) is artifact
    assert cache.get_or_build(key, build) is artifact
    assert len(calls) == 1
    assert cache.misses == 1
    assert cache.hits == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_distinct_policy_and_strategy_keys_do_not_collide():
    cache = make_cache()
    built = {}

    def build_for(key):
        def build():
            built[key] = Stub()
            return built[key]

        return build

    keys = [
        ("fp", "non_strict", "static"),
        ("fp", "non_strict", "textual"),
        ("fp", "strict", "static"),
        ("other-fp", "non_strict", "static"),
    ]
    artifacts = {key: cache.get_or_build(key, build_for(key)) for key in keys}
    assert cache.misses == len(keys)
    assert cache.hits == 0
    for key in keys:
        assert artifacts[key] is built[key]
        assert cache.get_or_build(key, build_for(key)) is built[key]
    assert cache.hits == len(keys)


def test_lru_evicts_oldest_entry_first():
    cache = make_cache(max_entries=2)
    a, b, c = ("fp", "p", "a"), ("fp", "p", "b"), ("fp", "p", "c")
    cache.get_or_build(a, Stub)
    cache.get_or_build(b, Stub)
    cache.get_or_build(a, Stub)  # refresh a: b is now oldest
    cache.get_or_build(c, Stub)  # evicts b
    assert cache.evictions == 1
    assert set(cache.keys()) == {a, c}
    cache.get_or_build(b, Stub)
    assert cache.misses == 4  # b was rebuilt


def test_byte_bound_evicts_but_keeps_newest_entry():
    cache = make_cache(max_entries=8, max_bytes=100)
    cache.get_or_build(("fp", "p", "a"), lambda: Stub(60))
    cache.get_or_build(("fp", "p", "b"), lambda: Stub(60))
    assert cache.evictions == 1
    assert cache.entry_count == 1
    # An entry bigger than the whole bound still stays (never evict
    # the most-recently-used entry down to an empty cache).
    cache.get_or_build(("fp", "p", "c"), lambda: Stub(500))
    assert cache.entry_count == 1
    assert list(cache.keys()) == [("fp", "p", "c")]
    assert cache.cached_bytes == 500


def test_cache_publishes_metrics_gauges():
    registry = MetricsRegistry()
    cache = make_cache(metrics=registry)
    key = ("fp", "p", "s")
    cache.get_or_build(key, Stub)
    cache.get_or_build(key, Stub)
    assert registry.counter("netserve_cache_hits").value == 1
    assert registry.counter("netserve_cache_misses").value == 1
    assert registry.gauge("netserve_cache_entries").value == 1


def test_invalid_bounds_are_rejected():
    with pytest.raises(ValueError):
        make_cache(max_entries=0)


# -- server integration ------------------------------------------------


def counting_restructure(monkeypatch):
    """Patch the server module's restructure with a call counter."""
    import repro.netserve.server as server_module

    calls = []
    original = server_module.restructure

    def counted(program, order):
        calls.append(1)
        return original(program, order)

    monkeypatch.setattr(server_module, "restructure", counted)
    return calls


def test_second_client_reuses_cached_plan(monkeypatch):
    calls = counting_restructure(monkeypatch)

    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        for _ in range(3):
            fetcher = NonStrictFetcher(host, port)
            await fetcher.connect()
            await fetcher.wait_until_complete()
            await fetcher.aclose()
        await server.aclose()
        return server

    server = run(scenario())
    assert len(calls) == 1
    assert server.artifact_cache.misses == 1
    assert server.artifact_cache.hits == 2


def test_resume_replays_from_cache_without_replanning(monkeypatch):
    calls = counting_restructure(monkeypatch)

    async def scenario():
        server = ClassFileServer(
            figure1_program(),
            fault_plan=FaultPlan(seed=7, cut_after_frames=(2,)),
        )
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host, port, backoff_base=0.005, backoff_jitter=0.0
        )
        await fetcher.connect()
        await fetcher.wait_until_complete()
        assert fetcher.stats.reconnects >= 1
        await fetcher.aclose()
        await server.aclose()
        return server

    server = run(scenario())
    # The RESUME negotiation hit the cache: one plan total.
    assert len(calls) == 1
    assert server.artifact_cache.hits >= 1


def test_distinct_negotiations_build_distinct_artifacts():
    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        for policy in ("non_strict", "strict"):
            fetcher = NonStrictFetcher(host, port, policy=policy)
            await fetcher.connect()
            await fetcher.wait_until_complete()
            await fetcher.aclose()
        await server.aclose()
        return server

    server = run(scenario())
    assert server.artifact_cache.misses == 2
    fingerprint = program_fingerprint(figure1_program())
    assert set(server.artifact_cache.keys()) == {
        (fingerprint, "non_strict", "static"),
        (fingerprint, "strict", "static"),
    }


def test_shared_cache_spans_servers():
    cache = ArtifactCache()

    async def one_fetch():
        server = ClassFileServer(figure1_program(), cache=cache)
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port)
        await fetcher.connect()
        await fetcher.wait_until_complete()
        await fetcher.aclose()
        await server.aclose()

    run(one_fetch())
    run(one_fetch())
    assert cache.misses == 1
    assert cache.hits == 1


def test_unresolvable_strategy_is_rejected_before_planning():
    async def scenario():
        server = ClassFileServer(figure1_program())
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port, strategy="bogus")
        with pytest.raises(ProtocolError):
            await fetcher.connect()
        await fetcher.aclose()
        await server.aclose()
        return server

    server = run(scenario())
    assert server.artifact_cache.misses == 0


def test_profile_strategy_falls_back_to_static_cache_key():
    async def scenario():
        server = ClassFileServer(figure1_program())  # no profile
        host, port = await server.start()
        for strategy in ("static", "profile"):
            fetcher = NonStrictFetcher(host, port, strategy=strategy)
            manifest = await fetcher.connect()
            assert manifest["strategy"] == "static"
            await fetcher.wait_until_complete()
            await fetcher.aclose()
        await server.aclose()
        return server

    server = run(scenario())
    # Both negotiations resolved to the same cache entry.
    assert server.artifact_cache.misses == 1
    assert server.artifact_cache.hits == 1


def test_policy_enum_round_trip():
    # The cache key uses the policy's wire value; make sure every
    # member maps to a distinct string.
    values = {policy.value for policy in TransferPolicy}
    assert len(values) == len(list(TransferPolicy))
