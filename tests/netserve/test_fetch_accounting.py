"""Fetch accounting is exact, and costs one call per socket read.

The fetcher tallies each read's frames, wire bytes and landed units and
records them in one :meth:`FetchStats.record_read` call.  These tests
recount every series frame by frame from the bytes each connection
carried, and guard the number of accounting calls a drain makes.
"""

import asyncio
from collections import Counter

from repro.errors import FrameCorruptionError
from repro.faults import FaultPlan
from repro.netserve import (
    ClassFileServer,
    FrameKind,
    NonStrictFetcher,
    decode_frame,
    encode_frame,
    eof_frame,
    salvage_unit_key,
    unit_wire_key,
)
from repro.netserve import client as client_module
from repro.netserve.client import READ_CHUNK_BYTES
from repro.netserve.protocol import frame_size
from repro.netserve.stats import FetchStats
from repro.transfer import TransferPolicy
from repro.workloads.synthetic import generate_workload


def tap_reads(fetcher):
    """Keep every byte the fetcher reads after each handshake, by
    connection: exactly the frames its servers sent."""
    streams = {}
    read = fetcher._read_chunk

    async def tapped(reader):
        chunk = await read(reader)
        link = next(link for link in fetcher._links if link.reader is reader)
        streams.setdefault(reader, (link.index, bytearray()))[1].extend(chunk)
        return chunk

    fetcher._read_chunk = tapped
    return streams


def recount(streams):
    """Every accounting series, recomputed from the connections' bytes
    in the order the fetcher read them."""
    counts = Counter()
    held = set()
    for link, stream in streams.values():
        offset = 0
        while offset < len(stream):
            raw = bytes(stream[offset : offset + frame_size(stream, offset)])
            offset += len(raw)
            try:
                frame, _ = decode_frame(raw)
            except FrameCorruptionError:
                assert salvage_unit_key(raw) is not None
                counts["unit_retries"] += 1
                continue
            counts["frames"] += 1
            counts["bytes"] += len(raw)
            if frame.kind is not FrameKind.UNIT:
                continue
            key = unit_wire_key(frame.unit)
            if key in held:
                counts["duplicates"] += 1
                continue
            held.add(key)
            counts["units"] += 1
            counts["payload"] += len(frame.payload)
            counts["link_units", link] += 1
            counts["link_bytes", link] += len(frame.payload)
    return counts


def read_back(stats, links):
    """The same series, as the fetch stats report them."""
    counts = Counter(
        frames=stats.frames_received,
        bytes=stats.bytes_received,
        units=stats.units_received,
        payload=stats.payload_bytes,
        duplicates=stats.duplicate_units,
        unit_retries=stats.unit_retries,
    )
    for link in links:
        counts["link_units", link] = stats.link_units(link)
        counts["link_bytes", link] = int(
            stats.metrics.counter(
                "netserve_link_bytes_total",
                {"policy": stats.policy, "link": str(link)},
            ).value
        )
    return +counts  # zero series drop out on both sides


def fetch(program, links=1, **server_options):
    """Fetch ``program`` from one server over ``links`` sockets; return
    the fetcher (closed), its tapped streams and the manifest."""

    async def scenario():
        server = ClassFileServer(program, **server_options)
        host, port = await server.start()
        fetcher = NonStrictFetcher(
            host,
            port,
            links=[(host, port)] * (links - 1),
            seed=5,
            backoff_jitter=0.0,
        )
        streams = tap_reads(fetcher)
        try:
            manifest = await fetcher.connect()
            await fetcher.wait_until_complete()
        finally:
            await fetcher.aclose()
            await server.aclose()
        return fetcher, streams, manifest

    return asyncio.run(scenario())


def check_exact(fetcher, streams, manifest, links):
    expected = recount(streams)
    assert read_back(fetcher.stats, range(links)) == expected
    assert expected["units"] == manifest["unit_count"] == len(
        fetcher.unit_log
    )
    assert expected["payload"] == manifest["total_bytes"]
    return expected


def test_push_fetch_accounting_is_exact():
    program = generate_workload("JHLZip").program
    fetcher, streams, manifest = fetch(program)
    expected = check_exact(fetcher, streams, manifest, links=1)
    assert expected["frames"] == manifest["unit_count"] + 1  # and EOF
    assert expected["duplicates"] == expected["unit_retries"] == 0
    assert len(streams) == 1


def test_two_link_pull_fetch_accounting_is_exact():
    program = generate_workload("JHLZip").program
    fetcher, streams, manifest = fetch(program, links=2)
    expected = check_exact(fetcher, streams, manifest, links=2)
    assert expected["link_units", 0] > 0 and expected["link_units", 1] > 0
    assert expected["duplicates"] == expected["unit_retries"] == 0


def test_duplicated_and_corrupted_frames_are_accounted_exactly():
    """One frame arrives twice and one fails its CRC: the copy counts
    as a frame and a duplicate, the damaged frame as a retry only, and
    its resent copy lands once."""
    program = generate_workload("JHLZip").program
    plan = FaultPlan(seed=5, duplicate_frames=(2,), corrupt_frames=(4,))
    fetcher, streams, manifest = fetch(
        program, bandwidth=200_000, fault_plan=plan
    )
    expected = check_exact(fetcher, streams, manifest, links=1)
    assert expected["duplicates"] == expected["unit_retries"] == 1
    assert fetcher.stats.reconnects == 0
    assert expected["frames"] == manifest["unit_count"] + 2  # copy, EOF


class _Reads:
    """A socket stand-in that returns ``stream`` in full-size reads."""

    def __init__(self, stream):
        self._stream = stream
        self._at = 0
        self.count = 0

    async def read(self, limit):
        chunk = self._stream[self._at : self._at + limit]
        self._at += len(chunk)
        self.count += 1
        return chunk


def test_a_push_drain_records_once_per_read():
    """Work count: a Jess push drain in 16 KB reads makes at most one
    FetchStats recording call per read, whatever the frame count."""
    program = generate_workload("Jess").program
    artifact = ClassFileServer(program)._build_artifact(
        TransferPolicy.NON_STRICT, "static"
    )
    stream = b"".join(
        artifact.frames[unit] for unit in artifact.sequence
    ) + encode_frame(eof_frame())
    fetcher = NonStrictFetcher("127.0.0.1", 1)
    link = fetcher._links[0]
    link.reader = reads = _Reads(stream)
    calls = Counter()
    for name in dir(FetchStats):
        if name.startswith("record_"):
            method = getattr(fetcher.stats, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            setattr(fetcher.stats, name, counted)
    asyncio.run(fetcher._drain(link))
    frames = len(artifact.sequence) + 1
    assert reads.count == -(-len(stream) // READ_CHUNK_BYTES)
    # One call per read: 32 here, where per-frame recording made 1,666.
    assert calls == {"record_read": reads.count}
    assert fetcher.stats.frames_received == frames
    assert fetcher.stats.units_received == len(artifact.sequence)
    assert fetcher.stats.bytes_received == len(stream)


def test_a_push_drain_derives_each_wire_key_once(monkeypatch):
    """Work count: a Jess push drain, then ``class_bytes`` of every
    class, calls the client's ``unit_wire_key`` at most once per landed
    unit — the landing keeps the key beside the payload, and reassembly
    sorts on it."""
    program = generate_workload("Jess").program
    artifact = ClassFileServer(program)._build_artifact(
        TransferPolicy.NON_STRICT, "static"
    )
    stream = b"".join(
        artifact.frames[unit] for unit in artifact.sequence
    ) + encode_frame(eof_frame())
    fetcher = NonStrictFetcher("127.0.0.1", 1)
    fetcher._accept_manifest(
        {
            "sequence": [
                [*key, unit.size] for key, unit in artifact.units.items()
            ]
        }
    )
    link = fetcher._links[0]
    link.reader = _Reads(stream)
    calls = Counter()

    def counted(unit):
        calls["unit_wire_key"] += 1
        return unit_wire_key(unit)

    monkeypatch.setattr(client_module, "unit_wire_key", counted)
    asyncio.run(fetcher._drain(link))
    landed = fetcher.stats.units_received
    assert landed == len(artifact.sequence)
    expected = {}
    for unit in artifact.sequence:
        expected.setdefault(unit.class_name, []).append(
            artifact.payloads[unit]
        )
    for name, parts in expected.items():
        assert fetcher.class_bytes(name) == b"".join(parts)
    # One call per landing; deriving the key again to sort made two.
    assert 0 < calls["unit_wire_key"] <= landed
