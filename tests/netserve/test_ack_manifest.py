"""The ack's manifest: encoded once per artifact, the same bytes on the wire.

A ``HELLO_ACK`` carries the session's fields around its artifact's
manifest rows, which the artifact encoded once when it was built.  The
acks must still decode to exactly the fields the server used to encode
whole for every session, and a ``RESUME_ACK`` still lists only the
rows its client lacks.
"""

import asyncio
import json

import pytest

from repro.harness import BENCHMARK_NAMES
from repro.netserve import (
    ClassFileServer,
    FrameKind,
    NonStrictFetcher,
    decode_frame,
    encode_frame,
    hello_ack_frame,
    hello_frame,
    read_raw_frame,
    resume_ack_frame,
    resume_frame,
    unit_wire_key,
)
from repro.netserve import server as server_module
from repro.netserve.protocol import encode_ack, encode_manifest
from repro.program import MethodId
from repro.transfer import TransferPolicy, TransferUnit, UnitKind
from repro.workloads.synthetic import generate_workload


def run(coroutine):
    return asyncio.run(coroutine)


async def handshake(host, port, greeting):
    """A raw client: send one greeting, return the ack's wire bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(greeting))
        await writer.drain()
        return await read_raw_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()


def rows_of(pairs):
    """Manifest rows built the per-session way."""
    return [[*key, unit.size] for key, unit in pairs]


def session_fields(server, artifact, policy, pairs, pull):
    """A session's ack fields over the manifest ``pairs``, built whole
    as the server used to build them for every session."""
    entry = server.program.entry_point
    fields = dict(
        policy=policy.value,
        strategy=artifact.strategy,
        unit_count=len(pairs),
        total_bytes=sum(unit.size for _, unit in pairs),
        bandwidth=server.bandwidth,
        entry=[entry.class_name, entry.method_name],
        sequence=rows_of(pairs),
    )
    if pull:
        fields["pull"] = True
    return fields


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_hello_acks_decode_to_the_per_session_encoding(name):
    """Every policy, push and pull: the ack a server sends decodes to
    the fields of ``hello_ack_frame`` built whole, rows included, and
    its bytes are that frame's encoding."""
    program = generate_workload(name).program
    server = ClassFileServer(program, bandwidth=50_000.0)

    async def scenario():
        host, port = await server.start()
        try:
            for policy in TransferPolicy:
                for pull in (False, True):
                    extra = {"pull": True} if pull else {}
                    raw = await handshake(
                        host, port, hello_frame(policy.value, **extra)
                    )
                    ack, _ = decode_frame(raw)
                    artifact = server._plan_session(policy, "static")
                    pairs = list(artifact.units.items())
                    expected = hello_ack_frame(
                        **session_fields(
                            server, artifact, policy, pairs, pull
                        )
                    )
                    assert pairs and len(pairs) == len(artifact.sequence)
                    assert ack.kind is FrameKind.HELLO_ACK
                    assert ack.field_dict == expected.field_dict
                    assert raw == encode_frame(expected)
        finally:
            await server.aclose()

    run(scenario())


def test_three_hello_sessions_encode_the_manifest_once(monkeypatch):
    """The artifact encodes its rows when it is built; the next two
    sessions of the same configuration reuse them, and a resume, whose
    rows are filtered, encodes its own."""
    calls = []

    def counted(pairs):
        calls.append(1)
        return encode_manifest(pairs)

    monkeypatch.setattr(server_module, "encode_manifest", counted)
    server = ClassFileServer(generate_workload("JHLZip").program)

    async def scenario():
        host, port = await server.start()
        try:
            for _ in range(3):
                fetcher = NonStrictFetcher(host, port)
                try:
                    await fetcher.connect()
                    await fetcher.wait_until_complete()
                finally:
                    await fetcher.aclose()
            assert len(calls) == 1
            await handshake(host, port, resume_frame("non_strict"))
            assert len(calls) == 2
        finally:
            await server.aclose()

    run(scenario())
    assert server.artifact_cache.misses == 1


def test_a_resume_ack_lists_only_the_missing_rows():
    program = generate_workload("Hanoi").program
    server = ClassFileServer(program)

    async def scenario():
        host, port = await server.start()
        try:
            artifact = server._plan_session(
                TransferPolicy.DATA_PARTITIONED, "static"
            )
            pairs = list(artifact.units.items())
            held = {key for key, _ in pairs[::2]}
            raw = await handshake(
                host,
                port,
                resume_frame("data_partitioned", have=held, pull=True),
            )
            ack, _ = decode_frame(raw)
            missing = [(key, unit) for key, unit in pairs if key not in held]
            expected = resume_ack_frame(
                skipped=len(held),
                **session_fields(
                    server,
                    artifact,
                    TransferPolicy.DATA_PARTITIONED,
                    missing,
                    pull=True,
                ),
            )
            assert 0 < len(missing) < len(pairs)
            assert ack.kind is FrameKind.RESUME_ACK
            assert ack.field_dict == expected.field_dict
            assert raw == encode_frame(expected)
        finally:
            await server.aclose()

    run(scenario())


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"policy": "strict", "unit_count": 0, "entry": None},
        {
            "bandwidth": 1.5,
            "entry": ["Ä", "\"quoted\"\n"],
            "pull": True,
            "skipped": 2,
            "zeta": {"b": 1, "a": [None, False]},
        },
    ],
    ids=["no-fields", "scalars", "escapes-and-nesting"],
)
@pytest.mark.parametrize("kind", [FrameKind.HELLO_ACK, FrameKind.RESUME_ACK])
def test_encode_ack_is_the_whole_frame_encoding(kind, fields):
    """Wrapping pre-encoded rows gives the bytes the whole frame
    encodes to, for any field set, key order and escaping."""
    units = [
        TransferUnit(UnitKind.GLOBAL_DATA, "Ä\"b", 3),
        TransferUnit(UnitKind.METHOD, "A", 0, MethodId("A", "m\n")),
    ]
    pairs = [(unit_wire_key(unit), unit) for unit in units]
    manifest = encode_manifest(pairs)
    assert json.loads(manifest) == rows_of(pairs)
    build = (
        hello_ack_frame if kind is FrameKind.HELLO_ACK else resume_ack_frame
    )
    whole = encode_frame(build(sequence=rows_of(pairs), **fields))
    assert encode_ack(kind, manifest, **fields) == whole
    frame, end = decode_frame(whole)
    assert end == len(whole)
    assert frame.field_dict == {"sequence": rows_of(pairs), **fields}
