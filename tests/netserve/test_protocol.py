"""Wire protocol: round trips, corruption detection, truncation."""

import asyncio
import itertools
import struct
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConnectionLostError,
    FrameCorruptionError,
    ProtocolError,
    TransferError,
    TruncatedFrameError,
)
from repro.netserve import (
    FRAME_OVERHEAD,
    FrameKind,
    NonStrictFetcher,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    eof_frame,
    error_frame,
    hello_ack_frame,
    hello_frame,
    resume_ack_frame,
    resume_frame,
    salvage_unit_key,
    unit_frame,
    unit_kind_from_code,
    unit_wire_key,
)
from repro.netserve import client as client_module
from repro.netserve.client import READ_CHUNK_BYTES, _Framer
from repro.netserve.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    frame_size,
    unit_kind_code,
)
from repro.program import MethodId
from repro.transfer import TransferUnit, UnitKind


# -- strategies ---------------------------------------------------------

_names = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), max_codepoint=0x2FFF
    ),
    min_size=1,
    max_size=24,
)


@st.composite
def transfer_units_with_payload(draw):
    kind = draw(st.sampled_from(list(UnitKind)))
    class_name = draw(_names)
    payload = draw(st.binary(min_size=0, max_size=300))
    method = (
        MethodId(class_name, draw(_names))
        if kind == UnitKind.METHOD
        else None
    )
    unit = TransferUnit(
        kind=kind,
        class_name=class_name,
        size=len(payload),
        method=method,
    )
    return unit, payload


# -- round trips --------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(transfer_units_with_payload())
def test_every_unit_kind_round_trips(unit_and_payload):
    unit, payload = unit_and_payload
    encoded = encode_frame(unit_frame(unit, payload))
    decoded, consumed = decode_frame(encoded)
    assert consumed == len(encoded)
    assert decoded.kind == FrameKind.UNIT
    assert decoded.unit == unit
    assert decoded.payload == payload
    # The wire size is the offset the decoder returns, at any start.
    prefix = b"\x00" * 3
    assert decode_frame(prefix + encoded, len(prefix))[1] == len(
        prefix + encoded
    )


@settings(max_examples=50, deadline=None)
@given(
    policy=st.sampled_from(
        ["strict", "non_strict", "data_partitioned"]
    ),
    strategy=st.sampled_from(["static", "textual", "profile"]),
)
def test_hello_round_trips(policy, strategy):
    encoded = encode_frame(hello_frame(policy, strategy))
    decoded, _ = decode_frame(encoded)
    assert decoded.kind == FrameKind.HELLO
    assert decoded.field_dict["policy"] == policy
    assert decoded.field_dict["strategy"] == strategy


@settings(max_examples=50, deadline=None)
@given(class_name=_names, method_name=st.none() | _names)
def test_demand_fetch_round_trips(class_name, method_name):
    encoded = encode_frame(
        demand_fetch_frame(class_name, method_name)
    )
    decoded, _ = decode_frame(encoded)
    assert decoded.kind == FrameKind.DEMAND_FETCH
    assert decoded.field_dict["class"] == class_name
    assert decoded.field_dict["method"] == method_name


def test_control_frames_round_trip():
    for frame in (
        hello_ack_frame(unit_count=7, total_bytes=941, entry=None),
        error_frame("boom"),
        eof_frame(),
    ):
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.kind == frame.kind
        assert decoded.field_dict == frame.field_dict


def test_resume_round_trips_with_have_set():
    have = [(1, "A", None), (4, "A", "run"), (4, "B", "main")]
    encoded = encode_frame(
        resume_frame("non_strict", "profile", have=have)
    )
    decoded, _ = decode_frame(encoded)
    assert decoded.kind == FrameKind.RESUME
    assert decoded.field_dict["policy"] == "non_strict"
    assert decoded.field_dict["strategy"] == "profile"
    assert [tuple(k) for k in decoded.field_dict["have"]] == [
        (1, "A", None),
        (4, "A", "run"),
        (4, "B", "main"),
    ]


def test_resume_ack_round_trips():
    frame = resume_ack_frame(
        unit_count=3, total_bytes=120, skipped=5, entry=None
    )
    decoded, _ = decode_frame(encode_frame(frame))
    assert decoded.kind == FrameKind.RESUME_ACK
    assert decoded.field_dict == frame.field_dict


def test_demand_fetch_has_exactly_two_shapes():
    """A class demand carries ``class`` and ``method`` and nothing
    else, a units demand carries ``units`` alone, and a frame that
    would name both, or neither, is never built."""
    plain = demand_fetch_frame("Hot", "run")
    assert plain.field_dict == {"class": "Hot", "method": "run"}
    whole = demand_fetch_frame("Hot")
    assert whole.field_dict == {"class": "Hot", "method": None}
    listed = demand_fetch_frame(units=[(4, "Hot", "run")])
    assert listed.field_dict == {"units": [[4, "Hot", "run"]]}
    with pytest.raises(TransferError):
        demand_fetch_frame("Hot", "run", units=[(4, "Hot", "run")])
    with pytest.raises(TransferError):
        demand_fetch_frame()


def test_units_demand_carries_wire_keys_in_order():
    keys = [(4, "Hot", "run"), (2, "Hot", None), (4, "Cold", "main")]
    decoded, _ = decode_frame(encode_frame(demand_fetch_frame(units=keys)))
    assert decoded.kind is FrameKind.DEMAND_FETCH
    assert decoded.field_dict == {"units": [list(key) for key in keys]}
    assert [tuple(key) for key in decoded.field_dict["units"]] == keys


@settings(max_examples=100, deadline=None)
@given(transfer_units_with_payload())
def test_unit_kind_codes_round_trip(unit_and_payload):
    unit, _ = unit_and_payload
    code = unit_kind_code(unit.kind)
    assert unit_kind_from_code(code) == unit.kind
    key = unit_wire_key(unit)
    assert key[0] == code
    assert key[1] == unit.class_name


def test_unknown_unit_kind_code_raises():
    with pytest.raises(FrameCorruptionError):
        unit_kind_from_code(250)


def test_concatenated_frames_decode_sequentially():
    unit = TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name="A", size=4
    )
    data = (
        encode_frame(hello_frame("non_strict"))
        + encode_frame(unit_frame(unit, b"abcd"))
        + encode_frame(eof_frame())
    )
    kinds = []
    offset = 0
    while offset < len(data):
        frame, offset = decode_frame(data, offset)
        kinds.append(frame.kind)
    assert kinds == [FrameKind.HELLO, FrameKind.UNIT, FrameKind.EOF]


# -- corruption ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    transfer_units_with_payload(),
    st.data(),
)
def test_corrupted_body_raises_typed_error(unit_and_payload, data):
    """Flipping any body byte must raise, never return garbage."""
    unit, payload = unit_and_payload
    encoded = bytearray(encode_frame(unit_frame(unit, payload)))
    header_size = FRAME_OVERHEAD - 4  # header only, CRC excluded
    body_len = len(encoded) - FRAME_OVERHEAD
    if body_len == 0:
        return  # nothing to corrupt
    index = header_size + data.draw(
        st.integers(min_value=0, max_value=body_len - 1)
    )
    encoded[index] ^= 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(encoded))


@settings(max_examples=100, deadline=None)
@given(transfer_units_with_payload(), st.data())
def test_truncated_frame_raises_truncation_error(
    unit_and_payload, data
):
    unit, payload = unit_and_payload
    encoded = encode_frame(unit_frame(unit, payload))
    cut = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    with pytest.raises(TruncatedFrameError):
        decode_frame(encoded[:cut])


@settings(max_examples=150, deadline=None)
@given(transfer_units_with_payload(), st.data())
def test_flipping_any_single_byte_raises_cleanly(
    unit_and_payload, data
):
    """Corruption anywhere — header, names, payload, CRC — must
    surface as a typed ProtocolError, never a struct/index error."""
    unit, payload = unit_and_payload
    encoded = bytearray(encode_frame(unit_frame(unit, payload)))
    index = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    encoded[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    with pytest.raises(ProtocolError):
        decode_frame(bytes(encoded))


def _sealed(kind_code, body, magic=None, version=None, length=None):
    """A frame around ``body`` whose CRC is right for that body."""
    header = struct.pack(
        ">HBBI",
        MAGIC if magic is None else magic,
        PROTOCOL_VERSION if version is None else version,
        kind_code,
        len(body) if length is None else length,
    )
    return header + body + struct.pack(">I", zlib.crc32(body))


def _unit_body(
    kind=4,
    class_name=b"Hot",
    method_name=b"run",
    payload=b"\x07\x07\x07\x07",
    class_len=None,
    method_len=None,
    size=None,
):
    """A UNIT body, any field of which may be made inconsistent."""
    return b"".join(
        (
            struct.pack(
                ">BH",
                kind,
                len(class_name) if class_len is None else class_len,
            ),
            class_name,
            struct.pack(
                ">H", len(method_name) if method_len is None else method_len
            ),
            method_name,
            struct.pack(">I", len(payload) if size is None else size),
            payload,
        )
    )


_UNIT = int(FrameKind.UNIT)
_VALID = _sealed(_UNIT, _unit_body())
_CRC_DAMAGED = _VALID[:-1] + bytes([_VALID[-1] ^ 0xFF])

#: One malformed input per check the decoder makes, and the exact error
#: class it raises.  The UNIT bodies carry a valid CRC, so each reaches
#: the body check it names.
_MALFORMED = {
    "unit-empty-body": (_sealed(_UNIT, b""), FrameCorruptionError),
    "unit-kind-only": (_sealed(_UNIT, b"\x04"), FrameCorruptionError),
    "unit-class-name-overruns": (
        _sealed(_UNIT, _unit_body(class_len=200)),
        FrameCorruptionError,
    ),
    "unit-method-name-overruns": (
        _sealed(_UNIT, _unit_body(method_len=200)),
        FrameCorruptionError,
    ),
    "unit-no-size-field": (
        _sealed(_UNIT, _unit_body()[:-6]),
        FrameCorruptionError,
    ),
    "unit-class-name-not-utf8": (
        _sealed(_UNIT, _unit_body(class_name=b"H\xffot")),
        FrameCorruptionError,
    ),
    "unit-method-name-not-utf8": (
        _sealed(_UNIT, _unit_body(method_name=b"r\xc3(n")),
        FrameCorruptionError,
    ),
    "unit-size-above-payload": (
        _sealed(_UNIT, _unit_body(size=5)),
        FrameCorruptionError,
    ),
    "unit-size-below-payload": (
        _sealed(_UNIT, _unit_body(size=3)),
        FrameCorruptionError,
    ),
    "unit-unknown-kind-code": (
        _sealed(_UNIT, _unit_body(kind=9)),
        FrameCorruptionError,
    ),
    "unit-kind-code-zero": (
        _sealed(_UNIT, _unit_body(kind=0)),
        FrameCorruptionError,
    ),
    "unit-method-without-method-name": (
        _sealed(_UNIT, _unit_body(kind=4, method_name=b"")),
        FrameCorruptionError,
    ),
    "unit-global-with-method-name": (
        _sealed(_UNIT, _unit_body(kind=2)),
        FrameCorruptionError,
    ),
    "unit-class-file-with-method-name": (
        _sealed(_UNIT, _unit_body(kind=1)),
        FrameCorruptionError,
    ),
    "bad-magic": (
        _sealed(_UNIT, _unit_body(), magic=0x4E52),
        FrameCorruptionError,
    ),
    "bad-version": (
        _sealed(_UNIT, _unit_body(), version=1),
        FrameCorruptionError,
    ),
    "oversized-body-length": (
        _sealed(_UNIT, _unit_body(), length=2**31),
        FrameCorruptionError,
    ),
    "empty-buffer": (b"", TruncatedFrameError),
    "truncated-header": (_VALID[:5], TruncatedFrameError),
    "truncated-body": (_VALID[:12], TruncatedFrameError),
    "truncated-crc": (_VALID[:-1], TruncatedFrameError),
    "body-length-past-the-end": (
        _sealed(_UNIT, _unit_body(), length=len(_unit_body()) + 1),
        TruncatedFrameError,
    ),
    "crc-mismatch": (_CRC_DAMAGED, FrameCorruptionError),
    "unknown-frame-kind": (_sealed(99, b"{}"), FrameCorruptionError),
    "frame-kind-zero": (_sealed(0, b"{}"), FrameCorruptionError),
    "eof-with-a-body": (
        _sealed(int(FrameKind.EOF), b"{}"),
        FrameCorruptionError,
    ),
    "control-body-not-json": (
        _sealed(int(FrameKind.HELLO), b"{"),
        FrameCorruptionError,
    ),
    "control-body-not-utf8": (
        _sealed(int(FrameKind.HELLO), b'"\xff"'),
        FrameCorruptionError,
    ),
    "control-body-not-an-object": (
        _sealed(int(FrameKind.ERROR), b"[1, 2]"),
        FrameCorruptionError,
    ),
}


@pytest.mark.parametrize(
    "prefix", [b"", encode_frame(eof_frame())], ids=["at-0", "after-a-frame"]
)
@pytest.mark.parametrize(
    "data, error", list(_MALFORMED.values()), ids=list(_MALFORMED)
)
def test_each_malformed_frame_raises_its_exact_error_class(
    data, error, prefix
):
    """Every check the decoder makes raises exactly one error class:
    ``TruncatedFrameError`` when the buffer ends mid-frame (a stream
    reader waits for more), ``FrameCorruptionError`` for anything
    else — including UNIT bodies whose CRC is right but whose fields
    disagree."""
    with pytest.raises(ProtocolError) as caught:
        decode_frame(prefix + data, len(prefix))
    assert type(caught.value) is error


def test_a_version_1_header_is_refused():
    """Version 2 changed the manifest rows and the demand shapes, so
    both readers refuse a frame of the version it replaced."""
    assert PROTOCOL_VERSION == 2
    old = _sealed(_UNIT, _unit_body(), version=1)
    with pytest.raises(FrameCorruptionError, match="unsupported protocol v1"):
        frame_size(old)
    with pytest.raises(FrameCorruptionError, match="unsupported protocol v1"):
        decode_frame(old)


def test_the_sealed_unit_frame_is_valid():
    """The malformed cases above are one fault away from this frame."""
    frame, end = decode_frame(_VALID)
    assert end == len(_VALID)
    assert frame.unit == TransferUnit(
        UnitKind.METHOD, "Hot", 4, MethodId("Hot", "run")
    )
    assert frame.payload == b"\x07" * 4
    assert _VALID == encode_frame(unit_frame(frame.unit, frame.payload))


# -- the stream boundary ------------------------------------------------

_HEADER_SIZE = FRAME_OVERHEAD - 4  # magic, version, kind, body length


@st.composite
def mutated_streams(draw):
    """A push session's frames, concatenated, with one frame damaged.

    The damage is a flipped header byte, a changed body length or a
    flipped body byte.  Some draws re-seal the damaged frame's CRC, so
    decoding gets past the checksum into the body; some truncate.
    """
    units = draw(
        st.lists(transfer_units_with_payload(), min_size=1, max_size=4)
    )
    frames = (
        [encode_frame(hello_ack_frame(unit_count=len(units)))]
        + [encode_frame(unit_frame(unit, payload)) for unit, payload in units]
        + [encode_frame(eof_frame())]
    )
    starts = list(itertools.accumulate([0] + [len(f) for f in frames]))
    stream = bytearray(b"".join(frames))
    target = draw(st.integers(min_value=0, max_value=len(frames) - 1))
    start = starts[target]
    body_len = len(frames[target]) - FRAME_OVERHEAD
    mutation = draw(st.sampled_from(["header", "length", "body"]))
    if mutation == "header":
        index = start + draw(st.integers(0, _HEADER_SIZE - 1))
        stream[index] ^= draw(st.integers(min_value=1, max_value=255))
    elif mutation == "length":
        declared = draw(
            st.one_of(
                st.integers(0, body_len + 64),
                st.integers(0, 2**32 - 1),
            )
        )
        struct.pack_into(">I", stream, start + 4, declared)
    elif body_len:
        index = start + _HEADER_SIZE + draw(st.integers(0, body_len - 1))
        stream[index] ^= draw(st.integers(min_value=1, max_value=255))
    if draw(st.booleans()):
        (declared,) = struct.unpack_from(">I", stream, start + 4)
        crc_at = start + _HEADER_SIZE + declared
        if crc_at + 4 <= len(stream):
            body = stream[start + _HEADER_SIZE : crc_at]
            struct.pack_into(">I", stream, crc_at, zlib.crc32(body))
    cut = draw(st.one_of(st.just(len(stream)), st.integers(0, len(stream))))
    return bytes(stream[:cut])


class _ChunkedReader:
    """A socket stand-in whose reads return ``stream`` in chunks of the
    given sizes, cycled (never more than asked for), then ``b""``."""

    def __init__(self, stream, sizes):
        self._stream = stream
        self._sizes = itertools.cycle(sizes)
        self._at = 0

    async def read(self, limit):
        size = min(next(self._sizes), limit)
        chunk = self._stream[self._at : self._at + size]
        self._at += len(chunk)
        return chunk


#: Read sizes from single bytes up to one whole client read.
_chunk_sizes = st.lists(
    st.one_of(st.integers(1, 16), st.integers(1, READ_CHUNK_BYTES)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        transfer_units_with_payload(),
        min_size=1,
        max_size=6,
        unique_by=lambda unit_and_payload: unit_wire_key(unit_and_payload[0]),
    ),
    _chunk_sizes,
)
def test_any_chunking_lands_what_frame_by_frame_decoding_does(units, sizes):
    """Property: however the socket splits a push stream into reads,
    the fetcher's receive loop lands the units and payloads that
    decoding the stream frame by frame gives, in the same order, and
    calls ``decode_frame`` once per frame with exactly its bytes."""
    frames = [
        encode_frame(unit_frame(unit, payload)) for unit, payload in units
    ] + [encode_frame(eof_frame())]
    stream = b"".join(frames)
    expected = []
    offset = 0
    while offset < len(stream):
        frame, offset = decode_frame(stream, offset)
        if frame.kind is FrameKind.UNIT:
            expected.append((frame.unit, frame.payload))

    fetcher = NonStrictFetcher("127.0.0.1", 1)
    link = fetcher._links[0]
    link.reader = _ChunkedReader(stream, sizes)
    landed = []
    land = fetcher._land_unit

    def record(link, unit, payload):
        landed.append((unit, payload))
        return land(link, unit, payload)

    fetcher._land_unit = record
    decoded = []

    def counted(data, offset=0):
        decoded.append(data)
        return decode_frame(data, offset)

    with mock.patch.object(client_module, "decode_frame", counted):
        asyncio.run(fetcher._drain(link))
    assert landed == expected
    assert decoded == frames
    assert fetcher._eof.is_set()


@settings(max_examples=300, deadline=None)
@given(mutated_streams(), _chunk_sizes)
def test_mutated_streams_raise_only_typed_errors_in_bounded_time(
    stream, sizes
):
    """Read in drawn chunk sizes through the fetcher's chunked reader
    and framer, as the fetcher does, a damaged stream ends in a
    ``ProtocolError`` or a ``ConnectionLostError`` (or decodes, when a
    re-sealed frame is valid again) — never another exception, and
    never a read that waits past its bound."""

    async def read_all():
        fetcher = NonStrictFetcher("127.0.0.1", 1)
        reader = _ChunkedReader(stream, sizes)
        framer = _Framer()
        while True:
            for raw in framer.feed(await fetcher._read_chunk(reader)):
                frame, end = decode_frame(raw)
                assert end == len(raw)
                if frame.kind is FrameKind.EOF:
                    return

    async def bounded():
        await asyncio.wait_for(read_all(), timeout=5.0)

    try:
        asyncio.run(bounded())
    except (ProtocolError, ConnectionLostError):
        pass


# -- salvage ------------------------------------------------------------


def test_salvage_recovers_unit_identity_from_payload_corruption():
    unit = TransferUnit(
        kind=UnitKind.METHOD,
        class_name="Hot",
        size=16,
        method=MethodId("Hot", "run"),
    )
    encoded = bytearray(encode_frame(unit_frame(unit, b"\x07" * 16)))
    encoded[-3] ^= 0xFF  # damage the payload/CRC, not the names
    with pytest.raises(FrameCorruptionError):
        decode_frame(bytes(encoded))
    assert salvage_unit_key(bytes(encoded)) == unit_wire_key(unit)


@settings(max_examples=100, deadline=None)
@given(transfer_units_with_payload())
def test_salvage_agrees_with_wire_key_on_intact_frames(
    unit_and_payload
):
    unit, payload = unit_and_payload
    encoded = encode_frame(unit_frame(unit, payload))
    assert salvage_unit_key(encoded) == unit_wire_key(unit)


def test_salvage_returns_none_for_garbage():
    assert salvage_unit_key(b"") is None
    assert salvage_unit_key(b"\x00" * 64) is None
    # Non-unit frames have no unit identity to salvage.
    assert salvage_unit_key(encode_frame(eof_frame())) is None


@settings(max_examples=100, deadline=None)
@given(transfer_units_with_payload(), st.data())
def test_salvage_never_raises_on_corruption(unit_and_payload, data):
    unit, payload = unit_and_payload
    encoded = bytearray(encode_frame(unit_frame(unit, payload)))
    index = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    encoded[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    key = salvage_unit_key(bytes(encoded))  # must not throw
    assert key is None or isinstance(key, tuple)


def test_bad_magic_raises():
    encoded = bytearray(encode_frame(eof_frame()))
    encoded[0] ^= 0xFF
    with pytest.raises(FrameCorruptionError):
        decode_frame(bytes(encoded))


def test_bad_crc_raises():
    encoded = bytearray(encode_frame(error_frame("x")))
    encoded[-1] ^= 0xFF
    with pytest.raises(FrameCorruptionError):
        decode_frame(bytes(encoded))


def test_oversized_declared_body_is_corruption_not_allocation():
    header = struct.pack(
        ">HBBI", MAGIC, PROTOCOL_VERSION, int(FrameKind.UNIT), 2**31
    )
    with pytest.raises(FrameCorruptionError):
        decode_frame(header + b"\x00" * 64)


def test_payload_size_mismatch_rejected_at_encode():
    unit = TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name="A", size=10
    )
    with pytest.raises(TransferError):
        unit_frame(unit, b"short")


def test_error_hierarchy_is_typed():
    assert issubclass(FrameCorruptionError, ProtocolError)
    assert issubclass(TruncatedFrameError, ProtocolError)
    assert issubclass(ProtocolError, TransferError)
