"""Length-prefixed binary wire protocol for transfer units.

Every message is a *frame*::

    u16  magic   (0x524E, "RN")
    u8   version (2)
    u8   kind    (FrameKind)
    u32  body length
    ...  body
    u32  CRC32 of the body

Control frames (``HELLO``, ``HELLO_ACK``, ``DEMAND_FETCH``, ``ERROR``,
``RESUME``, ``RESUME_ACK``) carry a UTF-8 JSON object as their body;
``EOF`` has an empty body.  A unit has one name on the wire, its *wire
key* ``[kind code, class, method or null]`` (:func:`unit_wire_key`):

* each manifest row of ``HELLO_ACK`` and ``RESUME_ACK`` is a unit's
  wire key followed by its size (:func:`encode_manifest` encodes the
  rows once, and :func:`encode_ack` wraps a session's fields around
  them);
* ``RESUME``'s ``have`` lists the keys a client holds;
* a ``DEMAND_FETCH`` has one of two shapes (:func:`demand_fetch_frame`):
  ``{class, method}`` asks a push session to promote a class, and
  ``{units}`` lists the keys of exact resends, in order.

A ``UNIT`` frame carries one :class:`~repro.transfer.TransferUnit` plus
its payload bytes::

    u8   unit kind (UnitKind code)
    u16  class-name length, then UTF-8 class name
    u16  method-name length (0 = none), then UTF-8 method name
    u32  declared unit size
    ...  payload (exactly the declared size)

Corruption is detected, never silently tolerated: a bad magic, version,
kind, CRC, or inconsistent body raises
:class:`~repro.errors.FrameCorruptionError`; an incomplete buffer
raises :class:`~repro.errors.TruncatedFrameError` so stream readers
know to wait for more bytes; a vanished peer surfaces as
:class:`~repro.errors.ConnectionLostError`.  :func:`decode_frame`
parses a frame, ``UNIT`` body included, in one pass.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
import zlib
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple

from ..errors import (
    ConnectionLostError,
    FrameCorruptionError,
    TransferError,
    TruncatedFrameError,
)
from ..program import MethodId
from ..transfer import TransferUnit, UnitKind

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "FRAME_OVERHEAD",
    "FRAME_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "FrameKind",
    "Frame",
    "UnitKey",
    "hello_frame",
    "hello_ack_frame",
    "unit_frame",
    "demand_fetch_frame",
    "resume_frame",
    "resume_ack_frame",
    "error_frame",
    "eof_frame",
    "encode_frame",
    "encode_manifest",
    "encode_ack",
    "decode_frame",
    "frame_size",
    "read_frame",
    "read_raw_frame",
    "salvage_unit_key",
    "unit_kind_code",
    "unit_kind_from_code",
    "unit_wire_key",
]

MAGIC = 0x524E  # "RN"
PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">HBBI")
_CRC = struct.Struct(">I")
_UNIT_HEAD = struct.Struct(">BH")  # unit kind code, class-name length
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: Fixed per-frame framing bytes (header + CRC trailer).
FRAME_OVERHEAD = _HEADER.size + _CRC.size
#: Bytes of the frame header: enough for :func:`frame_size`.
FRAME_HEADER_BYTES = _HEADER.size

#: Upper bound on a frame body — no legitimate unit is anywhere near
#: this, so larger declared lengths are treated as corruption rather
#: than honored with a giant allocation.
MAX_BODY_BYTES = 64 * 1024 * 1024


class FrameKind(enum.IntEnum):
    """What a frame carries."""

    HELLO = 1  # client -> server: policy/strategy negotiation
    HELLO_ACK = 2  # server -> client: accepted config + manifest
    UNIT = 3  # server -> client: one transfer unit
    DEMAND_FETCH = 4  # client -> server: mispredict correction
    ERROR = 5  # either direction: fatal, typed message
    EOF = 6  # server -> client: stream complete
    RESUME = 7  # client -> server: resume a session, skipping held units
    RESUME_ACK = 8  # server -> client: accepted resume + remaining manifest


#: Frame kinds by wire code (``FrameKind(code)`` runs two Python frames).
_FRAME_KINDS: Dict[int, FrameKind] = {int(kind): kind for kind in FrameKind}

_UNIT_KIND_CODES: Dict[UnitKind, int] = {
    UnitKind.CLASS_FILE: 1,
    UnitKind.GLOBAL_DATA: 2,
    UnitKind.GLOBAL_FIRST: 3,
    UnitKind.METHOD: 4,
    UnitKind.GLOBAL_UNUSED: 5,
}
_UNIT_KINDS_BY_CODE = {code: kind for kind, code in _UNIT_KIND_CODES.items()}

#: A unit's wire key: (kind code, class name, method name or None).
UnitKey = Tuple[int, str, Optional[str]]


def unit_kind_from_code(code: int) -> UnitKind:
    """Wire code back to a :class:`~repro.transfer.UnitKind`."""
    kind = _UNIT_KINDS_BY_CODE.get(code)
    if kind is None:
        raise FrameCorruptionError(f"unknown unit kind code {code}")
    return kind


def unit_kind_code(kind: UnitKind) -> int:
    """A :class:`~repro.transfer.UnitKind`'s wire code."""
    return _UNIT_KIND_CODES[kind]


def unit_wire_key(unit: TransferUnit) -> UnitKey:
    """A unit's stable wire identity: (kind code, class, method).

    The only name a unit has on the wire: manifest rows, RESUME's
    ``have``, DEMAND_FETCH's ``units`` and the duplicate filter all use
    it, so the same unit is recognized across reconnects and re-sends.
    """
    return (
        _UNIT_KIND_CODES[unit.kind],
        unit.class_name,
        unit.method.method_name if unit.method is not None else None,
    )


class Frame(NamedTuple):
    """One decoded frame: a named ``(kind, fields, unit, payload)``
    tuple.  Its wire size is the distance between the offset
    :func:`decode_frame` starts at and the one it returns.

    Attributes:
        kind: The frame kind.
        fields: JSON fields, for control frames.
        unit: The transfer unit, for ``UNIT`` frames.
        payload: The unit's payload bytes, for ``UNIT`` frames.
    """

    kind: FrameKind
    fields: Tuple[Tuple[str, Any], ...] = ()
    unit: Optional[TransferUnit] = None
    payload: bytes = b""

    @property
    def field_dict(self) -> Dict[str, Any]:
        return dict(self.fields)


def _json_frame(kind: FrameKind, fields: Dict[str, Any]) -> Frame:
    return Frame(kind=kind, fields=tuple(sorted(fields.items())))


def hello_frame(
    policy: str, strategy: str = "static", **extra: Any
) -> Frame:
    """Client hello: requested transfer policy and reorder strategy."""
    return _json_frame(
        FrameKind.HELLO,
        {"policy": policy, "strategy": strategy, **extra},
    )


def hello_ack_frame(**fields: Any) -> Frame:
    """Server acknowledgement: accepted config plus stream manifest."""
    return _json_frame(FrameKind.HELLO_ACK, fields)


def unit_frame(unit: TransferUnit, payload: bytes) -> Frame:
    """A transfer unit and its payload (padded to the unit's size)."""
    if len(payload) != unit.size:
        raise TransferError(
            f"payload is {len(payload)} bytes but unit declares "
            f"{unit.size}: {unit}"
        )
    return Frame(kind=FrameKind.UNIT, unit=unit, payload=payload)


def demand_fetch_frame(
    class_name: Optional[str] = None,
    method_name: Optional[str] = None,
    *,
    units: Optional[Iterable[UnitKey]] = None,
) -> Frame:
    """A client request in one of the two ``DEMAND_FETCH`` shapes.

    ``demand_fetch_frame(class_name, method_name)`` sends ``{class,
    method}``: a push session's mispredict correction, which moves the
    class's still-pending units, as a block, to the front of the
    server's queue (§5.1).

    ``demand_fetch_frame(units=keys)`` sends ``{units}``: a JSON list of
    wire keys (:func:`unit_wire_key`), each an exact resend of its
    unit.  The server moves every named unit, sent or pending, in list
    order, to the front of its queue as one block — a pull link's whole
    round of requests, a damaged frame's retry or a hedge in one frame.

    Raises:
        TransferError: If both shapes, or neither, are given.
    """
    if (units is None) == (class_name is None):
        raise TransferError(
            "a DEMAND_FETCH names either a class or a list of units"
        )
    if units is None:
        fields: Dict[str, Any] = {"class": class_name, "method": method_name}
    else:
        fields = {
            "units": [[int(code), cls, method] for code, cls, method in units]
        }
    return _json_frame(FrameKind.DEMAND_FETCH, fields)


def resume_frame(
    policy: str,
    strategy: str = "static",
    have: Iterable[UnitKey] = (),
    **extra: Any,
) -> Frame:
    """Client reconnect: negotiate like HELLO, but skip held units.

    ``have`` is an iterable of unit wire keys (:func:`unit_wire_key`)
    the client already holds intact; the server filters them out of the
    resumed stream.
    """
    have_list = sorted(
        ([int(code), cls, method] for code, cls, method in have),
        key=lambda key: (key[0], key[1], key[2] or ""),
    )
    return _json_frame(
        FrameKind.RESUME,
        {
            "policy": policy,
            "strategy": strategy,
            "have": have_list,
            **extra,
        },
    )


def resume_ack_frame(**fields: Any) -> Frame:
    """Server acceptance of a resume: config plus *remaining* manifest."""
    return _json_frame(FrameKind.RESUME_ACK, fields)


def error_frame(message: str, code: Optional[str] = None) -> Frame:
    """A fatal typed error.

    ``code`` is an optional machine-readable discriminator (e.g.
    ``"busy"`` for admission-control rejections) so clients can react
    without parsing the human-readable message.
    """
    fields: Dict[str, Any] = {"message": message}
    if code is not None:
        fields["code"] = code
    return _json_frame(FrameKind.ERROR, fields)


def eof_frame() -> Frame:
    return Frame(kind=FrameKind.EOF)


# --- encoding ----------------------------------------------------------


def _encode_body(frame: Frame) -> bytes:
    if frame.kind == FrameKind.UNIT:
        unit = frame.unit
        if unit is None:
            raise TransferError("UNIT frame without a unit")
        class_bytes = unit.class_name.encode("utf-8")
        method_bytes = (
            unit.method.method_name.encode("utf-8")
            if unit.method is not None
            else b""
        )
        return b"".join(
            (
                _UNIT_HEAD.pack(_UNIT_KIND_CODES[unit.kind], len(class_bytes)),
                class_bytes,
                _U16.pack(len(method_bytes)),
                method_bytes,
                _U32.pack(unit.size),
                frame.payload,
            )
        )
    if frame.kind == FrameKind.EOF:
        return b""
    return json.dumps(frame.field_dict, sort_keys=True).encode("utf-8")


def _seal(kind: FrameKind, body: bytes) -> bytes:
    """A frame's wire bytes: header, ``body`` and CRC trailer."""
    return b"".join(
        (
            _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(kind), len(body)),
            body,
            _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF),
        )
    )


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to wire bytes."""
    return _seal(frame.kind, _encode_body(frame))


def encode_manifest(
    keyed_units: Iterable[Tuple[UnitKey, TransferUnit]]
) -> bytes:
    """The JSON text of an ack's ``sequence``: one row ``[kind code,
    class, method or null, size]`` per ``(wire key, unit)`` pair, in
    order.  A served configuration encodes its rows once, when its
    :class:`~.cache.SessionArtifact` is built."""
    rows = [[*key, unit.size] for key, unit in keyed_units]
    return json.dumps(rows).encode("utf-8")


def encode_ack(kind: FrameKind, manifest: bytes, **fields: Any) -> bytes:
    """Wire bytes of a ``HELLO_ACK`` or ``RESUME_ACK`` whose
    ``sequence`` is ``manifest``, rows already encoded by
    :func:`encode_manifest`.

    Only ``fields`` are encoded here.  The bytes equal
    ``encode_frame(hello_ack_frame(sequence=rows, **fields))`` (or
    :func:`resume_ack_frame`'s) for the rows ``manifest`` holds: the
    members are joined in key order with :func:`json.dumps`'s
    separators.
    """
    members = [
        (key, json.dumps(value, sort_keys=True).encode("utf-8"))
        for key, value in fields.items()
    ]
    members.append(("sequence", manifest))
    members.sort(key=lambda member: member[0])
    body = b", ".join(
        json.dumps(key).encode("utf-8") + b": " + value
        for key, value in members
    )
    return _seal(kind, b"{" + body + b"}")


# --- decoding ----------------------------------------------------------


def decode_frame(data: bytes, offset: int = 0) -> Tuple[Frame, int]:
    """Decode one frame from ``data`` starting at ``offset``.

    One pass: the header is unpacked once and a ``UNIT`` body parsed
    here, with no helper call per frame.  The checks run in a fixed
    order — framing (:func:`frame_size`'s errors), length, CRC, kind,
    body — so each malformed input has one error class.

    Returns:
        The frame and the offset just past it.

    Raises:
        TruncatedFrameError: If the buffer ends mid-frame.
        FrameCorruptionError: If the frame is malformed.
    """
    if len(data) - offset < _HEADER.size:
        raise TruncatedFrameError(
            f"need {_HEADER.size} header bytes, have {len(data) - offset}"
        )
    magic, version, kind_code, body_len = _HEADER.unpack_from(data, offset)
    if (
        magic != MAGIC
        or version != PROTOCOL_VERSION
        or body_len > MAX_BODY_BYTES
    ):
        frame_size(data, offset)  # raises the framing error
    start = offset + _HEADER.size
    crc_at = start + body_len
    end = crc_at + _CRC.size
    if len(data) < end:
        raise TruncatedFrameError(
            f"need {end - offset} bytes, have {len(data) - offset}"
        )
    body = data[start:crc_at]
    (expected_crc,) = _CRC.unpack_from(data, crc_at)
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise FrameCorruptionError(
            f"CRC mismatch: computed 0x{actual_crc:08x}, frame says "
            f"0x{expected_crc:08x}"
        )
    kind = _FRAME_KINDS.get(kind_code)
    if kind is FrameKind.UNIT:
        try:
            unit_code, class_len = _UNIT_HEAD.unpack_from(body)
            at = _UNIT_HEAD.size + class_len
            if at > body_len:
                raise FrameCorruptionError("class name overruns body")
            class_name = body[_UNIT_HEAD.size : at].decode("utf-8")
            (method_len,) = _U16.unpack_from(body, at)
            at += _U16.size + method_len
            if at > body_len:
                raise FrameCorruptionError("method name overruns body")
            method_name = (
                body[at - method_len : at].decode("utf-8")
                if method_len
                else None
            )
            (declared_size,) = _U32.unpack_from(body, at)
        except (struct.error, UnicodeDecodeError) as exc:
            raise FrameCorruptionError(
                f"malformed UNIT body: {exc}"
            ) from exc
        payload = body[at + _U32.size :]
        if len(payload) != declared_size:
            raise FrameCorruptionError(
                f"UNIT payload is {len(payload)} bytes, declared "
                f"{declared_size}"
            )
        unit_kind = _UNIT_KINDS_BY_CODE.get(unit_code)
        if unit_kind is None:
            raise FrameCorruptionError(f"unknown unit kind code {unit_code}")
        try:
            unit = TransferUnit(
                unit_kind,
                class_name,
                declared_size,
                None
                if method_name is None
                else MethodId(class_name, method_name),
            )
        except TransferError as exc:
            raise FrameCorruptionError(f"inconsistent unit: {exc}") from exc
        return Frame(kind, (), unit, payload), end
    if kind is None:
        raise FrameCorruptionError(f"unknown frame kind {kind_code}")
    if kind is FrameKind.EOF:
        if body:
            raise FrameCorruptionError("EOF frame with a body")
        return Frame(kind), end
    try:
        fields = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FrameCorruptionError(
            f"control frame body is not JSON: {exc}"
        ) from exc
    if not isinstance(fields, dict):
        raise FrameCorruptionError("control frame body is not an object")
    return Frame(kind, tuple(sorted(fields.items()))), end


def frame_size(data: bytes, offset: int = 0) -> int:
    """Whole wire size of the frame whose header starts at ``offset``.

    Checks only the framing — magic, version and a sane body length —
    which is all a stream reader needs to find the next frame boundary.
    CRC and body validation are :func:`decode_frame`'s.  ``data`` must
    hold the :data:`FRAME_HEADER_BYTES` header bytes.

    Raises:
        FrameCorruptionError: If the framing is unreadable — there is
            no way to find the next frame boundary after this.
    """
    magic, version, _kind, body_len = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise FrameCorruptionError(f"bad magic 0x{magic:04x}")
    if version != PROTOCOL_VERSION:
        raise FrameCorruptionError(f"unsupported protocol v{version}")
    if body_len > MAX_BODY_BYTES:
        raise FrameCorruptionError(
            f"declared body of {body_len} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    return _HEADER.size + body_len + _CRC.size


async def read_raw_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame's complete wire bytes, deferring validation.

    Only the framing itself is checked here (:func:`frame_size`) —
    enough to know how many bytes to pull off the stream.  CRC and body
    validation happen in :func:`decode_frame`, so a caller that wants
    to *salvage* a damaged frame (see :func:`salvage_unit_key`) still
    gets the bytes.

    Raises:
        ConnectionLostError: If the peer closed or reset mid-frame (or
            before a frame started).
        FrameCorruptionError: If the framing is unreadable — there is
            no way to find the next frame boundary after this.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        rest = await reader.readexactly(frame_size(header) - _HEADER.size)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionLostError(
            "connection closed mid-frame"
        ) from exc
    except (ConnectionError, OSError) as exc:
        raise ConnectionLostError(f"connection lost: {exc}") from exc
    return header + rest


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read exactly one validated frame from an asyncio stream.

    Raises:
        ConnectionLostError: If the peer closed or reset mid-frame (or
            before a frame started).
        FrameCorruptionError: If the frame fails validation.
    """
    frame, _ = decode_frame(await read_raw_frame(reader))
    return frame


def salvage_unit_key(data: bytes) -> Optional[UnitKey]:
    """Best-effort unit wire key from a possibly corrupt UNIT frame.

    A single flipped payload byte fails the CRC but leaves the header
    and the short name prefix intact, and that prefix names exactly
    which unit was damaged — enough for the client to re-request that
    one unit instead of tearing the connection down.  Returns ``None``
    whenever the needed bytes are themselves unreadable.
    """
    try:
        magic, _version, kind_code, body_len = _HEADER.unpack_from(data, 0)
        if magic != MAGIC or kind_code != int(FrameKind.UNIT):
            return None
        body = data[_HEADER.size : _HEADER.size + body_len]
        unit_kind_code, class_len = _UNIT_HEAD.unpack_from(body)
        offset = _UNIT_HEAD.size
        if offset + class_len > len(body):
            return None
        class_name = body[offset : offset + class_len].decode("utf-8")
        offset += class_len
        (method_len,) = _U16.unpack_from(body, offset)
        offset += _U16.size
        if offset + method_len > len(body):
            return None
        method_name = (
            body[offset : offset + method_len].decode("utf-8")
            if method_len
            else None
        )
    except (struct.error, UnicodeDecodeError):
        return None
    if unit_kind_code not in _UNIT_KINDS_BY_CODE:
        return None
    return (unit_kind_code, class_name, method_name)
