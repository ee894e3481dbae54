"""The asyncio class-file server.

:class:`ClassFileServer` holds one :class:`~repro.program.Program` and
serves it to many concurrent clients.  Each connection negotiates a
transfer policy (strict / non-strict / data-partitioned) and a reorder
strategy via ``HELLO``; the server resolves the negotiated
configuration to a shared immutable :class:`~.cache.SessionArtifact`
(the :class:`~repro.transfer.TransferLayout`'s send sequence, payload
bytes, and pre-encoded ``UNIT`` frames) and streams the unit sequence
over the socket.

Two behaviours mirror the paper's transfer fabric (§5.1/§5.2):

* **Bandwidth pacing** — an optional token bucket caps the send rate in
  bytes/second, so a T1- or modem-shaped link is reproducible on
  localhost and overlap effects are observable in wall-clock time.
  The bucket is *server-level*: it models one shared physical link, so
  aggregate egress respects ``bandwidth`` no matter how many clients
  are connected (each connection may additionally be capped with
  ``per_connection_bandwidth``).
* **Demand-fetch priority** — a ``DEMAND_FETCH`` from the client (a
  first-use misprediction) promotes the demanded class's still-pending
  units, as a block and in order, to the *front* of the send queue —
  the same front-of-queue rule :meth:`repro.transfer.StreamEngine`
  applies to demand-fetched streams.

Striped sessions negotiate *pull mode* (``HELLO`` with ``pull:
true``): the server answers with the full manifest but pushes nothing;
every unit is requested explicitly through the demand path (a
``DEMAND_FETCH`` whose ``units`` list names wire keys, each an exact
resend resolved by one lookup in the artifact's key index), so a
multi-link client's issue engine — not the server — decides which unit
travels on which connection and when.  One frame names every unit the
client issued to the link in a round; the server promotes them as one
block and wakes its sender once, so they leave in one batched write.
A pull session has no ``EOF``; the client closes the connection once
its scoreboard drains.

Fleet-scale controls:

* **Admission control** — with ``max_connections`` set, a connection
  past the limit receives a clean ``ERROR`` frame with ``code:
  "busy"`` and is closed, instead of silently degrading every other
  session.
* **Send backpressure** — each connection's transport write buffer is
  bounded (:data:`WRITE_BUFFER_HIGH`), so ``drain()`` genuinely pauses
  the sender for a slow client instead of buffering the whole stream
  in memory.
* **Fair batching** — a session goes out in batches of whole frames of
  at most :data:`SEND_BATCH_BYTES`, one ``write`` each, and the sender
  yields to the event loop once per batch.  Below the high-water mark
  ``drain()`` never suspends, so without that yield one session's bulk
  transfer would hold the loop against every other session, the demand
  loop and, on loopback, the client waiting for its entry method.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import ConnectionLostError, ProtocolError, ReproError
from ..faults import ConnectionFaults, FaultInjector, FaultPlan, FrameDirective
from ..program import Program
from ..reorder import (
    FirstUseOrder,
    estimate_first_use,
    order_from_profile,
    restructure,
    textual_first_use,
    weighted_first_use,
)
from ..transfer import TransferPolicy, TransferUnit, transfer_layout
# Not called here: the benchmark harness (reprobench/tracing.py) patches
# these two names on this module; they go when the harness is next changed.
from ..transfer import build_interleaved_file, build_program_plans  # noqa: F401
from ..vm import FirstUseProfile
from .cache import ArtifactCache, SessionArtifact, program_fingerprint
from .payloads import build_program_payloads
from .protocol import (
    FrameKind,
    UnitKey,
    encode_ack,
    encode_frame,
    encode_manifest,
    eof_frame,
    error_frame,
    read_frame,
    unit_frame,
    unit_wire_key,
)
from .stats import ConnectionStats, ServerStats

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["TokenBucket", "ClassFileServer", "REORDER_STRATEGIES"]

#: Reorder strategies a client may request in its ``HELLO``.
REORDER_STRATEGIES = ("static", "textual", "profile", "weighted")

#: Upper bound on one send batch: consecutive whole frames joined into
#: one ``writer.write``, after which the sender yields once (a larger
#: frame goes alone).  The yield is what lets a waiting caller and the
#: other sessions run; the batch is what makes it cheap.  Yielding after
#: every frame cost 45% of reprobench serve-warm's throughput.  Against
#: 16 KB on serve-warm (2-vCPU host, 10 alternating pairs), 8 KB batches
#: cut the first-invoke p50 from 7.0 to 6.3 ms and the p90 from 16.6 to
#: 10.3 ms, but cost 10% of throughput and 11% more CPU per fetch; over
#: seeds 1-4, 32 KB gave no better p50 (6.3-7.4 ms against 6.7-7.6 ms)
#: and a worse p90 (19-23 ms against 15-18 ms).
SEND_BATCH_BYTES = 16 * 1024

#: High-water mark of each connection's transport write buffer: past
#: it, ``drain()`` pauses the sender until a slow client catches up.
WRITE_BUFFER_HIGH = 64 * 1024


class TokenBucket:
    """Paces sends to ``rate`` bytes/second with a bounded burst.

    The bucket may run a deficit: a frame larger than the burst is sent
    whole, and subsequent sends wait until the deficit refills — so the
    long-run rate converges to ``rate`` regardless of frame sizes.

    :meth:`consume` is serialized through an :class:`asyncio.Lock`, so
    one bucket shared by many connections is a fair FIFO model of one
    physical link: concurrent senders queue in arrival order and the
    aggregate rate never exceeds ``rate``.
    """

    def __init__(self, rate: float, burst: float = 256.0) -> None:
        if rate <= 0:
            raise ProtocolError(f"pacing rate must be positive: {rate}")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._tokens = self.burst
        self._last = time.monotonic()
        self._lock = asyncio.Lock()

    def _refill(self) -> None:
        now = time.monotonic()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    async def consume(self, amount: float) -> None:
        """Take ``amount`` tokens, sleeping until the rate allows it."""
        async with self._lock:
            self._refill()
            self._tokens -= amount
            if self._tokens < 0:
                await asyncio.sleep(-self._tokens / self.rate)
                self._refill()


class _Batch:
    """Whole frames queued for one ``writer.write`` on one connection.

    Frames are counted as they join and accounted with one
    :meth:`~.stats.ConnectionStats.record_batch` call per write.
    """

    __slots__ = ("writer", "conn", "chunks", "size", "units")

    def __init__(
        self, writer: asyncio.StreamWriter, conn: ConnectionStats
    ) -> None:
        self.writer = writer
        self.conn = conn
        self.chunks: List[bytes] = []
        self.size = 0
        self.units = 0

    def add(self, data: bytes, unit: bool) -> None:
        self.chunks.append(data)
        self.size += len(data)
        self.units += unit

    def _write(self) -> None:
        self.writer.write(b"".join(self.chunks))
        self.conn.record_batch(len(self.chunks), self.size, self.units)
        self.chunks = []
        self.size = self.units = 0

    async def flush(self) -> None:
        """Write the batch, wait out backpressure, then yield once."""
        if not self.chunks:
            return
        self._write()
        await self.writer.drain()
        # drain() returns at once below the high-water mark.
        await asyncio.sleep(0)

    async def cut(self, prefix: bytes) -> None:
        """Write the batch plus a severed frame's first bytes, then
        close the connection."""
        if prefix:
            self.add(prefix, unit=False)
        if self.chunks:
            self._write()
            try:
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass
        self.writer.close()


class ClassFileServer:
    """Serves a program's transfer-unit streams over TCP.

    Args:
        program: The program to serve (original layout; restructured
            per negotiated configuration, shared via the artifact
            cache).
        host: Bind address.
        port: Bind port (0 = ephemeral; read :attr:`address` after
            :meth:`start`).
        bandwidth: Optional pacing cap in *bytes per second* for the
            server's whole egress link (frame overhead counts against
            it, like real link framing).  Shared by every connection.
        burst: Token-bucket burst size in bytes.
        per_connection_bandwidth: Optional additional per-connection
            cap in bytes/second (each connection gets its own bucket
            on top of the shared link bucket).
        max_connections: Optional admission limit; a connection past
            it receives an ``ERROR`` frame with ``code: "busy"`` and
            is closed.
        cache: Optional shared :class:`~.cache.ArtifactCache`; one
            private cache is created when omitted.  Passing the same
            cache to several servers shares planned artifacts across
            them.
        profile: Optional training profile backing the ``profile``
            reorder strategy; without one the server falls back to
            ``static`` and says so in the ``HELLO_ACK``.
        once: Stop accepting after the first connection finishes
            (handy for demos and CLI pipelines).
        fault_plan: Optional :class:`repro.faults.FaultPlan`; outgoing
            post-negotiation frames pass through its per-connection
            fault state (cuts, corruption, drops, duplicates, stalls,
            jitter), each applied fault emitted as a ``fault_injected``
            event and counted in ``netserve_faults_injected``.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"seconds"``); when given, every wire frame becomes a
            ``frame_sent`` event, every demand-fetch promotion a
            ``schedule_decision``, every plan lookup a ``cache_lookup``
            and every admission rejection a ``connection_rejected``,
            timestamped relative to server start.
    """

    def __init__(
        self,
        program: Program,
        host: str = "127.0.0.1",
        port: int = 0,
        bandwidth: Optional[float] = None,
        burst: float = 256.0,
        per_connection_bandwidth: Optional[float] = None,
        max_connections: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        profile: Optional[FirstUseProfile] = None,
        once: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        self.program = program
        self.host = host
        self.port = port
        self.bandwidth = bandwidth
        self.burst = burst
        self.per_connection_bandwidth = per_connection_bandwidth
        if max_connections is not None and max_connections < 1:
            raise ProtocolError(
                f"max_connections must be >= 1: {max_connections}"
            )
        self.max_connections = max_connections
        self.profile = profile
        self.once = once
        self.fault_plan = fault_plan
        self._injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and not fault_plan.is_noop
            else None
        )
        self.recorder = recorder
        self.stats = ServerStats()
        self.artifact_cache = (
            cache if cache is not None else ArtifactCache()
        )
        self._fingerprint: Optional[str] = None
        #: Resolved strategy -> first-use order.  The program and the
        #: profile are fixed, so each order is computed once per server.
        self._orders: Dict[str, FirstUseOrder] = {}
        self._bucket: Optional[TokenBucket] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._finished = asyncio.Event()
        self._t0 = time.monotonic()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self.bandwidth is not None and self._bucket is None:
            # One bucket for the whole server: the shared link.
            self._bucket = TokenBucket(self.bandwidth, burst=self.burst)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self._t0 = time.monotonic()
        return self.address

    def _now(self) -> float:
        """Seconds since the server started (the recorder clock)."""
        return time.monotonic() - self._t0

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise ProtocolError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_until_done(self) -> None:
        """Serve until closed (or, with ``once``, one connection ends)."""
        if self._server is None:
            await self.start()
        if self.once:
            await self._finished.wait()
        else:
            assert self._server is not None
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting and drop every live connection.

        Waits for each transport to actually close (no leaked
        transports, no ``ResourceWarning`` under load).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        writers = list(self._writers)
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._finished.set()

    # -- per-connection negotiation ---------------------------------------

    def _resolve_strategy(self, strategy: str) -> str:
        """Validate a requested strategy and apply the profile fallback.

        Cheap (no planning work), so it can gate the cache lookup.
        """
        if strategy == "profile" and self.profile is None:
            return "static"  # honest fallback, reported in the ack
        if strategy not in REORDER_STRATEGIES:
            raise ProtocolError(
                f"unknown reorder strategy {strategy!r}; pick from "
                f"{REORDER_STRATEGIES}"
            )
        return strategy

    def _order_for(self, strategy: str) -> FirstUseOrder:
        """First-use order for an already-resolved strategy."""
        order = self._orders.get(strategy)
        if order is None:
            if strategy == "textual":
                order = textual_first_use(self.program)
            elif strategy == "profile":
                assert self.profile is not None  # resolved upstream
                order = order_from_profile(self.program, self.profile)
            elif strategy == "weighted":
                # Degrades to the pure-static layout without a profile.
                order = weighted_first_use(
                    self.program, profile=self.profile
                )
            else:
                order = estimate_first_use(self.program)
            self._orders[strategy] = order
        return order

    def _build_artifact(
        self, policy: TransferPolicy, strategy: str
    ) -> SessionArtifact:
        """Do the full planning work for one configuration (cache miss)."""
        order = self._order_for(strategy)
        # Strict sessions are restructured too: whole files then go in
        # class-first-use order, entry class first, so the comparison
        # with the non-strict policies stays apples-to-apples.
        layout = transfer_layout(
            restructure(self.program, order), policy, order
        )
        sequence = layout.sequence()
        payloads = build_program_payloads(layout.program, layout.plans)
        frames = {
            unit: encode_frame(unit_frame(unit, payloads[unit]))
            for unit in sequence
        }
        units = {unit_wire_key(unit): unit for unit in sequence}
        return SessionArtifact(
            sequence=sequence,
            payloads=payloads,
            frames=frames,
            units=units,
            manifest=encode_manifest(units.items()),
            strategy=strategy,
            total_bytes=sum(unit.size for unit in sequence),
            wire_bytes=sum(len(data) for data in frames.values()),
        )

    def _plan_session(
        self, policy: TransferPolicy, strategy: str
    ) -> SessionArtifact:
        """Resolve a negotiated configuration to a shared artifact."""
        resolved = self._resolve_strategy(strategy)
        if self._fingerprint is None:
            self._fingerprint = program_fingerprint(self.program)
        key = (self._fingerprint, policy.value, resolved)
        before = self.artifact_cache.misses
        artifact = self.artifact_cache.get_or_build(
            key, lambda: self._build_artifact(policy, resolved)
        )
        if self.recorder is not None:
            self.recorder.cache_lookup(
                self._now(),
                hit=self.artifact_cache.misses == before,
                policy=policy.value,
                strategy=resolved,
            )
        return artifact

    # -- connection handling ----------------------------------------------

    def _reject_busy(self) -> bool:
        """True when admission control must turn a connection away."""
        return (
            self.max_connections is not None
            and len(self._writers) >= self.max_connections
        )

    async def _turn_away(self, writer: asyncio.StreamWriter) -> None:
        """Send the clean BUSY error frame and close the transport."""
        peer = str(writer.get_extra_info("peername"))
        self.stats.record_rejected()
        if self.recorder is not None:
            self.recorder.connection_rejected(
                self._now(),
                reason="busy",
                peer=peer,
                limit=self.max_connections,
            )
        try:
            writer.write(
                encode_frame(
                    error_frame(
                        f"server at capacity "
                        f"({self.max_connections} connections)",
                        code="busy",
                    )
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._reject_busy():
            await self._turn_away(writer)
            return
        conn = self.stats.open_connection(
            peer=str(writer.get_extra_info("peername")),
            started_at=time.monotonic(),
        )
        self._writers.append(writer)
        self.stats.set_active(len(self._writers))
        transport = writer.transport
        if transport is not None:
            # Bound the kernel-side buffering so drain() exerts real
            # backpressure against slow clients.
            transport.set_write_buffer_limits(high=WRITE_BUFFER_HIGH)
        faults = (
            self._injector.connection()
            if self._injector is not None
            else None
        )
        demand_task: Optional[asyncio.Task] = None
        demand_error: Optional[BaseException] = None
        try:
            try:
                sequence, artifact, pull = await self._negotiate(
                    reader, writer, conn
                )
            except ConnectionLostError:
                conn.aborted = True
                return
            except ReproError as error:
                writer.write(encode_frame(error_frame(str(error))))
                await writer.drain()
                conn.aborted = True
                return
            pending: Deque[TransferUnit] = deque(
                () if pull else sequence
            )
            wake = asyncio.Event()
            reader_done = asyncio.Event()
            demand_task = asyncio.create_task(
                self._demand_loop(
                    reader,
                    pending,
                    artifact,
                    conn,
                    wake=wake,
                    reader_done=reader_done,
                )
            )
            await self._send_units(
                writer,
                pending,
                artifact,
                conn,
                faults,
                pull=pull,
                wake=wake,
                reader_done=reader_done,
            )
        except (ConnectionLostError, ConnectionError, OSError):
            conn.aborted = True
        except asyncio.CancelledError:
            # Server shutdown mid-send: end the handler quietly (the
            # asyncio.streams callback would log a re-raise as noise).
            conn.aborted = True
        finally:
            if demand_task is not None:
                demand_task.cancel()
                try:
                    await demand_task
                except asyncio.CancelledError:
                    pass
                except Exception as error:  # noqa: BLE001 - surfaced below
                    # A real demand-loop failure (not teardown): count
                    # it and re-raise after cleanup so it is never
                    # silently swallowed.
                    demand_error = error
                    self.stats.record_demand_loop_error()
            conn.finished_at = time.monotonic()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if writer in self._writers:
                self._writers.remove(writer)
            self.stats.set_active(len(self._writers))
            if self.once:
                self._finished.set()
            if demand_error is not None:
                raise demand_error

    async def _negotiate(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: ConnectionStats,
    ) -> Tuple[List[TransferUnit], SessionArtifact, bool]:
        """Negotiate a session; returns (units to send, artifact, pull).

        Accepts a fresh ``HELLO`` or a ``RESUME`` carrying the unit
        wire keys the client already holds; a resume replays the same
        cached session plan minus the held units, so a reconnecting
        client pays only for what it lost — and the server pays one
        cache lookup, not a re-plan.

        A ``pull: true`` field in either greeting puts the session in
        pull mode: the ack still carries the full (resume-filtered)
        manifest, but nothing is queued for push — the client drives
        every unit through ``DEMAND_FETCH`` ``units`` lists.

        The manifest rows ``[kind code, class, method or null, size]``
        come from the artifact's key index, and each held key is one
        lookup there.  A ``HELLO_ACK`` wraps the session's fields around
        the rows the artifact encoded once; a ``RESUME_ACK`` encodes
        its filtered rows itself.
        """
        hello = await read_frame(reader)
        if hello.kind not in (FrameKind.HELLO, FrameKind.RESUME):
            raise ProtocolError(
                f"expected HELLO or RESUME, got {hello.kind.name}"
            )
        fields = hello.field_dict
        try:
            policy = TransferPolicy(fields.get("policy", "non_strict"))
        except ValueError as exc:
            raise ProtocolError(
                f"unknown policy {fields.get('policy')!r}"
            ) from exc
        strategy = fields.get("strategy", "static")
        pull = bool(fields.get("pull"))
        artifact = self._plan_session(policy, strategy)
        pairs: Iterable[Tuple[UnitKey, TransferUnit]] = artifact.units.items()
        sequence = list(artifact.sequence)
        manifest = artifact.manifest
        skipped = 0
        resumed = hello.kind == FrameKind.RESUME
        if resumed:
            have = set(
                self._wire_keys(fields.get("have", []), "RESUME 'have'")
            )
            pairs = [pair for pair in pairs if pair[0] not in have]
            sequence = [unit for _, unit in pairs]
            manifest = encode_manifest(pairs)
            skipped = len(artifact.sequence) - len(sequence)
            conn.record_resume(skipped)
        conn.policy = policy.value
        conn.strategy = artifact.strategy
        entry = self.program.entry_point
        ack_fields = dict(
            policy=policy.value,
            strategy=artifact.strategy,
            unit_count=len(sequence),
            total_bytes=(
                sum(unit.size for unit in sequence)
                if resumed
                else artifact.total_bytes
            ),
            bandwidth=self.bandwidth,
            entry=(
                [entry.class_name, entry.method_name] if entry else None
            ),
        )
        if pull:
            ack_fields["pull"] = True
            conn.record_pull_session()
        if resumed:
            ack = encode_ack(
                FrameKind.RESUME_ACK, manifest, skipped=skipped, **ack_fields
            )
        else:
            ack = encode_ack(FrameKind.HELLO_ACK, manifest, **ack_fields)
        writer.write(ack)
        await writer.drain()
        return sequence, artifact, pull

    @staticmethod
    def _wire_keys(raw: object, what: str) -> List[UnitKey]:
        """Parse a JSON list of unit wire keys, keeping its order.

        The one parser for RESUME's ``have`` and DEMAND_FETCH's
        ``units``: each entry is ``[kind code, class, method or null]``.

        Raises:
            ProtocolError: If ``raw`` is not a list, or an entry is not
                a 3-item list of an integer, a string and a string or
                null.
        """
        if not isinstance(raw, list):
            raise ProtocolError(f"{what} must be a list")
        keys = []
        for entry in raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not isinstance(entry[0], int)
                or isinstance(entry[0], bool)
                or not isinstance(entry[1], str)
                or not (entry[2] is None or isinstance(entry[2], str))
            ):
                raise ProtocolError(f"malformed {what} entry {entry!r}")
            keys.append((entry[0], entry[1], entry[2]))
        return keys

    async def _send_units(
        self,
        writer: asyncio.StreamWriter,
        pending: Deque[TransferUnit],
        artifact: SessionArtifact,
        conn: ConnectionStats,
        faults: Optional[ConnectionFaults] = None,
        pull: bool = False,
        wake: Optional[asyncio.Event] = None,
        reader_done: Optional[asyncio.Event] = None,
    ) -> None:
        """Drain ``pending`` to the wire in batches, pacing through the
        buckets.

        Consecutive frames join one batch of at most
        :data:`SEND_BATCH_BYTES`, written at once; the sender yields
        after each batch, so a demand-fetch promotion takes effect
        within one batch.  Pacing and the fault layer still act on every
        frame, and nothing waits inside a batch: a paced frame, or one
        whose directive delays it, first flushes the batch.

        Push sessions send the negotiated sequence then ``EOF``, which
        rides the last batch.  Pull sessions start with an empty deque
        and sleep on ``wake`` until the demand loop promotes units into
        it; they end — without an ``EOF`` — when ``reader_done`` is set
        (client closed its side) and nothing is left to send.
        """
        conn_bucket = (
            TokenBucket(self.per_connection_bandwidth, burst=self.burst)
            if self.per_connection_bandwidth is not None
            else None
        )
        buckets = tuple(
            bucket
            for bucket in (conn_bucket, self._bucket)
            if bucket is not None
        )
        batch = _Batch(writer, conn)
        eof_due = not pull
        while True:
            unit: Optional[TransferUnit] = None
            if pending:
                unit = pending.popleft()
                data = artifact.frames[unit]
                paced = buckets
            elif eof_due:
                data, paced, eof_due = encode_frame(eof_frame()), (), False
            else:
                await batch.flush()
                if not pull:
                    return  # the EOF went out with the last batch
                if pending:
                    continue  # promoted while the batch drained
                assert wake is not None and reader_done is not None
                if reader_done.is_set():
                    return  # pull sessions end silently: no EOF
                # No await between the check above and this clear, so a
                # promotion cannot slip through unnoticed.
                wake.clear()
                await wake.wait()
                continue
            for bucket in paced:
                await batch.flush()
                await bucket.consume(len(data))
            if batch.size + len(data) > SEND_BATCH_BYTES:
                await batch.flush()
            copies = 1
            if faults is not None:
                directive = faults.next_directive(len(data))
                if directive.delay_seconds > 0:
                    await batch.flush()
                    await asyncio.sleep(directive.delay_seconds)
                self._record_faults(directive, conn)
                if directive.cut_at is not None:
                    await batch.cut(data[: directive.cut_at])
                    conn.aborted = True
                    return
                if directive.drop:
                    continue
                if directive.corrupt_offset is not None:
                    damaged = bytearray(data)
                    damaged[directive.corrupt_offset] ^= 0xFF
                    data = bytes(damaged)
                copies = directive.copies
            for _ in range(copies):
                batch.add(data, unit is not None)
                if self.recorder is not None:
                    self.recorder.frame_sent(
                        self._now(),
                        kind="UNIT" if unit is not None else "EOF",
                        size=len(data),
                        class_name=unit.class_name if unit else None,
                        method=(
                            unit.method.method_name
                            if unit and unit.method
                            else None
                        ),
                        peer=conn.peer,
                    )

    def _record_faults(
        self, directive: FrameDirective, conn: ConnectionStats
    ) -> None:
        for fault in directive.faults:
            conn.record_fault(fault.kind)
            if self.recorder is not None:
                self.recorder.fault_injected(
                    self._now(),
                    fault=fault.kind,
                    detail=fault.detail,
                    frame=directive.frame_index,
                    peer=conn.peer,
                )

    async def _demand_loop(
        self,
        reader: asyncio.StreamReader,
        pending: Deque[TransferUnit],
        artifact: SessionArtifact,
        conn: ConnectionStats,
        wake: Optional[asyncio.Event] = None,
        reader_done: Optional[asyncio.Event] = None,
    ) -> None:
        """Serve DEMAND_FETCH frames by promoting pending units.

        Each frame has one of the protocol's two shapes (see
        :meth:`_demanded`), and each counts as one demand fetch,
        whatever it names.

        Runs concurrently with the sender; the deque rearrangement is
        synchronous (no await between read and write of ``pending``),
        so the single-threaded event loop makes it atomic.  After a
        promotion the sender is nudged through ``wake``; when the
        client's read side closes, ``reader_done`` (then ``wake``) is
        set so a pull sender can finish.
        """
        try:
            await self._demand_requests(
                reader, pending, artifact, conn, wake
            )
        finally:
            if reader_done is not None:
                reader_done.set()
            if wake is not None:
                wake.set()

    def _demanded(
        self,
        fields: Dict[str, Any],
        pending: Deque[TransferUnit],
        artifact: SessionArtifact,
    ) -> Tuple[List[TransferUnit], List[Tuple[str, Optional[str]]]]:
        """One DEMAND_FETCH's promoted units and the (class, method)
        pairs it names.

        ``{units}`` (a pull link's round of requests, a retry or a
        hedge) promotes each named unit, sent or pending, once, in
        list order; each key is one lookup in the artifact's index, and
        a key it lacks names nothing.  ``{class, method}`` (a push
        session's §5.1 correction) promotes the class's pending units.

        Raises:
            ProtocolError: If the fields are neither shape, or one has
                the wrong type.
        """
        if fields.keys() == {"units"}:
            keys = self._wire_keys(fields["units"], "DEMAND_FETCH 'units'")
            units = artifact.units
            # dict.fromkeys: a unit two entries name moves once.
            promoted = list(
                dict.fromkeys(units[key] for key in keys if key in units)
            )
            return promoted, [(cls, name) for _, cls, name in keys]
        demanded, method = fields.get("class"), fields.get("method")
        if (
            fields.keys() != {"class", "method"}
            or not isinstance(demanded, str)
            or not (method is None or isinstance(method, str))
        ):
            raise ProtocolError(f"malformed DEMAND_FETCH {fields!r}")
        promoted = [unit for unit in pending if unit.class_name == demanded]
        return promoted, [(demanded, method)]

    async def _demand_requests(
        self,
        reader: asyncio.StreamReader,
        pending: Deque[TransferUnit],
        artifact: SessionArtifact,
        conn: ConnectionStats,
        wake: Optional[asyncio.Event],
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader)
                if frame.kind != FrameKind.DEMAND_FETCH:
                    continue  # tolerate chatty clients; units keep flowing
                promoted, named = self._demanded(
                    frame.field_dict, pending, artifact
                )
            except ReproError:
                return  # peer gone or talking garbage; sender notices
            conn.record_demand_fetch(len(promoted))
            if self.recorder is not None:
                self.recorder.demand_fetch(
                    self._now(),
                    method=",".join(f"{cls}.{name}" for cls, name in named),
                    peer=conn.peer,
                )
            if not promoted:
                continue  # already sent (or unknown): nothing to jump
            # Only the promoted units move, so the rest of ``pending``
            # keeps its order behind them.
            moved = set(promoted)
            remaining = [unit for unit in pending if unit not in moved]
            pending.clear()
            pending.extend(promoted)
            pending.extend(remaining)
            if wake is not None:
                wake.set()
            if self.recorder is not None:
                self.recorder.schedule_decision(
                    self._now(),
                    action="promote",
                    target=",".join(dict.fromkeys(cls for cls, _ in named)),
                    promoted_units=len(promoted),
                    peer=conn.peer,
                )
