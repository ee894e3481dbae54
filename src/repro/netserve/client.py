"""The fetch client: one runtime for push, pull, and every recovery.

:class:`NonStrictFetcher` connects to
:class:`~repro.netserve.server.ClassFileServer` endpoints, negotiates a
policy, and receives transfer units into per-class arrival buffers.  It
answers the same "is this method available / wait until it is"
questions the simulator's runtime asks.

The endpoint count picks the link mode; there is no option for it:

* **One endpoint — push.**  The server streams the whole plan and ends
  the session with ``EOF``.  A first-use misprediction sends a
  ``DEMAND_FETCH`` so the server moves the missing class to the front
  of its queue (§5.1).
* **Two or more — pull.**  Every link negotiates a pull session, and a
  client-side :class:`repro.sched.Scoreboard` — built by
  :func:`repro.sched.unit_grain_scoreboard`, as the simulator's
  unit-grain policies build theirs — issues each unit to the
  healthiest, least-loaded link.  Issue happens in rounds,
  once per socket read that landed units rather than once per unit, and
  one ``DEMAND_FETCH`` per link names every unit the round gave that
  link.  Units land in any order, but one only becomes *observable* at
  its scoreboard retire time, after its class's leading global unit.  A
  misprediction escalates the unit to the front of every queue and, if
  it is still missing after ``hedge_delay``, races a duplicate request
  on the next-best link; the losing copy is dropped by wire key.

Every link reads its socket in chunks of up to :data:`READ_CHUNK_BYTES`,
decodes each whole frame a read completes before it awaits again, and
records the read's frames, bytes and units in one :class:`FetchStats`
call.

Resilience is the same on every link.  A lost connection or any
protocol violation (bad framing, a short ``EOF``, a rejected handshake)
is a *link failure*: the link backs off with its own seeded jitter and
reconnects with ``RESUME``, listing every unit the session holds, while
its ``max_reconnects`` budget lasts.  A frame that fails its CRC but
still names its unit is re-requested alone instead.  A pull link also
carries a circuit breaker that requeues its in-flight units onto the
survivors, and a watchdog recycles a link that holds requests but stays
silent past ``stall_timeout``.  Once every link has spent its budget the
fetch falls back to one strict whole-file fetch, trying each endpoint in
turn.  Only a passed ``deadline`` or a failed fallback ends the fetch,
and then every waiter gets the typed error — never a hang.

Every recovery emits a :mod:`repro.observe` event (``reconnect``,
``unit_retry``, ``link_outage``, ``link_restored``, ``hedge_fired``,
``hedge_won``, ``degraded_to_strict``) and bumps the matching
``netserve_*_total`` counter, so chaos runs are as observable as clean
ones.
"""

from __future__ import annotations

import asyncio
import enum
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import (
    ConnectionLostError,
    FrameCorruptionError,
    ProtocolError,
    ResilienceExhaustedError,
    ServerBusyError,
    StreamDecodeError,
    TransferError,
)
from ..faults.rng import derive_rng
from ..program import MethodId
from ..sched import ItemState, Scoreboard, unit_grain_scoreboard
from ..transfer import TransferUnit, UnitKind
from .protocol import (
    FRAME_HEADER_BYTES,
    Frame,
    FrameKind,
    UnitKey,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    frame_size,
    hello_frame,
    read_frame,
    resume_frame,
    salvage_unit_key,
    unit_kind_code,
    unit_kind_from_code,
    unit_wire_key,
)
from .stats import FetchStats

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = [
    "BACKOFF_CAP_SECONDS",
    "LinkState",
    "NonStrictFetcher",
    "READ_CHUNK_BYTES",
]

#: A server endpoint: (host, port).
Endpoint = Tuple[str, int]

#: Wire codes of every unit kind, and of the two a method waits on.
_KIND_CODES = frozenset(unit_kind_code(kind) for kind in UnitKind)
_METHOD = unit_kind_code(UnitKind.METHOD)
_CLASS_FILE = unit_kind_code(UnitKind.CLASS_FILE)

#: Most bytes one socket read takes: one server send batch
#: (``server.SEND_BATCH_BYTES``).  Every whole frame a read completes
#: is decoded before the link reads again.  64 KB reads measured no
#: faster on reprobench serve-striped or serve-warm (2-vCPU host, 6 and
#: 4 alternating pairs).
READ_CHUNK_BYTES = 16 * 1024

#: Longest reconnect backoff in seconds, before jitter: the delay
#: doubles from ``backoff_base`` with each attempt up to this cap.
BACKOFF_CAP_SECONDS = 2.0


def _read_rows(rows: List[Any]) -> Iterator[Tuple[UnitKey, int]]:
    """Each manifest row ``[kind code, class, method or null, size]``'s
    wire key and size, in order.

    The one reader of manifest rows, from either kind of ack: a pull
    stripe's scoreboard reads the session's rows at once, the plan
    reads them on first need, and a later ack's rows are read as it
    lands.  Rows come off the wire, so a malformed one must fail as a
    typed link error, never as a crash that would leave the fetch's
    waiters hanging.

    Raises:
        ProtocolError: At the first row that is not a known kind code, a
            class name, a method name for a ``METHOD`` unit (null for
            any other) and a non-negative integer size.
    """
    for row in rows:
        try:
            code, class_name, method, size = row
            sound = (
                type(code) is int
                and code in _KIND_CODES
                and type(class_name) is str
                and (type(method) is str if code == _METHOD else method is None)
                and type(size) is int
                and size >= 0
            )
        except (TypeError, ValueError):  # not four items
            sound = False
        if not sound:
            raise ProtocolError(f"malformed manifest row {row!r}")
        yield (code, class_name, method), size


class _Framer:
    """Cuts one connection's byte stream into whole frames.

    Only the framing is checked here (:func:`~.protocol.frame_size`);
    each frame's bytes go to :func:`~.protocol.decode_frame` whole, so
    a damaged unit can still be salvaged.  A frame longer than what has
    arrived is kept as the list of its reads and joined once, when its
    last byte lands, so a growing frame is neither copied nor scanned
    again on every read.
    """

    __slots__ = ("_tail", "_parts", "_held", "_want")

    def __init__(self) -> None:
        #: Bytes after the last whole frame, too few for a header.
        self._tail = b""
        #: An incomplete frame of known size: its reads so far, their
        #: length, and the frame's whole size (0 = none).
        self._parts: List[bytes] = []
        self._held = 0
        self._want = 0

    def feed(self, chunk: bytes) -> Iterator[bytes]:
        """Yield every whole frame ``chunk`` completes, in stream order.

        Raises:
            FrameCorruptionError: At a frame whose framing is unreadable,
                once the whole frames before it were yielded.
        """
        if self._want:
            self._parts.append(chunk)
            self._held += len(chunk)
            if self._held < self._want:
                return
            data = b"".join(self._parts)
            self._parts = []
            self._held = self._want = 0
        elif self._tail:
            data = self._tail + chunk
        else:
            data = chunk
        start, size = 0, len(data)
        while size - start >= FRAME_HEADER_BYTES:
            end = start + frame_size(data, start)
            if end > size:
                self._parts = [data[start:]]
                self._held, self._want = size - start, end - start
                self._tail = b""
                return
            yield data[start:end]
            start = end
        self._tail = data[start:]


class LinkState(enum.IntEnum):
    """Circuit-breaker state of one link.

    The integer value is what ``netserve_link_state`` publishes, so
    dashboards can graph transitions.
    """

    HEALTHY = 0
    DEGRADED = 1
    HALF_OPEN = 2
    OPEN = 3


class _Link:
    """One connection's mutable state (owned by the fetcher)."""

    def __init__(self, index: int, host: str, port: int, pull: bool) -> None:
        self.index = index
        self.host = host
        self.port = port
        #: Pull links are driven by the scoreboard and never see EOF.
        self.pull = pull
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.state = LinkState.OPEN  # not yet connected
        #: In-flight requests on this socket: wire key ->
        #: (scoreboard label, monotonic issue time).
        self.in_flight: Dict[UnitKey, Tuple[str, float]] = {}
        self.consecutive_failures = 0
        self.reconnects_used = 0
        self.probes = 0
        self.broken = False  # transport closed, failure not yet handled
        self.stalled = False  # watchdog verdict for the next failure
        self.dead = False  # reconnect budget exhausted
        self.task: Optional["asyncio.Task[None]"] = None

    @property
    def usable(self) -> bool:
        """True when the arbiter may issue on this link."""
        return (
            self.writer is not None
            and not self.broken
            and not self.dead
            and self.state is not LinkState.OPEN
        )


class NonStrictFetcher:
    """Receives a unit stream and answers method-availability queries.

    Args:
        host, port: The first endpoint.
        links: Further ``(host, port)`` endpoints.  Any at all make the
            fetch a pull stripe over every endpoint; repeating one
            stripes over several sockets to a single server.
        policy: ``"strict"``, ``"non_strict"``, or
            ``"data_partitioned"``.
        strategy: Reorder strategy to request (``"static"``,
            ``"textual"``, ``"profile"``, ``"weighted"``).
        demand_timeout: Seconds to wait for a demanded unit before
            demanding it again.
        demand_retries: Demand attempts before giving up with a
            :class:`~repro.errors.TransferError`.
        connect_timeout: Seconds allowed for each handshake — TCP
            connect, greeting, and the server's ack — or ``None``.  A
            server that accepts but never answers surfaces as a typed
            :class:`~repro.errors.ConnectionLostError`.
        max_reconnects: Reconnect budget per link, and how often
            :meth:`connect` retries when every link is turned away with
            BUSY.  ``0`` takes the strict fallback on the first failure.
        backoff_base: First reconnect delay in seconds, doubled per
            attempt up to :data:`BACKOFF_CAP_SECONDS`.
        backoff_jitter: Fraction of each delay added as seeded jitter
            (``0.0`` = fully deterministic delays).
        deadline: Wall-clock budget in seconds for the whole fetch,
            recoveries included.
        seed, rng_scope: Derive one backoff RNG per link
            (:func:`repro.faults.derive_rng`), so a fixed seed replays
            the same schedule.  Concurrent fetchers — loadgen workers,
            say — must pass distinct scopes so their jitter never falls
            into lockstep.
        window: In-flight requests per healthy pull link (a half-open
            probe gets one).
        hedge_delay: Seconds a demanded pull unit may stay missing
            before a duplicate request races it on another link.
        stall_timeout: Seconds a pull link may hold requests without a
            single frame before the watchdog recycles it.
        failure_threshold: Consecutive failures that open a link's
            circuit.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"seconds"``); events are stamped in seconds since the
            session started.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: str = "non_strict",
        strategy: str = "static",
        demand_timeout: float = 5.0,
        demand_retries: int = 3,
        connect_timeout: Optional[float] = 10.0,
        max_reconnects: int = 4,
        backoff_base: float = 0.05,
        backoff_jitter: float = 0.25,
        deadline: Optional[float] = None,
        seed: int = 0,
        rng_scope: str = "",
        links: Sequence[Endpoint] = (),
        window: int = 4,
        hedge_delay: float = 0.25,
        stall_timeout: float = 5.0,
        failure_threshold: int = 3,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        if max_reconnects < 0:
            raise TransferError(
                f"max_reconnects must be >= 0: {max_reconnects}"
            )
        if window < 1:
            raise TransferError(f"window must be >= 1: {window}")
        if failure_threshold < 1:
            raise TransferError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        self.host = host
        self.port = port
        self.endpoints: Tuple[Endpoint, ...] = ((host, port),) + tuple(
            (str(h), int(p)) for h, p in links
        )
        self.policy = policy
        self.strategy = strategy
        self.demand_timeout = demand_timeout
        self.demand_retries = demand_retries
        self.connect_timeout = connect_timeout
        self.max_reconnects = max_reconnects
        self.backoff_base = backoff_base
        self.backoff_jitter = backoff_jitter
        self.deadline = deadline
        self.seed = seed
        self.rng_scope = rng_scope
        self.window = window
        self.hedge_delay = hedge_delay
        self.stall_timeout = stall_timeout
        self.failure_threshold = failure_threshold
        self.recorder = recorder
        self.stats = FetchStats(policy=policy, strategy=strategy)
        self.manifest: Dict[str, Any] = {}
        #: Units in arrival order, with arrival seconds since connect.
        self.unit_log: List[Tuple[TransferUnit, float]] = []
        #: Per-class arrival buffers: (wire key, payload) in arrival
        #: order.
        self.buffers: Dict[str, List[Tuple[UnitKey, bytes]]] = {}
        self._method_arrivals: Dict[MethodId, float] = {}
        self._classes_complete: Set[str] = set()
        #: Wire keys of units held intact (resume/duplicate filtering).
        self._received_keys: Set[UnitKey] = set()
        self._demanded: Set[MethodId] = set()
        self._events: Dict[MethodId, asyncio.Event] = {}
        self._eof = asyncio.Event()
        self._failure: Optional[BaseException] = None
        self._t0 = 0.0
        self._deadline_at: Optional[float] = None
        self._pull = len(self.endpoints) > 1
        self._links = [
            _Link(index, h, p, self._pull)
            for index, (h, p) in enumerate(self.endpoints)
        ]
        self._rngs = [
            derive_rng(seed, "backoff", rng_scope, "link", link.index)
            for link in self._links
        ]
        #: The strict fallback's connection, once the ladder reaches it.
        self._fallback: Optional[_Link] = None
        #: Units the session's first manifest announced.
        self._planned = 0
        #: Wire key -> plan position; folded from the first ack's rows
        #: and the later acks' keys only when something needs it (see
        #: :meth:`_plan_order`).
        self._plan: Dict[UnitKey, int] = {}
        self._first_rows: Optional[List[Any]] = None
        self._later_keys: List[List[UnitKey]] = []
        self._board: Optional[Scoreboard] = None
        self._unit_by_key: Dict[UnitKey, TransferUnit] = {}
        #: Hedge races in flight: wire key -> (primary link, hedge link).
        self._hedges: Dict[UnitKey, Tuple[int, int]] = {}
        self._dispatch_lock = asyncio.Lock()
        self._watchdog: Optional["asyncio.Task[None]"] = None

    # -- lifecycle --------------------------------------------------------

    async def connect(self) -> Dict[str, Any]:
        """Open every link and negotiate; returns the manifest.

        Links dial concurrently, once each.  At least one link must
        negotiate; the rest join late through their reconnect path.
        Only when the server turns every link away with BUSY —
        admission control at capacity, a passing condition — does the
        whole dial back off and retry, up to ``max_reconnects`` times.
        A pull stripe then builds its scoreboard, starts the stall
        watchdog and issues the plan's head.
        """
        if self.deadline is not None:
            self._deadline_at = time.monotonic() + self.deadline
        attempt = 0
        while True:
            errors = await asyncio.gather(
                *(self._open(link) for link in self._links)
            )
            failures = [error for error in errors if error is not None]
            if len(failures) < len(errors):
                break
            busy = all(isinstance(e, ServerBusyError) for e in failures)
            if not busy or attempt >= self.max_reconnects:
                raise failures[0]
            attempt += 1
            self.stats.record_busy_retry()
            await self._back_off(self._links[0], attempt)
        if self._pull:
            self._watchdog = asyncio.create_task(self._watchdog_loop())
        for link, error in zip(self._links, errors):
            link.task = asyncio.create_task(self._link_main(link, error))
        await self._dispatch()
        return self.manifest

    def elapsed(self) -> float:
        """Seconds since the session started."""
        return time.monotonic() - self._t0

    async def aclose(self) -> None:
        """Tear the fetch down without leaking anything.

        Every background task is cancelled and awaited (the count lands
        in ``netserve_cancelled_tasks_total``), the waiters of an
        unfinished fetch get a typed
        :class:`~repro.errors.ConnectionLostError`, and every transport
        is closed and awaited closed.
        """
        tasks = [self._watchdog] + [link.task for link in self._links]
        live = [task for task in tasks if task is not None]
        cancelled = sum(1 for task in live if not task.done())
        for task in live:
            task.cancel()
        for task in live:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.stats.record_cancelled_tasks(cancelled)
        if not self._eof.is_set():
            self._fail(ConnectionLostError("fetcher closed"))
        for link in self._connections():
            writer = link.writer
            link.reader = link.writer = None
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    def _connections(self) -> List[_Link]:
        """Every link, plus the strict fallback's once it exists."""
        if self._fallback is None:
            return self._links
        return self._links + [self._fallback]

    # -- handshakes -------------------------------------------------------

    async def _open(self, link: _Link) -> Optional[TransferError]:
        """A link's first handshake; returns what kept it down."""
        try:
            await self._connect_link(link, resume=False)
            return None
        except (ConnectionLostError, ProtocolError) as error:
            return error

    async def _connect_link(self, link: _Link, resume: bool) -> None:
        """Dial a link: ``HELLO``, or ``RESUME`` with the session's holdings.

        A resumed manifest covers only what is still missing anywhere,
        so a healed link never re-fetches what a sibling landed.
        """
        extra: Dict[str, Any] = {"pull": True} if link.pull else {}
        if resume:
            greeting = resume_frame(
                self.policy, self.strategy, have=self._received_keys, **extra
            )
        else:
            greeting = hello_frame(self.policy, self.strategy, **extra)
        await self._dial(link, greeting)
        link.broken = link.stalled = False
        if link.state is LinkState.OPEN and resume:
            self._set_state(link, LinkState.HALF_OPEN)
        elif link.consecutive_failures:
            self._set_state(link, LinkState.DEGRADED)
        else:
            self._set_state(link, LinkState.HEALTHY)

    async def _dial(self, link: _Link, greeting: Frame) -> None:
        """One handshake under ``connect_timeout``, typed on failure.

        On success the link holds the new connection and the ack's
        manifest is folded into the session plan.
        """
        async def handshake() -> Tuple[
            asyncio.StreamReader, asyncio.StreamWriter, Frame
        ]:
            reader, writer = await asyncio.open_connection(
                link.host, link.port
            )
            try:
                writer.write(encode_frame(greeting))
                await writer.drain()
                return reader, writer, await read_frame(reader)
            except BaseException:  # a timeout cancels us mid-handshake
                writer.close()
                raise

        try:
            reader, writer, ack = await asyncio.wait_for(
                handshake(), timeout=self.connect_timeout
            )
        except asyncio.TimeoutError as error:
            raise ConnectionLostError(
                f"connect to {link.host}:{link.port} timed out after "
                f"{self.connect_timeout}s"
            ) from error
        except OSError as error:
            raise ConnectionLostError(
                f"cannot connect to {link.host}:{link.port}: {error}"
            ) from error
        expected = (
            FrameKind.RESUME_ACK
            if greeting.kind is FrameKind.RESUME
            else FrameKind.HELLO_ACK
        )
        fields = ack.field_dict
        try:
            if ack.kind is FrameKind.ERROR and fields.get("code") == "busy":
                raise ServerBusyError(f"server busy: {fields.get('message')}")
            if ack.kind is FrameKind.ERROR:
                raise ProtocolError(
                    f"server rejected session: {fields.get('message')}"
                )
            if ack.kind is not expected:
                raise ProtocolError(
                    f"expected {expected.name}, got {ack.kind.name}"
                )
            self._accept_manifest(fields)
        except ProtocolError:
            writer.close()
            raise
        link.reader, link.writer = reader, writer

    def _accept_manifest(self, fields: Dict[str, Any]) -> None:
        """Take an ack's manifest; the first ack's is the session's.

        A pull stripe reads the session's rows into its scoreboard at
        once; the plan reads them on first need (:meth:`_plan_order`).
        A later ack (a resume, the strict fallback) is read as it
        lands, so a malformed one refuses that ack and never enters
        the plan.

        Raises:
            ProtocolError: If ``sequence`` is not a list, or a row read
                now is malformed (:func:`_read_rows`).
        """
        rows = fields.get("sequence", [])
        if not isinstance(rows, list):
            raise ProtocolError(f"malformed manifest sequence {rows!r}")
        if self.manifest:
            self._later_keys.append([key for key, _ in _read_rows(rows)])
            return
        self._planned = len(rows)
        if self._pull:
            self._build_board(rows)
        self.manifest = fields
        self.stats.strategy = fields.get("strategy", self.strategy)
        self._t0 = time.monotonic()
        self._first_rows = rows

    def _set_state(self, link: _Link, state: LinkState) -> None:
        link.state = state
        self.stats.set_link_state(link.index, int(state))

    # -- the plan ---------------------------------------------------------

    def _plan_order(self) -> Dict[UnitKey, int]:
        """Wire key -> plan position over every manifest seen so far.

        The first manifest defines the order; resumed and fallback
        manifests only add keys it lacks.  Built on first need — a
        shortfall at ``EOF``, the strict fallback, or reassembly — so a
        clean push session never pays for it while units stream in.
        """
        plan = self._plan
        if self._first_rows is not None:
            for key, _ in _read_rows(self._first_rows):
                plan.setdefault(key, len(plan))
            self._first_rows = None
        for keys in self._later_keys:
            for key in keys:
                plan.setdefault(key, len(plan))
        self._later_keys.clear()
        return plan

    def _missing(self) -> List[UnitKey]:
        """Planned units not yet held (a whole class file covers its
        class — the strict fallback's case)."""
        return [
            key
            for key in self._plan_order()
            if key not in self._received_keys
            and key[1] not in self._classes_complete
        ]

    def _complete(self) -> bool:
        """True once every planned unit is held."""
        # Outside the strict fallback every unit that lands is a planned
        # one, so the count settles a clean session without the index.
        if self._fallback is None and len(self._received_keys) >= self._planned:
            return True
        return not self._missing()

    def _build_board(self, rows: List[Any]) -> None:
        """One issue grain per manifest unit, plus retire hazards.

        :func:`repro.sched.unit_grain_scoreboard` builds the board, as
        it does for the co-simulator's unit-grain policies: a class's
        leading global unit is a retire dependency of every other unit
        of the class, so out-of-order landings never make a method
        observable before its global data.

        Raises:
            ProtocolError: If a row is malformed; nothing is kept.
        """
        units: Dict[UnitKey, TransferUnit] = {}
        for key, size in _read_rows(rows):
            code, class_name, method = key
            units[key] = TransferUnit(
                unit_kind_from_code(code),
                class_name,
                size,
                None if method is None else MethodId(class_name, method),
            )
        self._board = unit_grain_scoreboard(list(units.values()))
        self._unit_by_key = units
        self._planned = len(units)

    # -- pull arbitration and issue -----------------------------------------

    def _capacity(self, link: _Link) -> int:
        return 1 if link.state is LinkState.HALF_OPEN else self.window

    def _pick_link(self, exclude: Optional[int] = None) -> Optional[_Link]:
        """The best usable link: healthiest, then least loaded.

        For an issue, only links with a free window count, and an idle
        half-open link outranks everyone for exactly one unit — its
        circuit can only close by proving itself on a landing, and a
        busy healthy link would otherwise starve the probe forever.  A
        hedge (``exclude`` = the primary's link) may overfill a window:
        it races latency, it does not wait for capacity.
        """
        hedge = exclude is not None
        candidates = [
            link
            for link in self._links
            if link.usable
            and link.index != exclude
            and (hedge or len(link.in_flight) < self._capacity(link))
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda link: (
                0
                if not hedge
                and link.state is LinkState.HALF_OPEN
                and not link.in_flight
                else 1,
                int(link.state),
                len(link.in_flight),
                link.index,
            ),
        )

    async def _dispatch(self) -> None:
        """One issue round: ready grains go to links, in scoreboard
        order, until windows or work run out; then each link gets one
        ``DEMAND_FETCH`` naming every unit the round issued to it.

        Serialized by a lock: landings, reconnects, and demand
        escalations all call this, and scoreboard transitions plus the
        matching sends must stay atomic per round.  Issuing releases no
        grain, so one ``ready_items`` list serves the whole round.  A
        push session has no scoreboard, so this returns at once.
        """
        board = self._board
        if board is None:
            return
        async with self._dispatch_lock:
            if self._eof.is_set():
                return
            issued: Dict[int, List[UnitKey]] = {}
            for item in board.ready_items():
                link = self._pick_link()
                if link is None:
                    break
                key = unit_wire_key(item.units[0])
                board.mark_issued(item.label, link.index, self.elapsed())
                link.in_flight[key] = (item.label, time.monotonic())
                issued.setdefault(link.index, []).append(key)
            for index, keys in issued.items():
                await self._send(
                    self._links[index], demand_fetch_frame(units=keys)
                )

    async def _send(self, link: _Link, frame: Frame) -> None:
        """Put one client frame on a link.

        A failed send only closes the transport: the link's own task
        sees the failure on its next read and recovers from there.
        """
        writer = link.writer
        if writer is None:
            return
        try:
            writer.write(encode_frame(frame))
            await writer.drain()
        except (ConnectionError, OSError):
            link.broken = True
            writer.close()

    # -- receive path -----------------------------------------------------

    async def _link_main(
        self, link: _Link, error: Optional[TransferError]
    ) -> None:
        """One link's whole life: drain, fail, back off, resume."""
        try:
            while True:
                if error is not None:
                    if not await self._reconnect(link, error):
                        return
                    # The fresh link needs work before it blocks in
                    # its read loop, or a fully-requeued stripe stalls.
                    await self._dispatch()
                try:
                    await self._drain(link)
                    return  # the fetch completed
                except (ConnectionLostError, ProtocolError) as exc:
                    if self._eof.is_set():
                        return
                    error = exc
                    await self._on_link_failure(link, exc)
                    await self._dispatch()
        except TransferError as exc:
            # A passed deadline or a failed fallback: surface it to
            # every waiter instead of dying silently.
            self._fail(exc)

    async def _drain(self, link: _Link) -> None:
        """Receive on one link until the fetch completes.

        Each socket read's whole frames are decoded, in order, before
        the link reads again, and a pull link issues new work once per
        read that landed units, after all of them.  A landing that
        wakes a waiter yields first, so the waiter runs before the next
        frame is decoded.

        A read's frames, wire bytes and landed units are tallied and
        recorded in one :meth:`~.stats.FetchStats.record_read` call
        before every await and on every exit, so the counters are exact
        whenever another task can read them.

        Raises :class:`~repro.errors.ConnectionLostError` or
        :class:`~repro.errors.ProtocolError` on a link failure.  ``EOF``
        is legal only on a push link, and only once nothing is missing.
        An undecodable frame that names no unit raises
        :class:`~repro.errors.StreamDecodeError` with its offset in
        this connection's stream (counted from the end of the
        handshake ack) and the last unit this connection delivered.
        """
        reader = link.reader
        assert reader is not None
        framer = _Framer()
        offset = 0  # this connection's stream bytes before the frame
        last: Optional[TransferUnit] = None
        frames = wire_bytes = units = unit_bytes = 0  # not yet recorded

        def account() -> None:
            nonlocal frames, wire_bytes, units, unit_bytes
            if frames:
                self.stats.record_read(
                    link.index, frames, wire_bytes, units, unit_bytes
                )
                frames = wire_bytes = units = unit_bytes = 0

        try:
            while True:
                landed = False
                for raw in framer.feed(await self._read_chunk(reader)):
                    try:
                        frame, _ = decode_frame(raw)
                    except FrameCorruptionError as error:
                        key = salvage_unit_key(raw)
                        if key is None:
                            raise StreamDecodeError(
                                f"stream decode failed at byte {offset}: "
                                f"{error}",
                                class_name=last.class_name if last else None,
                                method_name=(
                                    last.method.method_name
                                    if last and last.method
                                    else None
                                ),
                                byte_offset=offset,
                            ) from error
                        offset += len(raw)
                        account()
                        await self._retry_unit(link, key, error)
                        continue
                    offset += len(raw)
                    frames += 1
                    wire_bytes += len(raw)
                    if frame.kind is FrameKind.UNIT:
                        unit = frame.unit
                        assert unit is not None
                        last = unit
                        woke = self._land_unit(link, unit, frame.payload)
                        if woke is not None:
                            units += 1
                            unit_bytes += len(frame.payload)
                        if self._eof.is_set():
                            return
                        landed = True
                        if woke:
                            # Reads never suspend while bytes are
                            # buffered: let the woken caller run now,
                            # not once the socket buffer is empty.
                            account()
                            await asyncio.sleep(0)
                    elif frame.kind is FrameKind.EOF and not link.pull:
                        if not self._complete():
                            raise ProtocolError(
                                f"server EOF with {len(self._missing())} "
                                f"units still missing"
                            )
                        self._finish()
                        return
                    elif frame.kind is FrameKind.ERROR:
                        raise ProtocolError(
                            "server error: "
                            f"{frame.field_dict.get('message')}"
                        )
                    else:
                        raise ProtocolError(
                            f"unexpected {frame.kind.name} frame on link "
                            f"{link.index}"
                        )
                account()
                if landed and link.pull:
                    await self._dispatch()
        finally:
            account()

    async def _read_chunk(self, reader: asyncio.StreamReader) -> bytes:
        """The next bytes on a link's socket, at most
        :data:`READ_CHUNK_BYTES`, bounded by the fetch deadline.

        Raises:
            ConnectionLostError: If the peer closed or reset the
                connection.
            TransferError: If the fetch deadline passed first.
        """
        try:
            if self._deadline_at is None:
                chunk = await reader.read(READ_CHUNK_BYTES)
            else:
                remaining = self._deadline_at - time.monotonic()
                if remaining <= 0:
                    raise self._deadline_error()
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(READ_CHUNK_BYTES), timeout=remaining
                    )
                except asyncio.TimeoutError as exc:
                    raise self._deadline_error() from exc
        except (ConnectionError, OSError) as exc:
            raise ConnectionLostError(f"connection lost: {exc}") from exc
        if not chunk:
            raise ConnectionLostError("connection closed")
        return chunk

    async def _retry_unit(
        self, link: _Link, key: UnitKey, error: FrameCorruptionError
    ) -> None:
        """Re-request exactly one damaged unit on the link that carried
        it: one bad frame costs one retransmission, not a reconnect."""
        self.stats.record_unit_retry()
        if self.recorder is not None:
            self.recorder.unit_retry(
                self.elapsed(),
                class_name=key[1],
                method=key[2],
                link=str(link.index),
                reason=str(error),
            )
        await self._send(link, demand_fetch_frame(units=[key]))

    # -- landing and retire -----------------------------------------------

    def _land_unit(
        self, link: _Link, unit: TransferUnit, payload: bytes
    ) -> Optional[bool]:
        """Record a landing; observability waits for the retire cascade.

        The unit's wire key is derived once, here, and kept beside its
        payload in :attr:`buffers`.  Duplicates (hedge losers, resume
        races, duplicated frames) are dropped by wire key before they
        can touch the buffers or the scoreboard, and return None.  A
        landed unit returns True when it woke a waiter; the caller
        accounts it.
        """
        key = unit_wire_key(unit)
        link.in_flight.pop(key, None)
        hedge = self._hedges.pop(key, None)
        if key in self._received_keys:
            self.stats.record_duplicate_unit()
            self._link_success(link)
            return None
        now = self.elapsed()
        self.unit_log.append((unit, now))
        self._received_keys.add(key)
        if self.recorder is not None:
            self.recorder.unit_arrived(
                now,
                class_name=unit.class_name,
                kind=unit.kind.value,
                size=unit.size,
                method=unit.method.method_name if unit.method else None,
                link=str(link.index),
            )
        if unit.kind is UnitKind.CLASS_FILE:
            # A whole-class unit supersedes any partial units for that
            # class (the strict fallback re-sends whole files).
            self.buffers[unit.class_name] = [(key, payload)]
        else:
            self.buffers.setdefault(unit.class_name, []).append(
                (key, payload)
            )
        if hedge is not None:
            role = "hedge" if link.index == hedge[1] else "primary"
            self.stats.record_hedge_win(role)
            if self.recorder is not None:
                self.recorder.hedge_won(
                    now,
                    class_name=unit.class_name,
                    link=str(link.index),
                    role=role,
                )
        board = self._board
        board_unit = self._unit_by_key.get(key)
        woke = False
        if board is None or board_unit is None:
            woke = self._signal_available(unit, now)
        else:
            for retired, retire_time in board.mark_landed(board_unit, now):
                woke |= self._signal_available(retired, retire_time)
        self._link_success(link)
        if link.pull and len(self._received_keys) >= self._planned:
            self._finish()
        return woke

    def _signal_available(self, unit: TransferUnit, at: float) -> bool:
        """A unit retired: its methods may now execute (arrival = retire
        time, exactly the simulator's observable-arrival rule).  Returns
        True when that woke a waiter."""
        woke = False
        if unit.kind is UnitKind.METHOD and unit.method is not None:
            self._method_arrivals.setdefault(unit.method, at)
            event = self._events.get(unit.method)
            if event is not None and not event.is_set():
                event.set()
                woke = True
        elif unit.kind is UnitKind.CLASS_FILE:
            # The whole class arrived: every method it holds is now
            # available, including ones nobody asked about yet.
            self._classes_complete.add(unit.class_name)
            for method_id, waiting in self._events.items():
                if method_id.class_name == unit.class_name:
                    self._method_arrivals.setdefault(method_id, at)
                    woke |= not waiting.is_set()
                    waiting.set()
        return woke

    def _link_success(self, link: _Link) -> None:
        """A landing proves the link; heal its circuit state."""
        link.consecutive_failures = 0
        if link.state is LinkState.HALF_OPEN:
            self._set_state(link, LinkState.HEALTHY)
            if self.recorder is not None:
                self.recorder.link_restored(
                    self.elapsed(), link=str(link.index), probes=link.probes
                )
            link.probes = 0
        elif link.state is LinkState.DEGRADED:
            self._set_state(link, LinkState.HEALTHY)

    def _finish(self) -> None:
        """Every unit is held: close the sessions (pull gets no EOF)."""
        self._eof.set()
        for link in self._connections():
            if link.writer is not None:
                link.writer.close()

    # -- failure handling ---------------------------------------------------

    async def _on_link_failure(
        self, link: _Link, error: TransferError
    ) -> None:
        """Requeue a failed link's flight onto survivors; open the
        circuit past the failure threshold."""
        link.consecutive_failures += 1
        board = self._board
        requeued = 0
        for key, (label, _issued) in list(link.in_flight.items()):
            link.in_flight.pop(key, None)
            item = board.items.get(label) if board is not None else None
            if (
                board is not None
                and item is not None
                and item.state is ItemState.ISSUED
                and item.channel == link.index
            ):
                board.requeue(label, item.units)
                requeued += 1
        writer = link.writer
        link.reader = link.writer = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        link.broken = False
        reason = (
            f"stalled: no frame for {self.stall_timeout:.1f}s"
            if link.stalled
            else str(error)
        )
        link.stalled = False
        opened = (
            link.state is LinkState.HALF_OPEN
            or link.consecutive_failures >= self.failure_threshold
        )
        was_open = link.state is LinkState.OPEN
        self._set_state(link, LinkState.OPEN if opened else LinkState.DEGRADED)
        if opened and not was_open:
            self.stats.record_link_outage(link.index)
            if self.recorder is not None:
                self.recorder.link_outage(
                    self.elapsed(),
                    link=str(link.index),
                    reason=reason,
                    requeued=requeued,
                )

    async def _reconnect(self, link: _Link, error: TransferError) -> bool:
        """Back off and re-dial with ``RESUME`` until the link is back
        (True) or its budget is spent (False).

        The budget spans the whole fetch, not one outage — otherwise a
        plan that faults every connection would resume forever instead
        of reaching the strict fallback.
        """
        while not self._eof.is_set() and self._failure is None:
            if link.reconnects_used >= self.max_reconnects:
                link.dead = True
                self._set_state(link, LinkState.OPEN)
                await self._on_link_dead(error)
                return False
            link.reconnects_used += 1
            if link.state is LinkState.OPEN:
                link.probes += 1
            attempt = link.reconnects_used
            backoff = await self._back_off(link, attempt)
            self.stats.record_reconnect(link.index)
            if self.recorder is not None:
                self.recorder.reconnect(
                    self.elapsed(),
                    attempt=attempt,
                    backoff=backoff,
                    link=str(link.index),
                    error=str(error),
                )
            try:
                await self._connect_link(link, resume=True)
                return True
            except (ConnectionLostError, ProtocolError) as exc:
                error = exc
        return False

    async def _back_off(self, link: _Link, attempt: int) -> float:
        """Sleep a capped exponential backoff with the link's own seeded
        jitter (attempt >= 1); returns the delay."""
        backoff = min(
            BACKOFF_CAP_SECONDS, self.backoff_base * (2 ** (attempt - 1))
        )
        backoff += self._rngs[link.index].uniform(
            0.0, self.backoff_jitter * backoff
        )
        self._check_deadline()
        await asyncio.sleep(backoff)
        self._check_deadline()
        return backoff

    async def _on_link_dead(self, error: TransferError) -> None:
        """A link spent its budget; the last one down takes the fallback."""
        if any(not link.dead for link in self._links):
            return
        if self._fallback is not None or self._eof.is_set():
            return
        await self._degrade(
            f"every link spent its {self.max_reconnects} reconnects: {error}"
        )

    async def _degrade(self, reason: str) -> None:
        """The ladder's last rung: one strict whole-file fetch, trying
        each endpoint in turn.  The paper's non-strictness is an
        optimization, never a correctness requirement: the fallback
        still yields every class, just without overlap.

        Raises:
            ResilienceExhaustedError: If no endpoint completes it; its
                ``__cause__`` is the last endpoint's failure.
        """
        self.stats.record_degraded()
        if self.recorder is not None:
            self.recorder.degraded_to_strict(self.elapsed(), reason=reason)
        failures: List[str] = []
        last: Optional[TransferError] = None
        for index, (host, port) in enumerate(self.endpoints):
            link = self._fallback = _Link(index, host, port, pull=False)
            try:
                await self._dial(link, hello_frame("strict", self.strategy))
                await self._drain(link)
                return
            except (ConnectionLostError, ProtocolError) as exc:
                failures.append(f"{host}:{port}: {exc}")
                last = exc
                if link.writer is not None:
                    link.writer.close()
        raise ResilienceExhaustedError(
            f"strict fallback failed ({reason}): {'; '.join(failures)}"
        ) from last

    async def _watchdog_loop(self) -> None:
        """Detect the one-slow-link stall: in-flight but nothing lands.

        Closing the stalled transport makes its receive loop fail with
        a typed error, which requeues the flight onto survivors — a
        slow link is handled exactly like a dead one.
        """
        interval = max(self.stall_timeout / 4.0, 0.01)
        while not self._eof.is_set() and self._failure is None:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for link in self._links:
                if link.writer is None or link.broken or link.dead:
                    continue
                if not link.in_flight:
                    continue
                oldest = min(issued for _, issued in link.in_flight.values())
                if now - oldest > self.stall_timeout:
                    link.broken = True
                    link.stalled = True
                    link.writer.close()

    def _fail(self, error: BaseException) -> None:
        if self._failure is None:
            self._failure = error
        self._eof.set()
        for event in self._events.values():
            event.set()

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    def _deadline_error(self) -> TransferError:
        return TransferError(
            f"fetch deadline of {self.deadline:.1f}s exceeded"
        )

    def _check_deadline(self) -> None:
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            raise self._deadline_error()

    # -- availability interface -------------------------------------------

    def _event_for(self, method_id: MethodId) -> asyncio.Event:
        event = self._events.get(method_id)
        if event is None:
            event = asyncio.Event()
            self._events[method_id] = event
        return event

    def is_method_available(self, method_id: MethodId) -> bool:
        """True once the method's required unit has arrived."""
        return (
            method_id in self._method_arrivals
            or method_id.class_name in self._classes_complete
        )

    def arrival_time(self, method_id: MethodId) -> float:
        """Seconds after connect at which the method became available."""
        try:
            return self._method_arrivals[method_id]
        except KeyError as exc:
            raise TransferError(
                f"method has not arrived: {method_id}"
            ) from exc

    def was_demand_fetched(self, method_id: MethodId) -> bool:
        return method_id in self._demanded

    async def wait_for_method(
        self, method_id: MethodId, demand: bool = True
    ) -> float:
        """Block until ``method_id`` may execute; returns arrival time.

        A miss with ``demand=True`` is a first-use misprediction,
        corrected the §5.1 way (see :meth:`_demand`).  With
        ``demand=False`` the wait is passive.

        Raises:
            TransferError: If the fetch failed while waiting (typed:
                a lost connection, a passed deadline, an exhausted
                fallback), or every demand attempt timed out.
        """
        self._check_failure()
        if self.is_method_available(method_id):
            return self.arrival_time(method_id)
        waited_from = self.elapsed()
        event = self._event_for(method_id)
        if not demand:
            await event.wait()
            self._check_failure()
        else:
            await self._demand(method_id, event)
        self.stats.record_stall(method_id, self.elapsed() - waited_from)
        return self.arrival_time(method_id)

    async def _demand(
        self, method_id: MethodId, event: asyncio.Event
    ) -> None:
        """Correct a first-use misprediction, with bounded retries.

        A push session (or the strict fallback) sends ``DEMAND_FETCH``,
        and the server moves the class to the front of its queue.  A
        pull stripe escalates the unit's grain to the front of every
        queue — the same §5.1 rule on the client's scoreboard — and, if
        it is still missing after ``hedge_delay``, races a duplicate
        request on the next-best link.
        """
        self._demanded.add(method_id)
        pull = self._board is not None and self._fallback is None
        key = self._needed_key(method_id) if pull else None
        for attempt in range(self.demand_retries):
            if pull:
                self._escalate_for(key)
                await self._dispatch()
            else:
                await self._send(
                    self._fallback or self._links[0],
                    demand_fetch_frame(
                        method_id.class_name, method_id.method_name
                    ),
                )
            self.stats.record_demand_fetch()
            if self.recorder is not None:
                self.recorder.demand_fetch(
                    self.elapsed(),
                    method=str(method_id),
                    attempt=attempt + 1,
                )
            timeout = self.demand_timeout
            if pull and attempt == 0 and self.hedge_delay < timeout:
                if await self._wait_available(
                    method_id, event, self.hedge_delay
                ):
                    return
                await self._fire_hedge(method_id, key)
                timeout = max(timeout - self.hedge_delay, 0.001)
            if await self._wait_available(method_id, event, timeout):
                return
        self._check_failure()
        raise TransferError(
            f"demand fetch for {method_id} timed out after "
            f"{self.demand_retries} attempts of "
            f"{self.demand_timeout:.1f}s"
        )

    async def _wait_available(
        self, method_id: MethodId, event: asyncio.Event, timeout: float
    ) -> bool:
        """Wait on the method's event; True once it is available."""
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        self._check_failure()
        if self.is_method_available(method_id):
            return True
        # A woken event whose method is still missing: re-arm it and
        # let the caller retry.
        event.clear()
        return False

    def _needed_key(self, method_id: MethodId) -> Optional[UnitKey]:
        """The wire key whose retire makes ``method_id`` available: its
        method unit's, or its class file's."""
        class_name = method_id.class_name
        needed: Tuple[UnitKey, ...] = (
            (_METHOD, class_name, method_id.method_name),
            (_CLASS_FILE, class_name, None),
        )
        for key in needed:
            if key in self._unit_by_key:
                return key
        return None

    def _escalate_for(self, key: Optional[UnitKey]) -> None:
        """Escalate the unit's grain and its retire hazard, its class's
        leading global."""
        board = self._board
        unit = self._unit_by_key.get(key) if key is not None else None
        if board is None or unit is None:
            return
        for needed in (unit, *board.unit_deps(unit)):
            board.escalate(board.label_of(needed))

    async def _fire_hedge(
        self, method_id: MethodId, key: Optional[UnitKey]
    ) -> None:
        """Race a missing demanded unit on the next-best link."""
        if key is None or key in self._received_keys or key in self._hedges:
            return
        board = self._board
        unit = self._unit_by_key.get(key)
        if board is None or unit is None:
            return
        label = board.label_of(unit)
        item = board.items[label]
        if item.state is not ItemState.ISSUED or item.channel is None:
            return  # not in flight; escalation re-issues it instead
        link = self._pick_link(exclude=item.channel)
        if link is None:
            return
        self.stats.record_hedge()
        if self.recorder is not None:
            self.recorder.hedge_fired(
                self.elapsed(),
                class_name=method_id.class_name,
                link=str(link.index),
                method=method_id.method_name,
            )
        self._hedges[key] = (item.channel, link.index)
        link.in_flight.setdefault(key, (label, time.monotonic()))
        await self._send(link, demand_fetch_frame(units=[key]))

    async def wait_until_complete(self) -> None:
        """Block until every unit is held (or a typed failure)."""
        await self._eof.wait()
        self._check_failure()

    # -- reassembly -------------------------------------------------------

    def class_bytes(self, class_name: str) -> bytes:
        """Concatenated payloads for one class, in *plan* order.

        Pulled, resumed and retried units land out of order; sorting by
        manifest position (a stable sort, so arrival breaks ties) makes
        a chaos run's bytes identical to a clean run's.  Each entry
        sorts on the wire key stored when it landed.
        """
        order = self._plan_order()
        last = len(order)
        entries = sorted(
            self.buffers.get(class_name, []),
            key=lambda entry: order.get(entry[0], last),
        )
        return b"".join(payload for _, payload in entries)
