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
  client-side :class:`repro.sched.Scoreboard` — the structure the
  simulator's :class:`~repro.sched.StripedController` uses — issues each
  unit to the healthiest, least-loaded link.  Units land in any order,
  but one only becomes *observable* at its scoreboard retire time,
  after its class's leading global unit.  A misprediction escalates the
  unit to the front of every queue and, if it is still missing after
  ``hedge_delay``, races a duplicate request on the next-best link; the
  losing copy is dropped by wire key.

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
from ..sched import IssueItem, ItemState, Scoreboard
from ..transfer import TransferUnit, UnitKind
from .protocol import (
    Frame,
    FrameKind,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    hello_frame,
    read_frame,
    read_raw_frame,
    resume_frame,
    salvage_unit_key,
    unit_kind_code,
    unit_kind_from_code,
    unit_wire_key,
)
from .stats import FetchStats

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["LinkState", "NonStrictFetcher"]

#: A server endpoint: (host, port).
Endpoint = Tuple[str, int]
#: A unit's wire identity: (kind code, class name, method name).
UnitKey = Tuple[int, str, Optional[str]]

#: Manifest rows name a unit kind by value; wire keys use its code.
_KIND_CODE_OF_VALUE = {kind.value: unit_kind_code(kind) for kind in UnitKind}


def _row_key(row: Sequence[Any]) -> UnitKey:
    """The wire key of one manifest row ``[kind, class, method, size]``.

    Rows come off the wire and are read lazily, inside a link's task, so
    a malformed one must fail as a typed link error, never as a crash
    that would leave the fetch's waiters hanging.
    """
    try:
        code = _KIND_CODE_OF_VALUE[row[0]]
        method = row[2]
        return (code, str(row[1]), None if method is None else str(method))
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed manifest row {row!r}") from exc


def _resend_frame(key: UnitKey) -> Frame:
    """A request for exactly one unit (pull issue, or a damaged frame)."""
    code, class_name, method_name = key
    return demand_fetch_frame(
        class_name,
        method_name,
        kind=unit_kind_from_code(code),
        resend=True,
    )


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
        backoff_base, backoff_cap: First reconnect delay in seconds,
            doubled per attempt up to the cap.
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
        backoff_cap: float = 2.0,
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
        self.backoff_cap = backoff_cap
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
        #: Per-class arrival buffers: (unit, payload) in arrival order.
        self.buffers: Dict[str, List[Tuple[TransferUnit, bytes]]] = {}
        self._method_arrivals: Dict[MethodId, float] = {}
        self._classes_complete: Set[str] = set()
        #: Wire keys of units held intact (resume/duplicate filtering).
        self._received_keys: Set[UnitKey] = set()
        self._wire_bytes = 0
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
        #: Wire key -> plan position; folded from ``_unindexed`` rows
        #: only when something needs it (see :meth:`_plan_order`).
        self._plan: Dict[UnitKey, int] = {}
        self._unindexed: List[Sequence[Any]] = []
        self._board: Optional[Scoreboard] = None
        self._unit_by_key: Dict[UnitKey, TransferUnit] = {}
        self._label_by_key: Dict[UnitKey, str] = {}
        self._lead_key_of_class: Dict[str, UnitKey] = {}
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
            self._build_board()
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
        if ack.kind is not expected:
            writer.close()
            fields = ack.field_dict
            if ack.kind is FrameKind.ERROR and fields.get("code") == "busy":
                raise ServerBusyError(f"server busy: {fields.get('message')}")
            if ack.kind is FrameKind.ERROR:
                raise ProtocolError(
                    f"server rejected session: {fields.get('message')}"
                )
            raise ProtocolError(
                f"expected {expected.name}, got {ack.kind.name}"
            )
        link.reader, link.writer = reader, writer
        self._accept_manifest(ack.field_dict)

    def _accept_manifest(self, fields: Dict[str, Any]) -> None:
        """Queue an ack's rows for the plan; the first ack is the session's."""
        rows = fields.get("sequence", [])
        if not self.manifest:
            self.manifest = fields
            self.stats.strategy = fields.get("strategy", self.strategy)
            self._planned = len(rows)
            self._t0 = time.monotonic()
        self._unindexed.append(rows)

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
        for rows in self._unindexed:
            for row in rows:
                plan.setdefault(_row_key(row), len(plan))
        self._unindexed.clear()
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

    def _build_board(self) -> None:
        """One issue grain per manifest unit, plus retire hazards.

        Mirrors :meth:`repro.sched.StripedController._build_scoreboard`:
        a class's leading global unit is a retire dependency of every
        other unit of the class, so out-of-order landings never make a
        method observable before its global data.
        """
        units: List[TransferUnit] = []
        for row in self.manifest.get("sequence", []):
            class_name, method_name = str(row[1]), row[2]
            units.append(
                TransferUnit(
                    kind=UnitKind(row[0]),
                    class_name=class_name,
                    size=int(row[3]),
                    method=(
                        MethodId(class_name, str(method_name))
                        if method_name is not None
                        else None
                    ),
                )
            )
        board = Scoreboard()
        leading: Dict[str, TransferUnit] = {}
        for unit in units:
            if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
                leading.setdefault(unit.class_name, unit)
        for seq, unit in enumerate(units):
            tail = (
                unit.method.method_name
                if unit.method is not None
                else unit.kind.value
            )
            label = f"{seq}:{unit.class_name}.{tail}"
            board.add_item(IssueItem(label=label, units=(unit,), seq=seq))
            key = unit_wire_key(unit)
            self._unit_by_key[key] = unit
            self._label_by_key[key] = label
            lead = leading.get(unit.class_name)
            if lead is not None:
                if unit is lead:
                    self._lead_key_of_class[unit.class_name] = key
                else:
                    board.add_unit_dep(unit, lead)
        self._board = board
        self._planned = len(self._unit_by_key)

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
        """Issue ready grains to links until windows or work run out.

        Serialized by a lock: landings, reconnects, and demand
        escalations all call this, and scoreboard transitions plus the
        matching sends must stay atomic per grain.  A push session has
        no scoreboard, so this returns at once.
        """
        board = self._board
        if board is None:
            return
        async with self._dispatch_lock:
            while not self._eof.is_set():
                ready = board.ready_items(lambda item: 0.0)
                if not ready:
                    return
                link = self._pick_link()
                if link is None:
                    return
                item = ready[0]
                key = unit_wire_key(item.units[0])
                board.mark_issued(item.label, link.index, self.elapsed())
                link.in_flight[key] = (item.label, time.monotonic())
                await self._send(link, _resend_frame(key))

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

        Raises :class:`~repro.errors.ConnectionLostError` or
        :class:`~repro.errors.ProtocolError` on a link failure.  ``EOF``
        is legal only on a push link, and only once nothing is missing.
        """
        reader = link.reader
        assert reader is not None
        read = (
            read_raw_frame
            if self._deadline_at is None
            else self._read_by_deadline
        )
        while True:
            raw = await read(reader)
            try:
                frame, _ = decode_frame(raw)
            except FrameCorruptionError as error:
                key = salvage_unit_key(raw)
                if key is None:
                    raise StreamDecodeError(
                        f"stream decode failed at byte {self._wire_bytes}: "
                        f"{error}",
                        byte_offset=self._wire_bytes,
                    ) from error
                self._wire_bytes += len(raw)
                await self._retry_unit(link, key, error)
                continue
            self._wire_bytes += len(raw)
            self.stats.record_frame(frame.wire_size)
            if frame.kind is FrameKind.UNIT:
                assert frame.unit is not None
                self._land_unit(link, frame.unit, frame.payload)
                if self._eof.is_set():
                    return
                if link.pull:
                    await self._dispatch()
            elif frame.kind is FrameKind.EOF and not link.pull:
                if not self._complete():
                    raise ProtocolError(
                        f"server EOF with {len(self._missing())} units "
                        f"still missing"
                    )
                self._finish()
                return
            elif frame.kind is FrameKind.ERROR:
                raise ProtocolError(
                    f"server error: {frame.field_dict.get('message')}"
                )
            else:
                raise ProtocolError(
                    f"unexpected {frame.kind.name} frame on link "
                    f"{link.index}"
                )

    async def _read_by_deadline(self, reader: asyncio.StreamReader) -> bytes:
        """One frame's wire bytes, bounded by the fetch deadline."""
        assert self._deadline_at is not None
        remaining = self._deadline_at - time.monotonic()
        if remaining <= 0:
            raise self._deadline_error()
        try:
            return await asyncio.wait_for(
                read_raw_frame(reader), timeout=remaining
            )
        except asyncio.TimeoutError as exc:
            raise self._deadline_error() from exc

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
        await self._send(link, _resend_frame(key))

    # -- landing and retire -----------------------------------------------

    def _land_unit(
        self, link: _Link, unit: TransferUnit, payload: bytes
    ) -> None:
        """Record a landing; observability waits for the retire cascade.

        Duplicates (hedge losers, resume races, duplicated frames) are
        dropped by wire key before they can touch the buffers or the
        scoreboard.
        """
        key = unit_wire_key(unit)
        link.in_flight.pop(key, None)
        hedge = self._hedges.pop(key, None)
        if key in self._received_keys:
            self.stats.record_duplicate_unit()
            self._link_success(link)
            return
        now = self.elapsed()
        self.unit_log.append((unit, now))
        self._received_keys.add(key)
        self.stats.record_unit(len(payload))
        self.stats.record_link_unit(link.index, len(payload))
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
            self.buffers[unit.class_name] = [(unit, payload)]
        else:
            self.buffers.setdefault(unit.class_name, []).append(
                (unit, payload)
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
        if board is None or board_unit is None:
            self._signal_available(unit, now)
        else:
            for retired, retire_time in board.mark_landed(board_unit, now):
                self._signal_available(retired, retire_time)
        self._link_success(link)
        if link.pull and len(self._received_keys) >= self._planned:
            self._finish()

    def _signal_available(self, unit: TransferUnit, at: float) -> None:
        """A unit retired: its methods may now execute (arrival = retire
        time, exactly the simulator's observable-arrival rule)."""
        if unit.kind is UnitKind.METHOD and unit.method is not None:
            self._method_arrivals.setdefault(unit.method, at)
            event = self._events.get(unit.method)
            if event is not None:
                event.set()
        elif unit.kind is UnitKind.CLASS_FILE:
            # The whole class arrived: every method it holds is now
            # available, including ones nobody asked about yet.
            self._classes_complete.add(unit.class_name)
            for method_id, waiting in self._events.items():
                if method_id.class_name == unit.class_name:
                    self._method_arrivals.setdefault(method_id, at)
                    waiting.set()

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
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
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
            ResilienceExhaustedError: If no endpoint completes it.
        """
        self.stats.record_degraded()
        if self.recorder is not None:
            self.recorder.degraded_to_strict(self.elapsed(), reason=reason)
        failures: List[str] = []
        for index, (host, port) in enumerate(self.endpoints):
            link = self._fallback = _Link(index, host, port, pull=False)
            try:
                await self._dial(link, hello_frame("strict", self.strategy))
                await self._drain(link)
                return
            except (ConnectionLostError, ProtocolError) as exc:
                failures.append(f"{host}:{port}: {exc}")
                if link.writer is not None:
                    link.writer.close()
        raise ResilienceExhaustedError(
            f"strict fallback failed ({reason}): {'; '.join(failures)}"
        )

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
                self._escalate_for(method_id, key)
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
        """The wire key whose retire makes ``method_id`` available."""
        for unit in self._unit_by_key.values():
            if unit.kind is UnitKind.METHOD and unit.method == method_id:
                return unit_wire_key(unit)
            if (
                unit.kind is UnitKind.CLASS_FILE
                and unit.class_name == method_id.class_name
            ):
                return unit_wire_key(unit)
        return None

    def _escalate_for(
        self, method_id: MethodId, key: Optional[UnitKey]
    ) -> None:
        """Escalate the unit's grain and its class's leading global."""
        board = self._board
        if board is None or key is None:
            return
        lead = self._lead_key_of_class.get(method_id.class_name)
        for entry in (key, lead):
            label = self._label_by_key.get(entry) if entry else None
            if label is not None:
                board.escalate(label)

    async def _fire_hedge(
        self, method_id: MethodId, key: Optional[UnitKey]
    ) -> None:
        """Race a missing demanded unit on the next-best link."""
        if key is None or key in self._received_keys or key in self._hedges:
            return
        board = self._board
        label = self._label_by_key.get(key)
        if board is None or label is None:
            return
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
        await self._send(link, _resend_frame(key))

    async def wait_until_complete(self) -> None:
        """Block until every unit is held (or a typed failure)."""
        await self._eof.wait()
        self._check_failure()

    # -- reassembly -------------------------------------------------------

    def class_bytes(self, class_name: str) -> bytes:
        """Concatenated payloads for one class, in *plan* order.

        Pulled, resumed and retried units land out of order; sorting by
        manifest position (a stable sort, so arrival breaks ties) makes
        a chaos run's bytes identical to a clean run's.
        """
        order = self._plan_order()
        last = len(order)
        entries = sorted(
            self.buffers.get(class_name, []),
            key=lambda entry: order.get(unit_wire_key(entry[0]), last),
        )
        return b"".join(payload for _, payload in entries)
