"""The per-segment simulation loop the co-simulation core replaced.

This is the slow oracle :func:`repro.core.Simulator.run` is tested
against, bit for bit, on results and on recorded event streams.  It is
the library's earlier code, kept verbatim apart from its names and the
byte-watermark gate, which moved here from the library's scoreboard:

* :func:`run_reference` is the loop ``Simulator.run_reference`` ran:
  it walks the trace segment by segment and asks the controller's
  callbacks, at every segment, whether the method's unit has arrived;
* :class:`ReferenceRun` holds the per-run callbacks the controller used to
  carry (``start``, ``on_stall`` and the demand corrections, with the
  run's recorder and demand fetches);
* :class:`IssueEngine` drives one
  :class:`~tests.oracles.streams.StreamEngine` per link (a
  :class:`LinkChannel`), all advanced in lockstep to the globally
  earliest event boundary (a unit completion on any link or a
  scheduled link outage).  At every boundary it feeds landed units to
  the :class:`~repro.sched.Scoreboard`, which cascades retires;
  processes link outages (the dead link's in-flight units go back to
  ``READY`` and retransmit on the survivors); releases each
  :class:`HeldGrain` whose byte watermark is met onto the board; and
  dispatches the ready set under the configured arbitration.
  ``"stream"`` issues whole in-order unit streams and admits every
  ready item at once; ``"unit"`` issues one transfer unit per idle
  link.

The library's core (:mod:`repro.core.fastsim`) performs the same float
operations in the same order; the tests in ``tests/core/test_fastsim.py``
and ``tests/sched`` compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.simulation import RunObserver, SimulationResult, Simulator
from repro.errors import ReproError, TransferError
from repro.observe import TraceRecorder
from repro.program import MethodId
from repro.sched import (
    IssueItem,
    ItemState,
    LinkOutage,
    Scoreboard,
    StripedController,
    unit_grain_scoreboard,
)
from repro.sched.striped import (
    WATERMARK_SLOP,
    link_label,
    record_busy,
    record_demand,
    record_issue,
)
from repro.transfer import NetworkLink, TransferUnit

from tests.oracles.streams import Stream, StreamEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe import TraceEvent

__all__ = [
    "HeldGrain",
    "IssueEngine",
    "LinkChannel",
    "ReferenceRun",
    "assert_matches_oracle",
    "observable",
    "run_reference",
]

_EPSILON = 1e-6

#: How an engine picks the link for a ready grain.
LINK_CHOICES = ("earliest_finish", "round_robin", "least_loaded")


@dataclass
class HeldGrain:
    """A stream grain the engine holds off the board until its
    watermark classes have delivered ``watermark_bytes`` (the greedy
    schedule's start trigger, paper §5.1).

    Attributes:
        item: The grain, added to the board once released.
        watermark_bytes: Delivered-byte trigger.
        watermark_classes: Stream labels whose delivered bytes count
            toward the watermark.
    """

    item: IssueItem
    watermark_bytes: float
    watermark_classes: Tuple[str, ...]


class LinkChannel:
    """One link plus its private stream engine and liveness flag."""

    def __init__(
        self,
        index: int,
        link: NetworkLink,
        max_streams: Optional[int],
    ) -> None:
        self.index = index
        self.link = link
        self.engine = StreamEngine(link, max_streams=max_streams)
        self.alive = True
        self.label = link_label(index, link)
        #: Arrivals already consumed by the facade's collect pass.
        self.collected = 0


class IssueEngine:
    """Scoreboard issue engine over one or more links.

    Args:
        links: The link set (1+ links, possibly heterogeneous).
        scoreboard: Pre-populated scoreboard of issue grains.
        held: Stream grains to add to the board once their byte
            watermark is met, in release-scan order.
        grain: ``"stream"`` (whole in-order streams, processor-shared
            per link) or ``"unit"`` (one unit per idle link).
        link_choice: Arbitration among candidate links —
            ``"earliest_finish"`` (fastest link for the grain, i.e.
            weighted by bandwidth), ``"round_robin"``, or
            ``"least_loaded"`` (fewest remaining bytes; the stream
            grain's default).
        max_streams: Per-link concurrent stream cap for the stream
            grain (unit grain always runs one stream per link).
        outages: Scheduled link deaths (unit grain only).
        recorder: Optional trace recorder for ``unit_issued`` /
            ``link_busy`` / ``stripe_rebalance`` events.
        on_issue: Optional hook invoked after every dispatch (the
            striped controller uses it for ``schedule_decision``
            events).
    """

    def __init__(
        self,
        links: Sequence[NetworkLink],
        scoreboard: Scoreboard,
        held: Sequence[HeldGrain] = (),
        grain: str = "unit",
        link_choice: str = "earliest_finish",
        max_streams: Optional[int] = None,
        outages: Sequence[LinkOutage] = (),
        recorder: Optional["TraceRecorder"] = None,
        on_issue: Optional[
            Callable[[IssueItem, "LinkChannel"], None]
        ] = None,
    ) -> None:
        if not links:
            raise TransferError("IssueEngine needs at least one link")
        if grain not in ("stream", "unit"):
            raise TransferError(f"unknown issue grain {grain!r}")
        if link_choice not in LINK_CHOICES:
            raise TransferError(
                f"unknown link choice {link_choice!r}; "
                f"known: {LINK_CHOICES}"
            )
        per_link = max_streams if grain == "stream" else 1
        self.channels = [
            LinkChannel(index, link, per_link)
            for index, link in enumerate(links)
        ]
        for outage in outages:
            if outage.link_index >= len(self.channels):
                raise TransferError(
                    f"outage references link {outage.link_index}, "
                    f"but only {len(self.channels)} links exist"
                )
        if outages and grain == "stream":
            raise TransferError(
                "link outages require a unit-grain policy"
            )
        self.scoreboard = scoreboard
        self._held: Dict[str, HeldGrain] = {
            gated.item.label: gated for gated in held
        }
        self.grain = grain
        self.link_choice = link_choice
        self.recorder = recorder
        self.time = 0.0
        #: Unit → *retire* time: what the co-simulator observes.
        self.arrival_times: Dict[TransferUnit, float] = {}
        self._on_issue = on_issue
        self._streams: Dict[str, Tuple[LinkChannel, Stream]] = {}
        self._outages: List[LinkOutage] = sorted(
            outages, key=lambda o: o.at_cycles
        )
        self._rr_cursor = 0

    # -- simulator-facing protocol ----------------------------------------

    def arrived(self, unit: TransferUnit) -> bool:
        return unit in self.arrival_times

    def arrival_time(self, unit: TransferUnit) -> float:
        try:
            return self.arrival_times[unit]
        except KeyError as exc:
            raise TransferError(f"unit has not arrived: {unit}") from exc

    @property
    def total_delivered(self) -> float:
        """Bytes pushed over every link, including bytes a link
        outage later stranded."""
        return sum(ch.engine.total_delivered for ch in self.channels)

    @property
    def remaining_bytes(self) -> float:
        """Undelivered bytes of grains already on live links
        (matching the single-engine semantics: never-requested grains
        are not counted)."""
        return sum(
            ch.engine.remaining_bytes for ch in self._live()
        )

    @property
    def idle(self) -> bool:
        return all(ch.engine.idle for ch in self._live())

    def run_until(self, target_time: float) -> None:
        """Advance every link in lockstep to ``target_time``."""
        if target_time < self.time - _EPSILON:
            raise TransferError(
                f"cannot run backwards: {target_time} < {self.time}"
            )
        while self.time < target_time:
            self._advance_one_boundary(target_time)

    def run_until_unit(self, unit: TransferUnit) -> float:
        """Advance until ``unit`` retires; return its arrival time.

        Raises:
            TransferError: If every link goes idle with nothing left
                to dispatch first (a scheduling bug), or all links
                died.
        """
        while not self.arrived(unit):
            self._process_outages()
            if self.idle:
                self.dispatch()
            if self.idle:
                raise TransferError(
                    f"engine idle but unit never arrived: {unit}"
                )
            self._advance_one_boundary(math.inf)
        return self.arrival_times[unit]

    # -- dispatch ----------------------------------------------------------

    def holds(self, label: str) -> bool:
        """True while the grain waits for its watermark off the board."""
        return label in self._held

    def dispatch(self) -> None:
        """Release the held grains whose watermark is met, then issue
        every ready grain the arbitration allows right now."""
        for label, gated in list(self._held.items()):
            delivered = self._delivered_for(gated)
            if gated.watermark_bytes <= delivered + WATERMARK_SLOP:
                del self._held[label]
                self.scoreboard.add_item(gated.item)
        ready = self.scoreboard.ready_items()
        if not ready:
            return
        if self.grain == "stream":
            for item in ready:
                self._issue(item, self._choose(item, self._live()),
                            front=item.escalated)
        else:
            free = [ch for ch in self._live() if ch.engine.idle]
            for item in ready:
                if not free:
                    break
                channel = self._choose(item, free)
                free.remove(channel)
                self._issue(item, channel)

    def demand_issue(self, label: str) -> None:
        """Demand-fetch correction: put an unissued grain on the wire
        now, at the front of any queue (stream grain), or at the top
        of the next arbitration round (unit grain).  A demand releases
        a held grain whatever its watermark."""
        gated = self._held.pop(label, None)
        if gated is not None:
            self.scoreboard.add_item(gated.item)
        item = self.scoreboard.items[label]
        if item.state is not ItemState.READY:
            return
        self.scoreboard.escalate(label)
        if self.grain == "stream":
            self._issue(item, self._choose(item, self._live()),
                        front=True)
        else:
            self.dispatch()

    def stream_of(
        self, label: str
    ) -> Optional[Tuple[LinkChannel, Stream]]:
        """The channel and live stream a grain issued on, if any."""
        return self._streams.get(label)

    def rebalance_event(self, reason: str, **extra: object) -> None:
        """Emit one ``stripe_rebalance`` event."""
        if self.recorder is not None:
            self.recorder.stripe_rebalance(
                self.time, reason=reason, **extra
            )

    # -- internals ---------------------------------------------------------

    def _live(self) -> List[LinkChannel]:
        channels = [ch for ch in self.channels if ch.alive]
        if not channels:
            raise TransferError(
                "all links are down: transfer cannot complete"
            )
        return channels

    def _delivered_for(self, item: HeldGrain) -> float:
        total = 0.0
        for name in item.watermark_classes:
            for ch in self.channels:
                total += ch.engine.delivered_per_stream.get(name, 0.0)
        return total

    def _choose(
        self, item: IssueItem, candidates: List[LinkChannel]
    ) -> LinkChannel:
        if len(candidates) == 1:
            return candidates[0]
        if self.link_choice == "round_robin":
            count = len(self.channels)
            for offset in range(count):
                index = (self._rr_cursor + offset) % count
                channel = self.channels[index]
                if channel in candidates:
                    self._rr_cursor = index + 1
                    return channel
            return candidates[0]  # pragma: no cover - candidates ⊆ channels
        if self.link_choice == "least_loaded":
            return min(
                candidates,
                key=lambda ch: (ch.engine.remaining_bytes, ch.index),
            )
        # earliest_finish: the link that would land this grain first
        # (idle candidates ⇒ weighted by bandwidth).
        return min(
            candidates,
            key=lambda ch: (
                item.size * ch.link.cycles_per_byte,
                ch.index,
            ),
        )

    def _issue(
        self, item: IssueItem, channel: LinkChannel, front: bool = False
    ) -> None:
        stream = channel.engine.request_stream(
            item.label, item.units, front=front
        )
        self.scoreboard.mark_issued(
            item.label, channel.index, self.time
        )
        self._streams[item.label] = (channel, stream)
        if self.recorder is not None:
            record_issue(
                self.recorder,
                self.time,
                item.label,
                item.units,
                channel.label,
                item.escalated,
            )
        if self._on_issue is not None:
            self._on_issue(item, channel)

    def _advance_one_boundary(self, limit: float) -> None:
        self._process_outages()
        step_to = self._next_boundary(limit)
        for ch in self._live():
            engine = ch.engine
            dt = engine.next_event_dt()
            completes = dt is not None and engine.time + dt <= step_to
            if engine.time < step_to or completes:
                engine.advance(step_to)
        self.time = max(self.time, step_to)
        self._collect()
        self._process_outages()
        self.dispatch()

    def _next_boundary(self, limit: float) -> float:
        step_to = limit
        for ch in self._live():
            dt = ch.engine.next_event_dt()
            if dt is not None:
                step_to = min(step_to, ch.engine.time + dt)
        if self._outages:
            at = self._outages[0].at_cycles
            if self.time < at < step_to:
                step_to = at
        return step_to

    def _collect(self) -> None:
        for ch in self.channels:
            arrivals = ch.engine.arrival_times
            if len(arrivals) == ch.collected:
                continue
            landed = list(arrivals.items())[ch.collected:]
            ch.collected = len(arrivals)
            for unit, land_time in landed:
                for retired, retire_time in self.scoreboard.mark_landed(
                    unit, land_time
                ):
                    self.arrival_times[retired] = retire_time
                if self.recorder is not None:
                    self._record_busy(self.recorder, unit, land_time, ch)

    def _record_busy(
        self,
        recorder: "TraceRecorder",
        unit: TransferUnit,
        land_time: float,
        channel: LinkChannel,
    ) -> None:
        """``link_busy`` once the landed unit's grain has fully landed."""
        item = self.scoreboard.items[self.scoreboard.label_of(unit)]
        if item.state is ItemState.LANDED:
            record_busy(
                recorder,
                item.issue_time if item.issue_time is not None else 0.0,
                land_time,
                channel.label,
                item.label,
            )

    def _process_outages(self) -> None:
        while (
            self._outages
            and self._outages[0].at_cycles <= self.time
        ):
            outage = self._outages.pop(0)
            channel = self.channels[outage.link_index]
            if not channel.alive:
                continue
            channel.alive = False
            self._live()  # raises if that was the last link
            lost: List[str] = []
            for stream in list(channel.engine.active) + list(
                channel.engine.waiting
            ):
                label = stream.name
                item = self.scoreboard.items.get(label)
                if item is None or item.state is not ItemState.ISSUED:
                    continue
                remaining = tuple(stream.units)
                if not remaining:
                    continue
                self.scoreboard.requeue(label, remaining)
                self._streams.pop(label, None)
                lost.append(label)
            # The dead channel never advances again; drop its queued
            # work so facade-wide accounting stays honest.
            channel.engine.active.clear()
            channel.engine.waiting.clear()
            self.rebalance_event(
                "link_outage",
                link=channel.label,
                requeued=len(lost),
            )
            self.dispatch()


class ReferenceRun:
    """One run of a controller: the callbacks
    :class:`~repro.sched.StripedController` used to carry.

    ``start`` builds a fresh issue engine for the run and dispatches
    what is ready at time zero; ``on_stall`` corrects a stall; the
    run's recorder, demand fetches and engine live here.
    """

    def __init__(self, controller: StripedController) -> None:
        self.controller = controller
        self.recorder: Optional["TraceRecorder"] = None
        self.demand_fetches: List[MethodId] = []
        self._engine: Optional[IssueEngine] = None

    @property
    def engine(self) -> Optional["IssueEngine"]:
        """The issue engine of the run, once started."""
        return self._engine

    # -- scoreboard construction ------------------------------------------

    def _build_scoreboard(self) -> Tuple[Scoreboard, List[HeldGrain]]:
        """The run's board, and the stream grains held off it until
        their watermarks are met."""
        controller = self.controller
        if controller.grain == "unit":
            return unit_grain_scoreboard(controller.sequence), []
        held = [
            HeldGrain(
                IssueItem(label=grain.label, units=grain.units, seq=seq),
                grain.watermark_bytes,
                controller.watermark_order[: grain.watermark_count],
            )
            for seq, grain in enumerate(controller.stream_grains)
        ]
        return Scoreboard(), held

    # -- simulator interface ----------------------------------------------

    def start(
        self, recorder: Optional["TraceRecorder"] = None
    ) -> "IssueEngine":
        """Build a fresh issue engine for one run and dispatch what is
        ready at time zero.

        ``recorder`` receives this run's ``schedule_decision`` /
        ``demand_fetch`` events.
        """
        controller = self.controller
        self.recorder = recorder
        self.demand_fetches = []
        board, held = self._build_scoreboard()
        engine = IssueEngine(
            controller.links,
            board,
            held,
            grain=controller.grain,
            link_choice=controller.link_choice,
            max_streams=controller.max_streams,
            outages=controller.outages,
            recorder=recorder,
            on_issue=self._on_issue,
        )
        self._engine = engine
        engine.dispatch()
        return engine

    def on_stall(self, engine: "IssueEngine", method_id: MethodId) -> None:
        """Execution stalled waiting for ``method_id``: correct."""
        controller = self.controller
        if controller.schedule is not None:
            self._parallel_stall(engine, method_id)
        elif controller.grain == "unit" and controller.escalate:
            self._escalate_stall(engine, method_id)
        # A single stream is already in flight, in order: nothing can
        # be reordered.

    # -- misprediction correction -----------------------------------------

    def _parallel_stall(
        self, engine: "IssueEngine", method_id: MethodId
    ) -> None:
        """§5.1 demand fetch: request the class at the queue front, or
        promote its queued stream."""
        class_name = method_id.class_name
        item = engine.scoreboard.items.get(class_name)
        if item is None and not engine.holds(class_name):
            raise TransferError(
                f"no transfer plan for class {class_name!r}"
            )
        if item is None or item.state is ItemState.READY:
            self.demand_fetches.append(method_id)
            if self.recorder is not None:
                record_demand(self.recorder, engine.time, method_id)
            engine.demand_issue(class_name)
            return
        entry = engine.stream_of(class_name)
        if entry is not None:
            channel, stream = entry
            if not stream.started and not stream.done:
                self.demand_fetches.append(method_id)
                channel.engine.promote(stream)
                if self.recorder is not None:
                    record_demand(
                        self.recorder, engine.time, method_id, promoted=True
                    )

    def _escalate_stall(
        self, engine: "IssueEngine", method_id: MethodId
    ) -> None:
        """Hazard-priority escalation for the unit-grain policies."""
        board = engine.scoreboard
        try:
            needed = self.controller.required_unit(method_id)
        except TransferError:
            return
        # The unit, then its retire hazard: its class's global unit.
        escalated = [
            unit
            for unit in (needed, *board.unit_deps(needed))
            if board.escalate(board.label_of(unit))
        ]
        if not escalated:
            return
        self.demand_fetches.append(method_id)
        if self.recorder is not None:
            record_demand(self.recorder, engine.time, method_id)
        engine.rebalance_event(
            "demand_escalation",
            method=str(method_id),
            items=len(escalated),
        )
        engine.dispatch()

    def _on_issue(self, item: IssueItem, channel: "LinkChannel") -> None:
        if self.recorder is not None and self._engine is not None:
            self.controller.record_decision(
                self.recorder,
                self._engine.time,
                item.label,
                item.units,
                item.escalated,
            )


def run_reference(
    simulator: Simulator, run: Optional[ReferenceRun] = None
) -> SimulationResult:
    """Run the readable per-segment loop, whatever the inputs.

    It drives the controller's issue engine through ``run`` (a fresh
    :class:`ReferenceRun` by default; pass one to read its engine
    afterwards) and emits the recorder's event stream.
    """
    controller = simulator.controller
    if run is None:
        run = ReferenceRun(controller)
    # The run emits into this recorder, or none.
    engine = run.start(simulator.recorder)
    observer = RunObserver(simulator)

    time = 0.0
    instructions = 0
    for segment in simulator.trace.segments:
        instructions += segment.instructions
        unit = controller.required_unit(segment.method)
        if not engine.arrived(unit):
            run.on_stall(engine, segment.method)
            observer.stall_begin(segment.method, time)
            time = observer.stall_end(
                segment.method, time, engine.run_until_unit(unit)
            )
        if segment.method not in observer.latencies:
            observer.first_invoke(
                segment.method,
                time,
                segment.method in run.demand_fetches,
            )
        time += segment.instructions * simulator.cpi
        engine.run_until(time)

    return observer.result(
        total_cycles=time,
        instructions=instructions,
        bytes_delivered=engine.total_delivered,
        bytes_terminated=engine.remaining_bytes,
        arrivals=engine.arrival_times,
    )


# -- the differential check ----------------------------------------------


def observable(result: SimulationResult) -> Tuple[object, ...]:
    """Every observable field of a result but its labels."""
    return (
        result.total_cycles,
        result.execution_cycles,
        result.stall_cycles,
        result.invocation_latency,
        result.bytes_delivered,
        result.bytes_terminated,
        tuple(
            (stall.method, stall.start, stall.duration)
            for stall in result.stalls
        ),
        tuple(
            (entry.method, entry.latency, entry.demand_fetched)
            for entry in result.latencies.entries
        ),
    )


def _recorded(
    loop: Callable[[], SimulationResult], simulator: Simulator
) -> Tuple[object, List["TraceEvent"]]:
    """One recorded run: its result, or the type of the typed error it
    raised, and its events."""
    recorder = TraceRecorder(clock="cycles")
    simulator.recorder = recorder
    try:
        return loop(), recorder.events
    except ReproError as error:
        return type(error), recorder.events
    finally:
        simulator.recorder = None


def assert_matches_oracle(
    simulator: Simulator, run: Optional[ReferenceRun] = None
) -> Tuple[Optional[SimulationResult], List["TraceEvent"]]:
    """Recorded ``run()`` and recorded :func:`run_reference` of one
    simulator give exactly the same result and event list, or raise the
    same typed error.

    Returns ``run()``'s result and events (``None`` and its events when
    both raised); ``run`` is the oracle's ``ReferenceRun``, for reading its
    engine afterwards.
    """
    result, events = _recorded(simulator.run, simulator)
    expected, oracle_events = _recorded(
        lambda: run_reference(simulator, run), simulator
    )
    if isinstance(result, type) or isinstance(expected, type):
        assert result == expected
        return None, events
    assert isinstance(result, SimulationResult)
    assert isinstance(expected, SimulationResult)
    assert result.controller_name == expected.controller_name
    assert observable(result) == observable(expected)
    assert events, "the recorded run emitted nothing"
    assert events == oracle_events
    return result, events
