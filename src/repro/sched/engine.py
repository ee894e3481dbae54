"""The scoreboard-driven multi-link issue engine.

:class:`IssueEngine` is the transfer engine the co-simulator's reference
loop drives — ``time``, ``arrived``, ``arrival_times``, ``run_until``,
``run_until_unit``, ``total_delivered``, ``remaining_bytes``.  Behind
that facade it drives one :class:`~repro.transfer.streams.StreamEngine`
*per network link*, all advanced in lockstep to the globally earliest event
boundary (a unit completion on any link or a scheduled link outage).
At every boundary it:

1. collects units that landed on each link and feeds them to the
   :class:`~repro.sched.scoreboard.Scoreboard`, which cascades
   retires (a unit's observable arrival is its *retire* time — after
   its hazard dependencies — never its raw landing);
2. processes link outages: the dead link's in-flight units go back to
   ``READY`` and retransmit on the survivors;
3. dispatches: asks the scoreboard for the ready set and issues
   grains to links under the configured arbitration.

Two dispatch grains exist.  ``"stream"`` issues whole in-order unit
streams and admits every ready item at once (the strict, parallel and
interleaved policies on one link: the link's engine then sees exactly
the paper methodology's request sequence).  ``"unit"`` issues one
transfer unit per idle link — true out-of-order striping.
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

from ..errors import TransferError
from ..transfer import NetworkLink, TransferUnit
from ..transfer.streams import Stream, StreamEngine
from .scoreboard import IssueItem, ItemState, Scoreboard

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import MetricsRegistry, TraceRecorder

__all__ = ["LinkOutage", "LinkChannel", "IssueEngine"]

_EPSILON = 1e-6

#: How an engine picks the link for a ready grain.
LINK_CHOICES = ("earliest_finish", "round_robin", "least_loaded")


@dataclass(frozen=True)
class LinkOutage:
    """A link death scheduled into a striped run (chaos testing).

    Attributes:
        at_cycles: Simulated cycle at which the link goes dark.
        link_index: Index into the engine's link list.
    """

    at_cycles: float
    link_index: int

    def __post_init__(self) -> None:
        if self.at_cycles < 0:
            raise TransferError(
                f"outage time must be >= 0, got {self.at_cycles}"
            )
        if self.link_index < 0:
            raise TransferError(
                f"outage link index must be >= 0, got {self.link_index}"
            )


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
        #: Event/metric label; the index disambiguates identical links.
        self.label = f"{index}:{link.name}"
        #: Arrivals already consumed by the facade's collect pass.
        self.collected = 0


class IssueEngine:
    """Scoreboard issue engine over one or more links.

    Args:
        links: The link set (1+ links, possibly heterogeneous).
        scoreboard: Pre-populated scoreboard of issue grains.
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
        metrics: Optional registry for the ``sched_*`` metric
            families.
        on_issue: Optional hook invoked after every dispatch (the
            striped controller uses it for ``schedule_decision``
            events).
    """

    def __init__(
        self,
        links: Sequence[NetworkLink],
        scoreboard: Scoreboard,
        grain: str = "unit",
        link_choice: str = "earliest_finish",
        max_streams: Optional[int] = None,
        outages: Sequence[LinkOutage] = (),
        recorder: Optional["TraceRecorder"] = None,
        metrics: Optional["MetricsRegistry"] = None,
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
        self.grain = grain
        self.link_choice = link_choice
        self.recorder = recorder
        self.metrics = metrics
        self.time = 0.0
        #: Unit → *retire* time: what the co-simulator observes.
        self.arrival_times: Dict[TransferUnit, float] = {}
        self._on_issue = on_issue
        self._streams: Dict[str, Tuple[LinkChannel, Stream]] = {}
        self._outages: List[LinkOutage] = sorted(
            outages, key=lambda o: o.at_cycles
        )
        self._rr_cursor = 0
        self._busy_emitted: Dict[str, bool] = {}

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

    def dispatch(self) -> None:
        """Issue every ready grain the arbitration allows right now."""
        ready = self.scoreboard.ready_items(self._delivered_for)
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
        of the next arbitration round (unit grain)."""
        item = self.scoreboard.items[label]
        if item.state not in (ItemState.WAITING, ItemState.READY):
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
        """Emit one ``stripe_rebalance`` event + metric."""
        if self.recorder is not None:
            self.recorder.stripe_rebalance(
                self.time, reason=reason, **extra
            )
        if self.metrics is not None:
            self.metrics.counter(
                "sched_rebalances_total", {"reason": reason}
            ).inc()

    # -- internals ---------------------------------------------------------

    def _live(self) -> List[LinkChannel]:
        channels = [ch for ch in self.channels if ch.alive]
        if not channels:
            raise TransferError(
                "all links are down: transfer cannot complete"
            )
        return channels

    def _delivered_for(self, item: IssueItem) -> float:
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
            self.recorder.unit_issued(
                self.time,
                class_name=item.class_name,
                link=channel.label,
                label=item.label,
                bytes=item.size,
                escalated=item.escalated,
            )
        if self.metrics is not None:
            labels = {"link": channel.label}
            self.metrics.counter(
                "sched_units_issued_total", labels
            ).inc()
            self.metrics.counter(
                "sched_bytes_issued_total", labels
            ).inc(float(item.size))
            if item.escalated:
                self.metrics.counter("sched_escalations_total").inc()
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
                self._maybe_emit_busy(unit, land_time, ch)

    def _maybe_emit_busy(
        self, unit: TransferUnit, land_time: float, channel: LinkChannel
    ) -> None:
        label = self.scoreboard.label_of(unit)
        item = self.scoreboard.items[label]
        if item.state is not ItemState.LANDED:
            return
        if self._busy_emitted.get(label):
            return
        self._busy_emitted[label] = True
        issued_at = item.issue_time if item.issue_time is not None else 0.0
        duration = land_time - issued_at
        if self.recorder is not None:
            self.recorder.link_busy(
                issued_at,
                link=channel.label,
                duration=duration,
                label=label,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "sched_link_busy_cycles", {"link": channel.label}
            ).inc(duration)

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
            if self.metrics is not None:
                self.metrics.counter(
                    "sched_link_outages_total",
                    {"link": channel.label},
                ).inc()
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
