"""Processor-sharing stream engine: the oracle's model of one link.

Models the paper's transfer fabric: a fixed-bandwidth link over which up
to ``max_streams`` class files transfer simultaneously, splitting the
bandwidth equally (§5.1).  Streams are admitted on request; when all
slots are taken, later requests queue (a demand-fetched class caused by
a misprediction jumps to the *front* of the queue, §5.1).  A stream,
once started, transfers to completion — streams are never preempted.

Time is measured in CPU cycles.  The engine is event-driven and exact:
it advances from unit-completion to unit-completion, so no per-cycle
stepping occurs.

The library's co-simulation core (:mod:`repro.core.fastsim`) performs
the same step, completion and snap rules on flat lists.  This engine
was its predecessor; it lives with the tests as the per-link engine of
the two oracles: the simulation oracle
(``tests/oracles/simulation_reference.py``) drives one engine per link,
and the JIT oracle (``tests/oracles/jit_reference.py``) runs its one
link on one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from collections import deque

from repro.errors import TransferError
from repro.transfer import NetworkLink, TransferUnit

__all__ = ["Stream", "StreamEngine"]

_EPSILON = 1e-6


@dataclass
class Stream:
    """One in-order unit stream (usually: one class file).

    Attributes:
        name: Diagnostic label (class name, or "interleaved").
        units: Remaining units, front is currently transferring.
        delivered_bytes: Bytes of this stream delivered so far.
    """

    name: str
    units: Deque[TransferUnit]
    remaining_in_unit: float = 0.0
    delivered_bytes: float = 0.0
    started: bool = False

    def __post_init__(self) -> None:
        if self.units:
            self.remaining_in_unit = float(self.units[0].size)

    @property
    def done(self) -> bool:
        return not self.units

    @property
    def remaining_bytes(self) -> float:
        if not self.units:
            return 0.0
        later = sum(unit.size for unit in list(self.units)[1:])
        return self.remaining_in_unit + later


class StreamEngine:
    """Shares a link's bandwidth among active streams.

    Args:
        link: The link model (cycles per byte).
        max_streams: Concurrent stream limit; ``None`` = unlimited
            (the paper's "infinite" configuration).
    """

    def __init__(
        self, link: NetworkLink, max_streams: Optional[int] = None
    ) -> None:
        if max_streams is not None and max_streams < 1:
            raise TransferError(
                f"max_streams must be >= 1, got {max_streams}"
            )
        self.link = link
        self.max_streams = max_streams
        self.time = 0.0
        self.active: List[Stream] = []
        self.waiting: Deque[Stream] = deque()
        self.arrival_times: Dict[TransferUnit, float] = {}
        self._known_units: set = set()
        self.total_delivered = 0.0
        self.delivered_per_stream: Dict[str, float] = {}
        self.stream_start_times: Dict[str, float] = {}

    # -- admission --------------------------------------------------------

    def request_stream(
        self,
        name: str,
        units: Sequence[TransferUnit],
        front: bool = False,
    ) -> Stream:
        """Admit a stream; it activates now or queues for a slot.

        Args:
            name: Stream label.
            units: Units, delivered strictly in order.
            front: Jump the waiting queue (demand-fetch correction).
        """
        stream = Stream(name=name, units=deque(units))
        if stream.done:
            raise TransferError(f"stream {name!r} has no units")
        for unit in units:
            if unit in self._known_units:
                raise TransferError(
                    f"duplicate transfer unit in stream {name!r}: "
                    f"{unit} (units must be distinct values; the plan "
                    "builders guarantee this)"
                )
            self._known_units.add(unit)
        if self._has_slot():
            self._activate(stream)
        elif front:
            self.waiting.appendleft(stream)
        else:
            self.waiting.append(stream)
        return stream

    def promote(self, stream: Stream) -> None:
        """Move a waiting stream to the front of the queue."""
        if stream in self.waiting:
            self.waiting.remove(stream)
            self.waiting.appendleft(stream)

    def _has_slot(self) -> bool:
        return self.max_streams is None or len(self.active) < (
            self.max_streams
        )

    def _activate(self, stream: Stream) -> None:
        stream.started = True
        self.stream_start_times.setdefault(stream.name, self.time)
        self.active.append(stream)

    def _admit_waiting(self) -> None:
        while self.waiting and self._has_slot():
            self._activate(self.waiting.popleft())

    # -- queries ----------------------------------------------------------

    def arrived(self, unit: TransferUnit) -> bool:
        return unit in self.arrival_times

    def arrival_time(self, unit: TransferUnit) -> float:
        try:
            return self.arrival_times[unit]
        except KeyError as exc:
            raise TransferError(f"unit has not arrived: {unit}") from exc

    @property
    def idle(self) -> bool:
        return not self.active and not self.waiting

    @property
    def remaining_bytes(self) -> float:
        pending = sum(stream.remaining_bytes for stream in self.active)
        queued = sum(stream.remaining_bytes for stream in self.waiting)
        return pending + queued

    # -- time advancement -------------------------------------------------

    def _next_completion_dt(self) -> Optional[float]:
        """Cycles until the earliest current-unit completion."""
        if not self.active:
            return None
        share = len(self.active)
        min_remaining = min(
            stream.remaining_in_unit for stream in self.active
        )
        return min_remaining * self.link.cycles_per_byte * share

    def _deliver(self, dt: float) -> None:
        """Push ``dt`` cycles of bytes through the active streams."""
        if dt <= 0 or not self.active:
            return
        per_stream_bytes = (
            dt * self.link.bytes_per_cycle / len(self.active)
        )
        for stream in self.active:
            stream.remaining_in_unit -= per_stream_bytes
            stream.delivered_bytes += per_stream_bytes
            self.total_delivered += per_stream_bytes
            self.delivered_per_stream[stream.name] = (
                self.delivered_per_stream.get(stream.name, 0.0)
                + per_stream_bytes
            )

    def _complete_units(self) -> None:
        finished: List[Stream] = []
        for stream in self.active:
            while (
                stream.units
                and stream.remaining_in_unit <= _EPSILON
            ):
                unit = stream.units.popleft()
                self.arrival_times[unit] = self.time
                if stream.units:
                    # Carry sub-epsilon residue into the next unit.
                    stream.remaining_in_unit += float(
                        stream.units[0].size
                    )
                else:
                    stream.remaining_in_unit = 0.0
                    finished.append(stream)
        for stream in finished:
            self.active.remove(stream)
        if finished:
            self._admit_waiting()

    def _step(self, step_to: float) -> None:
        """Advance to ``step_to``, delivering bytes and completing units.

        If float resolution at large times swallows the step (``step_to``
        rounds to the current time), the nearest completion is snapped to
        done so the simulation always makes progress.
        """
        if step_to <= self.time and self.active:
            min_remaining = min(
                stream.remaining_in_unit for stream in self.active
            )
            for stream in self.active:
                if stream.remaining_in_unit <= min_remaining:
                    stream.delivered_bytes += stream.remaining_in_unit
                    self.total_delivered += stream.remaining_in_unit
                    self.delivered_per_stream[stream.name] = (
                        self.delivered_per_stream.get(stream.name, 0.0)
                        + stream.remaining_in_unit
                    )
                    stream.remaining_in_unit = 0.0
        else:
            self._deliver(step_to - self.time)
            self.time = max(self.time, step_to)
        self._complete_units()

    def next_event_dt(self) -> Optional[float]:
        """Cycles until this engine's earliest unit completion, if any.

        Public counterpart of the internal completion query, used by
        multi-link facades (:mod:`repro.sched`) that advance several
        engines in lockstep to the globally earliest event boundary.
        """
        return self._next_completion_dt()

    def advance(self, step_to: float) -> None:
        """Take exactly one bounded step to ``step_to``.

        ``step_to`` must not lie beyond this engine's next completion
        boundary (callers computing a global minimum over several
        engines guarantee this).  A ``step_to`` at or before the
        current time snaps the nearest completion to done, exactly as
        :meth:`run_until` does when float resolution swallows a step.
        """
        self._step(step_to)

    def run_until(self, target_time: float) -> None:
        """Advance the engine to ``target_time`` (absolute cycles)."""
        if target_time < self.time - _EPSILON:
            raise TransferError(
                f"cannot run backwards: {target_time} < {self.time}"
            )
        while self.time < target_time:
            step_to = target_time
            completion_dt = self._next_completion_dt()
            if completion_dt is not None:
                step_to = min(step_to, self.time + completion_dt)
            self._step(step_to)

    def run_until_unit(self, unit: TransferUnit) -> float:
        """Advance until ``unit`` arrives; return its arrival time.

        Raises:
            TransferError: If the engine goes idle first (the unit was
                never requested — a scheduling bug).
        """
        while not self.arrived(unit):
            completion_dt = self._next_completion_dt()
            if completion_dt is None:
                raise TransferError(
                    f"engine idle but unit never arrived: {unit}"
                )
            self._step(self.time + completion_dt)
        return self.arrival_times[unit]
