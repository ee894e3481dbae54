"""The event-batched co-simulation core: the fast loop behind ``Simulator.run``.

The reference loop (:meth:`~repro.core.simulation.Simulator.run_reference`)
walks the trace segment by segment through layered abstractions —
controller callbacks, a scoreboard, an issue engine, per-event
attribute lookups.  That is the right shape for exposition but pays
Python overhead on every one of the millions of micro-steps a parameter
sweep takes.

This module rebuilds the same co-simulation as a *run-to-next-event*
loop over flat lists:

* the trace is **precompiled** once per run into per-segment execution
  costs and first-use markers with their resolved transfer units;
* one **processor-sharing core** replays the controller's stream
  grains (:attr:`~repro.sched.StripedController.stream_grains`) on its
  one link, inlining the :class:`~repro.transfer.streams.StreamEngine`
  step, completion and snap rules and the scoreboard's watermark
  releases into local-variable arithmetic.  A stall demand-fetches the
  stalled class's grain, or promotes its queued stream; a
  single-grain policy's grain is already running, so there a stall
  only waits.

:meth:`Simulator.run` sends a run here whenever its controller issues
stream grains on one link
(:func:`~repro.core.simulation.resolve_engine`).  The core keeps every
piece of per-run state locally and never mutates the controller, and it
builds no scoreboard or issue engine.  A recorded run emits the
reference loop's event stream, in the same order and through the same
payload code: ``unit_issued`` and ``schedule_decision`` where a grain is
requested or promoted, ``link_busy`` where a stream's last unit lands,
the stall, first-invocation and arrival events through the shared
:class:`~repro.core.simulation.RunObserver`.  Recorder checks stay out
of the per-step delivery loop.

Fidelity contract: the core performs *bit-for-bit the same float
operations in the same order* as the reference loop, so
``total_cycles``, every stall, and every per-method first-invocation
latency are exactly equal — property-tested in
``tests/core/test_fastsim.py`` across all six workloads, both
methodologies, and both orderings, plus data partitioning, strict,
eager starts, block delimiters and compressed plans.  Watermark
releases are the one place the core does *less* work.  They are
byte-monotone, so a scan is skipped until enough bytes have flowed
for some pending trigger to fire (the skipped scans are exactly the
ones the reference evaluates all-False).  And every grain's watermark
classes are a prefix of the controller's
:attr:`~repro.sched.StripedController.watermark_order`, so a scan
sums deliveries along that order once and each pending grain reads
its own prefix: O(classes) per scan, where the reference re-sums each
grain's classes, and the same float additions in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from ..errors import TransferError
from ..program import MethodId
from ..sched.engine import link_label, record_busy, record_issue
from ..sched.scoreboard import WATERMARK_SLOP
from ..sched.striped import record_demand
from ..transfer.units import TransferUnit
from .simulation import RunObserver, SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from ..sched import StreamGrain, StripedController
    from ..vm import ExecutionTrace
    from .simulation import Simulator

__all__ = ["compile_trace", "run_batched"]

#: Matches ``repro.transfer.streams._EPSILON``.
_EPSILON = 1e-6

#: Slack (bytes) subtracted from deferred release-trigger gaps so float
#: noise in the recomputed dependency sums can never postpone a check
#: past the boundary where the reference engine would admit the stream.
_RELEASE_SLACK = 1e-3

_INF = float("inf")


class CompiledTrace:
    """Per-segment lists for one (trace, controller) pair.

    Attributes:
        costs: Per-segment execution cost in cycles
            (``instructions × CPI``, the exact float the reference
            computes per segment).
        first_use: Aligned with ``costs``; ``None`` for repeat
            segments, ``(method, required_unit)`` on each method's
            first segment — the only segments that can stall.
    """

    __slots__ = ("costs", "first_use")

    def __init__(
        self,
        costs: List[float],
        first_use: List[Optional[Tuple[MethodId, TransferUnit]]],
    ) -> None:
        self.costs = costs
        self.first_use = first_use


def compile_trace(
    trace: "ExecutionTrace",
    controller: "StripedController",
    cpi: float,
) -> CompiledTrace:
    """Flatten a trace into the batched core's per-segment lists.

    Each cost is the same ``int × float`` product the reference loop
    computes per segment, so the floats are identical.
    """
    segments = trace.segments
    cpi = float(cpi)
    costs = [segment.instructions * cpi for segment in segments]
    first_use: List[Optional[Tuple[MethodId, TransferUnit]]] = (
        [None] * len(segments)
    )
    seen: Set[MethodId] = set()
    required_unit = controller.required_unit
    for index, segment in enumerate(segments):
        method = segment.method
        if method not in seen:
            seen.add(method)
            first_use[index] = (method, required_unit(method))
    return CompiledTrace(costs, first_use)


class _FastStream:
    """One requested grain: a flat mirror of
    :class:`repro.transfer.streams.Stream`."""

    __slots__ = (
        "label",
        "units",
        "count",
        "index",
        "remaining",
        "delivered",
        "started",
        "issued_at",
    )

    def __init__(self, grain: "StreamGrain", issued_at: float) -> None:
        if not grain.units:
            raise TransferError(f"stream {grain.label!r} has no units")
        self.label = grain.label
        self.units = grain.units
        self.count = len(grain.units)
        self.index = 0  # the unit on the wire
        self.remaining = float(grain.units[0].size)  # of that unit
        self.delivered = 0.0
        self.started = False
        self.issued_at = issued_at

    def remaining_bytes(self) -> float:
        later = sum(unit.size for unit in self.units[self.index + 1:])
        return self.remaining + later


def run_batched(simulator: "Simulator") -> SimulationResult:
    """Replay one run's trace against its controller's stream grains.

    Per-run state (pending grains, streams, demand fetches) is kept
    locally, so the controller itself is never mutated.
    """
    controller = simulator.controller
    recorder = simulator.recorder
    compiled = compile_trace(simulator.trace, controller, simulator.cpi)
    link = controller.links[0]
    channel = link_label(0, link)
    cycles_per_byte = link.cycles_per_byte
    bytes_per_cycle = link.bytes_per_cycle
    max_streams = controller.max_streams

    #: Grains not yet requested, in issue order.
    pending: Dict[str, "StreamGrain"] = {
        grain.label: grain for grain in controller.stream_grains
    }
    #: Each grain's watermark counts a prefix of these labels.
    watermark_order = controller.watermark_order
    streams: Dict[str, _FastStream] = {}
    active: List[_FastStream] = []
    waiting: Deque[_FastStream] = deque()
    arrivals: Dict[TransferUnit, float] = {}
    demand_fetches: Set[MethodId] = set()

    engine_time = 0.0
    total_delivered = 0.0
    # Total-delivered level below which no pending watermark can
    # possibly be reached (set by each full scan).
    scan_floor = 0.0

    def request(grain: "StreamGrain", front: bool) -> None:
        """Put a grain on the link; ``front`` marks a demand fetch."""
        stream = _FastStream(grain, engine_time)
        streams[grain.label] = stream
        if max_streams is None or len(active) < max_streams:
            stream.started = True
            active.append(stream)
        elif front:
            waiting.appendleft(stream)
        else:
            waiting.append(stream)
        if recorder is not None:
            record_issue(
                recorder, engine_time, grain.label, grain.units, channel, front
            )
            controller.record_decision(
                recorder, engine_time, grain.label, grain.units, front
            )

    def release() -> None:
        """The scoreboard's watermark releases, byte-monotone deferred.

        Evaluates exactly the reference's trigger condition, but is
        called only once total delivered bytes have crossed
        ``scan_floor`` — the level below which *no* pending trigger can
        have fired since the last full scan (a trigger's dependency
        byte sum grows no faster than the total, and the floor keeps a
        slack margin well above accumulated float rounding).  Every
        skipped scan is one the reference evaluates all-False.

        ``delivered_through[k]`` is what the first ``k`` labels of
        ``watermark_order`` have delivered, summed in order from 0.0,
        so a grain reads the very float the reference sums over its
        watermark classes.
        """
        nonlocal scan_floor
        delivered_through = [0.0]
        running = 0.0
        for label in watermark_order:
            stream = streams.get(label)
            if stream is not None:
                running += stream.delivered
            delivered_through.append(running)
        due: List["StreamGrain"] = []
        min_need = _INF
        for grain in pending.values():
            delivered = delivered_through[grain.watermark_count]
            if grain.watermark_bytes <= delivered + WATERMARK_SLOP:
                due.append(grain)
            else:
                need = grain.watermark_bytes - delivered - WATERMARK_SLOP
                if need < min_need:
                    min_need = need
        scan_floor = total_delivered + min_need - _RELEASE_SLACK
        for grain in due:
            del pending[grain.label]
            request(grain, False)

    def step(limit: float) -> None:
        """One bounded engine step toward ``limit``: deliver to the
        nearest unit completion or ``limit``, complete, admit,
        release."""
        nonlocal engine_time, total_delivered
        count = len(active)
        if not count:
            if limit > engine_time:
                engine_time = limit
        else:
            floor = active[0].remaining
            if count > 1:
                for stream in active:
                    if stream.remaining < floor:
                        floor = stream.remaining
            step_to = engine_time + floor * cycles_per_byte * count
            if limit < step_to:
                step_to = limit
            if step_to <= engine_time:
                # Float resolution swallowed the step: snap the nearest
                # completion to done (reference `_step`).
                for stream in active:
                    if stream.remaining <= floor:
                        total_delivered += stream.remaining
                        stream.delivered += stream.remaining
                        stream.remaining = 0.0
                floor = 0.0
            else:
                share = (step_to - engine_time) * bytes_per_cycle / count
                # Delivered bytes are read only by watermark releases,
                # and no grain is pending again once none is.
                watched = bool(pending)
                for stream in active:
                    stream.remaining -= share
                    if watched:
                        stream.delivered += share
                    total_delivered += share
                engine_time = step_to
                # The floor stream's new remaining, bit for bit; no other
                # stream's can be lower (IEEE subtraction is monotone).
                floor -= share
            if floor <= _EPSILON:
                finished: List[_FastStream] = []
                for stream in active:
                    while stream.remaining <= _EPSILON:
                        arrivals[stream.units[stream.index]] = engine_time
                        stream.index += 1
                        if stream.index < stream.count:
                            stream.remaining += float(
                                stream.units[stream.index].size
                            )
                        else:
                            stream.remaining = 0.0
                            finished.append(stream)
                            break
                if finished:
                    for stream in finished:
                        active.remove(stream)
                        if recorder is not None:
                            record_busy(
                                recorder,
                                stream.issued_at,
                                engine_time,
                                channel,
                                stream.label,
                            )
                    while waiting and (
                        max_streams is None or len(active) < max_streams
                    ):
                        stream = waiting.popleft()
                        stream.started = True
                        active.append(stream)
        if pending and total_delivered >= scan_floor:
            release()

    # controller.start(): release whatever is due at byte zero.
    release()

    time = 0.0
    observer = RunObserver(simulator)
    first_invoke = observer.first_invoke

    for cost, pair in zip(compiled.costs, compiled.first_use):
        if pair is not None:
            method, unit = pair
            if unit not in arrivals:
                # on_stall: demand-fetch the class's grain at the queue
                # front, or promote its queued stream.  A single-grain
                # policy labels no grain by class: its one grain runs.
                class_name = method.class_name
                grain = pending.pop(class_name, None)
                if grain is not None:
                    demand_fetches.add(method)
                    if recorder is not None:
                        record_demand(recorder, engine_time, method)
                    request(grain, True)
                else:
                    stream = streams.get(class_name)
                    if stream is not None and not stream.started:
                        demand_fetches.add(method)
                        waiting.remove(stream)
                        waiting.appendleft(stream)
                        if recorder is not None:
                            record_demand(
                                recorder, engine_time, method, promoted=True
                            )
                observer.stall_begin(method, time)
                # run_until_unit: completion-to-completion steps.
                while unit not in arrivals:
                    if not active:
                        raise TransferError(
                            f"engine idle but unit never arrived: {unit}"
                        )
                    step(_INF)
                time = observer.stall_end(method, time, arrivals[unit])
            first_invoke(method, time, method in demand_fetches)
        time = time + cost
        while engine_time < time:
            step(time)

    bytes_terminated = sum(
        stream.remaining_bytes() for stream in active
    ) + sum(stream.remaining_bytes() for stream in waiting)
    return observer.result(
        total_cycles=time,
        bytes_delivered=total_delivered,
        bytes_terminated=bytes_terminated,
        arrivals=arrivals,
        engine="batched",
    )
