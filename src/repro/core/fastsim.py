"""The co-simulation core behind ``Simulator.run``: every policy, any link count.

The core is tested, bit for bit, against a readable per-segment oracle
loop kept with the tests (``tests/oracles/simulation_reference.py``).
That loop drives controller callbacks, a scoreboard and an issue engine
of one stream engine per link, advanced in lockstep.  It is the right
shape for exposition, but it pays Python overhead on every one of the
millions of micro-steps a parameter sweep takes.

This module runs the same co-simulation as a *run-to-next-event* loop
over flat lists:

* the trace is **precompiled** once per run into per-segment execution
  costs and first-use markers with their resolved transfer units;
* each link is a **lane**: the streams on its wire, the streams queued
  for one of its slots, and every byte it has pushed.  One step moves
  every busy lane to the run's next event boundary: the nearest unit
  completion on any lane, a scheduled link outage, or the end of the
  executing segment;
* **stream grains** (the controller's
  :attr:`~repro.sched.StripedController.stream_grains`: strict,
  parallel, one-link interleaved) share their lane's bandwidth, at
  most ``max_streams`` at a time per lane.  A grain is given the least
  loaded lane when it is issued.  A stall demand-fetches the stalled
  class's grain at the queue front, or promotes its queued stream; a
  single-grain policy's grain is already running, so there a stall
  only waits;
* on the **unit grain** (``round_robin``, and ``interleaved`` on
  several links) each lane carries one unit at a time, and the
  policy's link choice picks among the idle lanes.  Escalation, retire
  hazards and outage requeue go through a
  :func:`~repro.sched.unit_grain_scoreboard`, the hazard rule the
  pull-mode fetch client shares; the core owns only the lanes and the
  clock.

The core keeps every piece of per-run state locally and never mutates
the controller.  A recorded run emits the oracle's event stream, in the
same order and through the same payload code: ``unit_issued`` and
``schedule_decision`` where a grain is put on a lane or promoted,
``link_busy`` where a grain's last unit lands, ``stripe_rebalance`` on
an escalation or an outage, the stall, first-invocation and arrival
events through the shared :class:`~repro.core.simulation.RunObserver`.
Recorder checks stay out of the per-step delivery loop.

Fidelity contract: the core performs *bit-for-bit the same float
operations in the same order* as the oracle, so ``total_cycles``, every
stall, and every per-method first-invocation latency are exactly equal
— property-tested in ``tests/core/test_fastsim.py`` across all six
workloads, every policy, one to four links, outages and escalation.
Watermark releases are the one place the core does *less* work.  No
grain's watermark bytes can grow faster than every lane together
delivers, so a scan is skipped until the clock has passed the earliest
time some pending trigger could fire (the skipped scans are exactly the
ones the oracle evaluates all-False).  And every grain's watermark
classes are a prefix of the controller's
:attr:`~repro.sched.StripedController.watermark_order`, and each class's
stream runs on one lane, so a scan sums deliveries along that order
once and each pending grain reads its own prefix: O(classes) per scan,
where the oracle re-sums each grain's classes on every link, and the
same float additions in the same order.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ..errors import TransferError
from ..program import MethodId
from ..sched.scoreboard import unit_grain_scoreboard
from ..sched.striped import (
    WATERMARK_SLOP,
    link_label,
    record_busy,
    record_demand,
    record_issue,
)
from ..transfer.units import TransferUnit
from .simulation import RunObserver, SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from ..sched import IssueItem, StreamGrain, StripedController
    from ..observe import TraceRecorder
    from ..transfer import NetworkLink
    from ..vm import ExecutionTrace
    from .simulation import Simulator

__all__ = [
    "TransferMachine",
    "compile_trace",
    "run_batched",
    "transfer_machine",
]

#: Bytes of a unit left on the wire below which it counts as landed:
#: the float residue of the per-step byte shares.  A landing carries
#: the residue into the stream's next unit.
_EPSILON = 1e-6

#: Slack (bytes) taken off the deferred release-trigger gaps so float
#: noise in the recomputed dependency sums can never postpone a check
#: past the boundary where the oracle would admit the stream.
_RELEASE_SLACK = 1e-3

_INF = float("inf")


class CompiledTrace:
    """Per-segment lists for one (trace, controller) pair.

    Attributes:
        costs: Per-segment execution cost in cycles
            (``instructions × CPI``, the exact float the oracle
            computes per segment).
        first_use: Aligned with ``costs``; ``None`` for repeat
            segments, ``(method, required_unit)`` on each method's
            first segment — the only segments that can stall.
        instructions: The trace's total instruction count, summed in
            the same pass.
    """

    __slots__ = ("costs", "first_use", "instructions")

    def __init__(
        self,
        costs: List[float],
        first_use: List[Optional[Tuple[MethodId, TransferUnit]]],
        instructions: int,
    ) -> None:
        self.costs = costs
        self.first_use = first_use
        self.instructions = instructions


def compile_trace(
    trace: "ExecutionTrace",
    controller: "StripedController",
    cpi: float,
) -> CompiledTrace:
    """Flatten a trace into the core's per-segment lists.

    Each cost is the same ``int × float`` product the oracle computes
    per segment, so the floats are identical.
    """
    segments = trace.segments
    cpi = float(cpi)
    counts = [segment.instructions for segment in segments]
    costs = [count * cpi for count in counts]
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
    return CompiledTrace(costs, first_use, sum(counts))


class _Lane:
    """One link of a run: its streams on the wire, the streams queued
    for one of its slots, and every byte it has pushed."""

    __slots__ = (
        "index",
        "label",
        "cycles_per_byte",
        "bytes_per_cycle",
        "active",
        "waiting",
        "delivered",
        "floor",
        "alive",
    )

    def __init__(self, index: int, link: "NetworkLink") -> None:
        self.index = index
        self.label = link_label(index, link)
        self.cycles_per_byte = link.cycles_per_byte
        self.bytes_per_cycle = link.bytes_per_cycle
        self.active: List[_FastStream] = []
        self.waiting: Deque[_FastStream] = deque()
        self.delivered = 0.0
        #: Between steps: the least ``remaining`` among ``active``.
        self.floor = 0.0
        self.alive = True

    def remaining_bytes(self) -> float:
        pending = sum(stream.remaining_bytes() for stream in self.active)
        queued = sum(stream.remaining_bytes() for stream in self.waiting)
        return pending + queued


class _FastStream:
    """One issued grain on its lane: its units in order, the unit on
    the wire and the bytes that unit still needs."""

    __slots__ = (
        "label",
        "units",
        "count",
        "index",
        "remaining",
        "delivered",
        "started",
        "issued_at",
        "lane",
    )

    def __init__(
        self,
        grain: "StreamGrain | IssueItem",
        issued_at: float,
        lane: _Lane,
    ) -> None:
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
        self.lane = lane

    def remaining_bytes(self) -> float:
        later = sum(unit.size for unit in self.units[self.index + 1:])
        return self.remaining + later


class TransferMachine(NamedTuple):
    """One run's transfer side, as a segment loop drives it."""

    #: Unit → the cycle execution may use it (its retire time).
    arrivals: Dict[TransferUnit, float]
    #: Methods whose stall issued, promoted or escalated transfer.
    demand_fetches: Set[MethodId]
    #: Advance to the next boundary toward a limit; returns the clock.
    step: Callable[[float], float]
    #: Correct a stall on ``(method, unit)`` before the wait.
    correct: Callable[[MethodId, TransferUnit], None]
    #: Advance until a unit arrives; returns the clock.
    wait: Callable[[TransferUnit], float]
    #: The run's links, in link order.
    lanes: List[_Lane]


def run_batched(simulator: "Simulator") -> SimulationResult:
    """Replay one run's trace against its controller's links.

    Per-run state (lanes, streams, the scoreboard, demand fetches) is
    kept locally, so the controller itself is never mutated.
    """
    controller = simulator.controller
    compiled = compile_trace(simulator.trace, controller, simulator.cpi)
    machine = transfer_machine(controller, simulator.recorder)
    arrivals, demand_fetches, step, correct, wait, lanes = machine

    time = clock = 0.0
    observer = RunObserver(simulator)
    first_invoke = observer.first_invoke

    for cost, pair in zip(compiled.costs, compiled.first_use):
        if pair is not None:
            method, unit = pair
            if unit not in arrivals:
                correct(method, unit)
                observer.stall_begin(method, time)
                clock = wait(unit)
                time = observer.stall_end(method, time, arrivals[unit])
            first_invoke(method, time, method in demand_fetches)
        time = time + cost
        while clock < time:
            clock = step(time)

    return observer.result(
        total_cycles=time,
        instructions=compiled.instructions,
        bytes_delivered=sum(lane.delivered for lane in lanes),
        bytes_terminated=sum(
            lane.remaining_bytes() for lane in lanes if lane.alive
        ),
        arrivals=arrivals,
    )


def transfer_machine(
    controller: "StripedController",
    recorder: Optional["TraceRecorder"] = None,
) -> TransferMachine:
    """A fresh run of ``controller``'s links, with what is ready at
    time zero already issued: stream grains share each lane, the unit
    grain carries one unit per lane."""
    grains = _stream_grains if controller.grain == "stream" else _unit_grains
    return grains(controller, recorder)


def _least_loaded(lane: _Lane) -> Tuple[float, int]:
    return (lane.remaining_bytes(), lane.index)


def _stream_grains(
    controller: "StripedController", recorder: Optional["TraceRecorder"]
) -> TransferMachine:
    """Stream grains on every lane, processor-shared per lane."""
    lanes = [_Lane(index, link) for index, link in enumerate(controller.links)]
    max_streams = controller.max_streams
    #: Grains not yet requested, in issue order.
    pending: Dict[str, "StreamGrain"] = {
        grain.label: grain for grain in controller.stream_grains
    }
    #: Each grain's watermark counts a prefix of these labels.
    watermark_order = controller.watermark_order
    #: Parallel labels its grains by class, so a stall can demand one.
    demand = controller.schedule is not None
    #: Bytes per cycle of every lane together: no watermark's bytes
    #: grow faster.
    rate = sum(lane.bytes_per_cycle for lane in lanes)
    streams: Dict[str, _FastStream] = {}
    arrivals: Dict[TransferUnit, float] = {}
    demand_fetches: Set[MethodId] = set()

    clock = 0.0
    # Clock before which no pending watermark can possibly be reached
    # (set by each full scan).
    scan_at = 0.0
    # The next unit completion on any lane (inf when all are idle).
    soonest = _INF

    def next_at(lane: _Lane) -> float:
        """The clock at which the lane's floor stream completes, as the
        oracle computes it at the start of each step."""
        active = lane.active
        if active:
            return clock + lane.floor * lane.cycles_per_byte * len(active)
        return _INF

    def request(grain: "StreamGrain", front: bool) -> None:
        """Put a grain on a lane; ``front`` marks a demand fetch."""
        nonlocal soonest
        lane = lanes[0] if len(lanes) == 1 else min(lanes, key=_least_loaded)
        stream = _FastStream(grain, clock, lane)
        streams[grain.label] = stream
        active = lane.active
        if max_streams is None or len(active) < max_streams:
            if not active or stream.remaining < lane.floor:
                lane.floor = stream.remaining
            stream.started = True
            active.append(stream)
            soonest = min(map(next_at, lanes))
        elif front:
            lane.waiting.appendleft(stream)
        else:
            lane.waiting.append(stream)
        if recorder is not None:
            record_issue(
                recorder, clock, grain.label, grain.units, lane.label, front
            )
            controller.record_decision(
                recorder, clock, grain.label, grain.units, front
            )

    def release() -> None:
        """The scoreboard's watermark releases, deferred by the clock.

        Evaluates exactly the oracle's trigger condition, but is called
        only once the clock has reached ``scan_at``: the time before
        which *no* pending trigger can have fired since the last full
        scan, since a trigger's dependency bytes grow no faster than
        every lane together delivers (and ``scan_at`` keeps a slack
        margin well above accumulated float rounding).  Every skipped
        scan is one the oracle evaluates all-False.

        ``delivered_through[k]`` is what the first ``k`` labels of
        ``watermark_order`` have delivered, summed in order from 0.0,
        so a grain reads the very float the oracle sums over its
        watermark classes.
        """
        nonlocal scan_at
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
        scan_at = clock + (min_need - _RELEASE_SLACK) / rate
        for grain in due:
            del pending[grain.label]
            request(grain, False)

    def land(lane: _Lane) -> float:
        """Complete the lane's landed units, retire its finished
        streams and admit queued ones to the freed slots; returns the
        lane's next completion."""
        active = lane.active
        finished: List[_FastStream] = []
        floor = _INF
        for stream in active:
            while stream.remaining <= _EPSILON:
                arrivals[stream.units[stream.index]] = clock
                stream.index += 1
                if stream.index < stream.count:
                    stream.remaining += float(stream.units[stream.index].size)
                else:
                    stream.remaining = 0.0
                    finished.append(stream)
                    break
            else:
                if stream.remaining < floor:
                    floor = stream.remaining
        if finished:
            for stream in finished:
                active.remove(stream)
                if recorder is not None:
                    record_busy(
                        recorder, stream.issued_at, clock, lane.label, stream.label
                    )
            waiting = lane.waiting
            while waiting and (max_streams is None or len(active) < max_streams):
                stream = waiting.popleft()
                stream.started = True
                active.append(stream)
                if stream.remaining < floor:
                    floor = stream.remaining
        if active:
            lane.floor = floor
            return clock + floor * lane.cycles_per_byte * len(active)
        return _INF

    def step(limit: float) -> float:
        """One bounded step toward ``limit``: every busy lane delivers
        to the nearest unit completion on any lane or ``limit``, then
        completes, admits and releases."""
        nonlocal clock, scan_at, soonest
        step_to = soonest if soonest < limit else limit
        if step_to > clock:
            elapsed = step_to - clock
            clock = step_to
            # Delivered bytes are read only by watermark releases, and
            # no grain is pending again once none is.
            watched = pending
            soonest = _INF
            for lane in lanes:
                active = lane.active
                if active:
                    count = len(active)
                    share = elapsed * lane.bytes_per_cycle / count
                    if count == 1:
                        # Every strict and interleaved step: no loop.
                        stream = active[0]
                        stream.remaining -= share
                        if watched:
                            stream.delivered += share
                        lane.delivered += share
                    else:
                        delivered = lane.delivered
                        for stream in active:
                            stream.remaining -= share
                            if watched:
                                stream.delivered += share
                            delivered += share
                        lane.delivered = delivered
                    # The floor stream's new remaining, bit for bit; no
                    # other stream's can be lower (IEEE subtraction is
                    # monotone).
                    floor = lane.floor - share
                    if floor <= _EPSILON:
                        at = land(lane)
                    else:
                        lane.floor = floor
                        at = clock + floor * lane.cycles_per_byte * count
                    if at < soonest:
                        soonest = at
        else:
            # Float resolution swallowed the step: snap the nearest
            # completion of each lane whose own step it was to done
            # (the oracle's `_step`).
            for lane in lanes:
                if next_at(lane) <= step_to:
                    floor = lane.floor
                    for stream in lane.active:
                        if stream.remaining <= floor:
                            lane.delivered += stream.remaining
                            stream.delivered += stream.remaining
                            stream.remaining = 0.0
                    land(lane)
            soonest = min(map(next_at, lanes))
            # Bytes moved without the clock: scan at once.
            scan_at = clock
        if pending:
            if clock >= scan_at:
                release()
        elif soonest == _INF:
            # Every grain has landed: no event is left, so the segment
            # loop need not step again.
            return _INF
        return clock

    def correct(method: MethodId, unit: TransferUnit) -> None:
        """Demand-fetch the class's grain at the queue front, or
        promote its queued stream."""
        if not demand:
            return
        class_name = method.class_name
        grain = pending.pop(class_name, None)
        if grain is not None:
            demand_fetches.add(method)
            if recorder is not None:
                record_demand(recorder, clock, method)
            request(grain, True)
            return
        stream = streams.get(class_name)
        if stream is not None and not stream.started:
            demand_fetches.add(method)
            waiting = stream.lane.waiting
            waiting.remove(stream)
            waiting.appendleft(stream)
            if recorder is not None:
                record_demand(recorder, clock, method, promoted=True)

    def wait(unit: TransferUnit) -> float:
        """Completion-to-completion steps until ``unit`` lands."""
        while unit not in arrivals:
            if soonest == _INF:
                raise TransferError(
                    f"engine idle but unit never arrived: {unit}"
                )
            step(_INF)
        return clock

    # Release whatever is due at byte zero.
    release()
    return TransferMachine(arrivals, demand_fetches, step, correct, wait, lanes)


def _unit_grains(
    controller: "StripedController", recorder: Optional["TraceRecorder"]
) -> TransferMachine:
    """One unit per idle lane, out of order, with retire hazards."""
    lanes = [_Lane(index, link) for index, link in enumerate(controller.links)]
    outages = sorted(controller.outages, key=lambda outage: outage.at_cycles)
    board = unit_grain_scoreboard(controller.sequence)
    round_robin = controller.link_choice == "round_robin"
    escalate = controller.escalate
    arrivals: Dict[TransferUnit, float] = {}
    demand_fetches: Set[MethodId] = set()

    clock = 0.0
    cursor = 0  # round_robin: the lane to try first

    def choose(item: "IssueItem", free: List[_Lane]) -> _Lane:
        """The policy's pick among the idle lanes."""
        nonlocal cursor
        if len(free) == 1:
            return free[0]
        if not round_robin:
            # earliest_finish: the lane that lands this grain first.
            size = item.size
            return min(
                free, key=lambda lane: (size * lane.cycles_per_byte, lane.index)
            )
        # The first idle lane at or after the cursor, cyclically.
        count = len(lanes)
        lane = min(free, key=lambda lane: (lane.index - cursor) % count)
        cursor = lane.index + 1
        return lane

    def dispatch() -> None:
        """Issue the best ready units to the idle live lanes."""
        free = [lane for lane in lanes if lane.alive and not lane.active]
        if not free:
            return
        for item in board.ready_items():
            if not free:
                break
            lane = choose(item, free)
            free.remove(lane)
            stream = _FastStream(item, clock, lane)
            stream.started = True
            lane.active.append(stream)
            board.mark_issued(item.label, lane.index, clock)
            if recorder is not None:
                record_issue(
                    recorder,
                    clock,
                    item.label,
                    item.units,
                    lane.label,
                    item.escalated,
                )

    def land(lane: _Lane, stream: _FastStream) -> None:
        """The lane's unit landed: retire what it unblocks."""
        lane.active.clear()
        for retired, retire_time in board.mark_landed(stream.units[0], clock):
            arrivals[retired] = retire_time
        if recorder is not None:
            record_busy(recorder, stream.issued_at, clock, lane.label, stream.label)

    def lose_links() -> None:
        """Kill every lane whose outage is due; requeue its unit."""
        while outages and outages[0].at_cycles <= clock:
            lane = lanes[outages.pop(0).link_index]
            if not lane.alive:
                continue
            lane.alive = False
            if not any(other.alive for other in lanes):
                raise TransferError(
                    "all links are down: transfer cannot complete"
                )
            for stream in lane.active:
                board.requeue(stream.label, stream.units)
            requeued = len(lane.active)
            lane.active.clear()
            if recorder is not None:
                recorder.stripe_rebalance(
                    clock, reason="link_outage", link=lane.label, requeued=requeued
                )
            dispatch()

    def step(limit: float) -> float:
        """One boundary toward ``limit``: the nearest landing on any
        lane, the next outage, or ``limit``."""
        nonlocal clock
        lose_links()
        step_to = limit
        for lane in lanes:
            if lane.active:
                at = clock + lane.active[0].remaining * lane.cycles_per_byte
                if at < step_to:
                    step_to = at
        if outages:
            at = outages[0].at_cycles
            if clock < at < step_to:
                step_to = at
        if step_to > clock:
            elapsed = step_to - clock
            clock = step_to
            for lane in lanes:
                if lane.active:
                    stream = lane.active[0]
                    share = elapsed * lane.bytes_per_cycle
                    stream.remaining -= share
                    lane.delivered += share
                    if stream.remaining <= _EPSILON:
                        land(lane, stream)
        else:
            # Float resolution swallowed the step: snap each lane whose
            # own landing it was.
            for lane in lanes:
                if lane.active:
                    stream = lane.active[0]
                    if (
                        clock + stream.remaining * lane.cycles_per_byte
                        <= step_to
                    ):
                        lane.delivered += stream.remaining
                        stream.remaining = 0.0
                        land(lane, stream)
        lose_links()
        dispatch()
        return clock

    def correct(method: MethodId, unit: TransferUnit) -> None:
        """Hazard-priority escalation: the unit, then its retire
        hazards, jump to the top of the next arbitration round."""
        if not escalate:
            return
        escalated = [
            needed
            for needed in (unit, *board.unit_deps(unit))
            if board.escalate(board.label_of(needed))
        ]
        if not escalated:
            return
        demand_fetches.add(method)
        if recorder is not None:
            record_demand(recorder, clock, method)
            recorder.stripe_rebalance(
                clock,
                reason="demand_escalation",
                method=str(method),
                items=len(escalated),
            )
        dispatch()

    def wait(unit: TransferUnit) -> float:
        """Boundary by boundary until ``unit`` retires."""
        while unit not in arrivals:
            lose_links()
            if not any(lane.active for lane in lanes):
                dispatch()
                if not any(lane.active for lane in lanes):
                    raise TransferError(
                        f"engine idle but unit never arrived: {unit}"
                    )
            step(_INF)
        return clock

    dispatch()
    return TransferMachine(arrivals, demand_fetches, step, correct, wait, lanes)
