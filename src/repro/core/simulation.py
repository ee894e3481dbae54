"""The execution/transfer co-simulator.

Replays an execution trace against a transfer timeline, cycle-exactly:

* executing ``n`` bytecode instructions costs ``n × CPI`` cycles (the
  paper's §6.1 model: per-program average CPI on a 500 MHz Alpha);
* a trace segment may begin only once the transfer unit its method
  requires has arrived — otherwise execution *stalls* and the
  controller gets a chance to demand-fetch (§5.1 misprediction
  correction);
* while execution proceeds, transfer continues in the background
  (that is the whole point of non-strict execution);
* when the trace ends, any remaining transfer is terminated, exactly
  as the paper does ("if an application completes execution before all
  the methods have transferred, we terminate the remaining transfer").

The transfer side is always a :class:`~repro.sched.StripedController`,
which owns its links; its ``strict`` policy (whole-file units)
simulates the paper's base case.

:meth:`Simulator.run` has one rule, :func:`resolve_engine`: an
unrecorded run whose controller issues stream grains on one link (the
paper's strict, parallel and interleaved policies) takes the batched
core in :mod:`repro.core.fastsim`; everything else takes the
per-segment reference loop below, which is also the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..errors import SimulationError
from ..program import MethodId
from ..sched import StripedController
from ..vm import ExecutionTrace
from .metrics import InvocationLatencyReport

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["StallEvent", "SimulationResult", "Simulator", "resolve_engine"]

def resolve_engine(
    controller: Optional[StripedController] = None,
    recorder: Optional["TraceRecorder"] = None,
) -> str:
    """Name the loop :meth:`Simulator.run` takes for these inputs.

    ``"batched"`` (the core in :mod:`repro.core.fastsim`) for an
    unrecorded run of a :class:`~repro.sched.StripedController` that
    issues stream grains on one link; ``controller=None`` stands for
    those, the controllers :func:`~repro.core.run_nonstrict` and
    :func:`~repro.core.run_strict` build.  ``"reference"``
    (:meth:`Simulator.run_reference`) otherwise: a recorder needs its
    event stream, several links or unit grains need the issue engine,
    and a subclass may override any controller callback (the match is
    on the exact type).  Both loops give bit-identical results.
    """
    if recorder is None and (
        controller is None
        or (
            type(controller) is StripedController
            and controller.grain == "stream"
            and len(controller.links) == 1
        )
    ):
        return "batched"
    return "reference"


def _cycle_latency_report() -> InvocationLatencyReport:
    return InvocationLatencyReport(unit="cycles")


@dataclass(frozen=True)
class StallEvent:
    """Execution waited for transfer.

    Attributes:
        method: Method whose unit had not arrived.
        start: Cycle at which execution stopped.
        duration: Stall length in cycles.
    """

    method: MethodId
    start: float
    duration: float


@dataclass
class SimulationResult:
    """Outcome of one co-simulation.

    Attributes:
        total_cycles: Invocation-to-completion cycles (transfer
            remaining at completion is terminated, not waited for).
        execution_cycles: Pure compute cycles (instructions × CPI).
        stall_cycles: Cycles execution spent waiting on transfer.
        invocation_latency: Cycles until the first instruction ran.
        bytes_delivered: Bytes that arrived before completion.
        bytes_terminated: Bytes whose transfer was cut off at the end.
        stalls: Every stall, in order.
        controller_name: Which transfer methodology ran.
        latencies: Per-method first-invocation latencies (unit
            ``"cycles"``) — the simulated twin of the measured report
            :func:`repro.netserve.run_networked` produces.
        engine: The loop that ran: ``"batched"`` or ``"reference"``
            (see :func:`resolve_engine`).
    """

    total_cycles: float
    execution_cycles: float
    stall_cycles: float
    invocation_latency: float
    bytes_delivered: float
    bytes_terminated: float
    stalls: List[StallEvent] = field(default_factory=list)
    controller_name: str = ""
    latencies: InvocationLatencyReport = field(
        default_factory=_cycle_latency_report
    )
    engine: str = ""

    @property
    def stall_count(self) -> int:
        return len(self.stalls)

    def normalized_to(self, baseline_cycles: float) -> float:
        """Percent of a baseline: the paper's normalized execution time."""
        if baseline_cycles <= 0:
            raise SimulationError(
                f"non-positive baseline: {baseline_cycles}"
            )
        return 100.0 * self.total_cycles / baseline_cycles


class Simulator:
    """Co-simulates one configuration.

    Args:
        trace: The execution trace to replay (method ids must exist in
            the controller's layout).
        controller: The transfer controller, with its layout, policy
            and links.
        cpi: Average cycles per bytecode instruction.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"cycles"``); when given, the run emits ``unit_arrived``,
            ``method_first_invoke``, ``stall_begin``/``stall_end``, and
            the controller's ``schedule_decision``/``demand_fetch``
            events on the simulated clock.  A recorded run takes the
            reference loop (see :func:`resolve_engine`).
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        controller: StripedController,
        cpi: float,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        if cpi <= 0:
            raise SimulationError(f"CPI must be positive, got {cpi}")
        self.trace = trace
        self.controller = controller
        self.cpi = float(cpi)
        self.recorder = recorder

    def run(self) -> SimulationResult:
        """Run the co-simulation to completion.

        Takes the loop :func:`resolve_engine` names for this controller
        and recorder; ``result.engine`` says which one ran.
        """
        if resolve_engine(self.controller, self.recorder) == "batched":
            from .fastsim import run_batched  # fastsim imports this module

            return run_batched(self)
        return self.run_reference()

    def run_reference(self) -> SimulationResult:
        """Run the readable per-segment loop, whatever the inputs.

        This is the oracle the batched core is tested against, bit for
        bit.  It drives the controller's issue engine through the
        controller's callbacks and emits the recorder's event stream.
        """
        controller = self.controller
        recorder = self.recorder
        # The controller emits into this run's recorder, or none.
        engine = controller.start(recorder)

        time = 0.0
        stall_cycles = 0.0
        stalls: List[StallEvent] = []
        latencies = _cycle_latency_report()
        invocation_latency: Optional[float] = None

        for segment in self.trace.segments:
            unit = controller.required_unit(segment.method)
            if not engine.arrived(unit):
                controller.on_stall(engine, segment.method)
                if recorder is not None:
                    recorder.stall_begin(time, method=str(segment.method))
                arrival = engine.run_until_unit(unit)
                arrival = max(arrival, time)
                stalls.append(
                    StallEvent(
                        method=segment.method,
                        start=time,
                        duration=arrival - time,
                    )
                )
                stall_cycles += arrival - time
                if recorder is not None:
                    recorder.stall_end(
                        arrival,
                        method=str(segment.method),
                        duration=arrival - time,
                    )
                time = arrival
            if segment.method not in latencies:
                demand_fetched = segment.method in controller.demand_fetches
                latencies.record(
                    segment.method, time, demand_fetched=demand_fetched
                )
                if recorder is not None:
                    recorder.method_first_invoke(
                        time,
                        method=str(segment.method),
                        latency=time,
                        demand_fetched=demand_fetched,
                    )
            if invocation_latency is None:
                invocation_latency = time
            time += segment.instructions * self.cpi
            engine.run_until(time)

        if invocation_latency is None:
            invocation_latency = 0.0
        if recorder is not None:
            for unit, arrival in sorted(
                engine.arrival_times.items(), key=lambda item: item[1]
            ):
                recorder.unit_arrived(
                    arrival,
                    class_name=unit.class_name,
                    kind=unit.kind.value,
                    size=unit.size,
                    method=(
                        unit.method.method_name if unit.method else None
                    ),
                )
        execution_cycles = self.trace.total_instructions * self.cpi
        return SimulationResult(
            total_cycles=time,
            execution_cycles=execution_cycles,
            stall_cycles=stall_cycles,
            invocation_latency=invocation_latency,
            bytes_delivered=engine.total_delivered,
            bytes_terminated=engine.remaining_bytes,
            stalls=stalls,
            controller_name=controller.name,
            latencies=latencies,
            engine="reference",
        )
