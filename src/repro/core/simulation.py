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
which describes its links and policy; its ``strict`` policy
(whole-file units) simulates the paper's base case.

:meth:`Simulator.run` takes one loop, the core in
:mod:`repro.core.fastsim`, for every policy on every link count,
recorded or not.  It records stalls, first invocations and arrivals
through a :class:`RunObserver`, and the transfer events through the
functions of :mod:`repro.sched`.  The per-segment oracle it is tested
against lives with the tests (``tests/oracles/simulation_reference.py``)
and records through the same code, so the two emit the same event
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import SimulationError
from ..program import MethodId
from ..sched import StripedController
from ..vm import ExecutionTrace
from .metrics import InvocationLatencyReport

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder
    from ..transfer import TransferUnit

__all__ = ["StallEvent", "SimulationResult", "Simulator", "resolve_engine"]

def resolve_engine(controller: Optional[StripedController] = None) -> str:
    """Name the loop :meth:`Simulator.run` takes: ``"batched"``, the
    core in :mod:`repro.core.fastsim`, whatever the controller.

    Kept only for the benchmark harness, which labels its runs with
    it.
    """
    return "batched"


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
            ``method_first_invoke``, ``stall_begin``/``stall_end``, the
            ``schedule_decision``/``demand_fetch``,
            ``unit_issued``/``link_busy`` and ``stripe_rebalance``
            events on the simulated clock.  Recording does not change
            the run.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        controller: StripedController,
        cpi: float,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        if not (math.isfinite(cpi) and cpi > 0):
            raise SimulationError(
                f"CPI must be finite and positive, got {cpi}"
            )
        self.trace = trace
        self.controller = controller
        self.cpi = float(cpi)
        self.recorder = recorder

    def run(self) -> SimulationResult:
        """Run the co-simulation to completion."""
        from .fastsim import run_batched  # fastsim imports this module

        return run_batched(self)


class RunObserver:
    """One run's stalls, first invocations and unit arrivals, and the
    events its recorder gets for them.

    The core and its test oracle both record through an observer, so
    their results and their event payloads come from the same code.
    """

    __slots__ = (
        "simulator",
        "recorder",
        "stalls",
        "stall_cycles",
        "latencies",
    )

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.recorder = simulator.recorder
        self.stalls: List[StallEvent] = []
        self.stall_cycles = 0.0
        self.latencies = _cycle_latency_report()

    def stall_begin(self, method: MethodId, time: float) -> None:
        """Execution stops at ``time`` for ``method``'s unit."""
        if self.recorder is not None:
            self.recorder.stall_begin(time, method=str(method))

    def stall_end(
        self, method: MethodId, start: float, arrival: float
    ) -> float:
        """The unit of the stall begun at ``start`` arrived at
        ``arrival``; returns the time execution resumes."""
        if arrival < start:
            arrival = start
        self.stalls.append(
            StallEvent(method=method, start=start, duration=arrival - start)
        )
        self.stall_cycles += arrival - start
        if self.recorder is not None:
            self.recorder.stall_end(
                arrival, method=str(method), duration=arrival - start
            )
        return arrival

    def first_invoke(
        self, method: MethodId, time: float, demand_fetched: bool
    ) -> None:
        """``method`` runs for the first time at ``time``."""
        self.latencies.record(method, time, demand_fetched=demand_fetched)
        if self.recorder is not None:
            self.recorder.method_first_invoke(
                time,
                method=str(method),
                latency=time,
                demand_fetched=demand_fetched,
            )

    def result(
        self,
        total_cycles: float,
        instructions: int,
        bytes_delivered: float,
        bytes_terminated: float,
        arrivals: Dict["TransferUnit", float],
    ) -> SimulationResult:
        """The run's result; the recorder gets ``unit_arrived`` for
        every unit that arrived, in arrival order.  ``instructions`` is
        the trace's total, which the caller summed as it walked the
        segments."""
        if self.recorder is not None:
            for unit, arrival in sorted(
                arrivals.items(), key=lambda item: item[1]
            ):
                self.recorder.unit_arrived(
                    arrival,
                    class_name=unit.class_name,
                    kind=unit.kind.value,
                    size=unit.size,
                    method=(
                        unit.method.method_name if unit.method else None
                    ),
                )
        simulator = self.simulator
        entries = self.latencies.entries
        return SimulationResult(
            total_cycles=total_cycles,
            execution_cycles=instructions * simulator.cpi,
            stall_cycles=self.stall_cycles,
            # The first segment is the first method's first use.
            invocation_latency=entries[0].latency if entries else 0.0,
            bytes_delivered=bytes_delivered,
            bytes_terminated=bytes_terminated,
            stalls=self.stalls,
            controller_name=simulator.controller.name,
            latencies=self.latencies,
        )
