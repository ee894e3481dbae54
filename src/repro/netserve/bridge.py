"""Bridge: run the non-strict execution model against *real* arrivals.

:func:`run_networked` is the wall-clock twin of
:meth:`repro.core.simulation.Simulator.run`: it replays the same
:class:`~repro.vm.ExecutionTrace` the cycle-exact simulator consumes,
but gates each trace segment on a :class:`NonStrictFetcher`'s real
socket arrivals instead of simulated unit-arrival times.  Execution
cost uses the same model (instructions × CPI, converted to seconds at
the paper's CPU clock), and transfer genuinely overlaps it — the
receive loop keeps draining the socket while the "CPU" sleeps through
its compute time.

Measured per-method first-invocation latencies land in the existing
:class:`repro.core.metrics.InvocationLatencyReport` structure (unit
``"seconds"``), so measured and simulated numbers print side by side.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..core.metrics import InvocationLatencyReport

from ..core.simulation import StallEvent
from ..transfer import CPU_HZ
from ..vm import ExecutionTrace
from .client import NonStrictFetcher
from .stats import FetchStats

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["NetworkRunResult", "run_networked", "fetch_and_run"]


@dataclass
class NetworkRunResult:
    """Outcome of one networked non-strict run (all times in seconds).

    Attributes:
        wall_seconds: Invocation-to-completion wall time.
        execution_seconds: Modeled compute time (instructions × CPI at
            the configured clock).
        stall_seconds: Wall time execution spent waiting on arrivals.
        invocation_latency: Seconds until the first instruction ran.
        latencies: Measured per-method first-invocation latencies.
        stalls: Every stall, in order (seconds, session-relative).
        demand_fetches: Mispredict corrections issued.
        bytes_received: Wire bytes received by session end.
        reconnects: Resume reconnects the fetcher needed (0 on a clean
            link).
        degraded: True when the fetch fell back to a one-shot strict
            transfer after exhausting its reconnect budget.
    """

    wall_seconds: float
    execution_seconds: float
    stall_seconds: float
    invocation_latency: float
    latencies: InvocationLatencyReport
    stalls: List[StallEvent] = field(default_factory=list)
    demand_fetches: int = 0
    bytes_received: int = 0
    reconnects: int = 0
    degraded: bool = False

    @property
    def stall_count(self) -> int:
        return len(self.stalls)


async def run_networked(
    fetcher: NonStrictFetcher,
    trace: ExecutionTrace,
    cpi: float,
    cpu_hz: float = float(CPU_HZ),
    recorder: Optional["TraceRecorder"] = None,
) -> NetworkRunResult:
    """Replay ``trace`` against the fetcher's real arrivals.

    Args:
        fetcher: A connected :class:`NonStrictFetcher`.
        trace: The execution trace to replay (same object the
            simulator consumes).
        cpi: Average cycles per bytecode instruction.
        cpu_hz: Clock used to convert compute cycles to wall seconds.
            The paper's 500 MHz Alpha by default; lower it to stretch
            compute phases and make overlap visible in a demo.
        recorder: Optional :class:`repro.observe.TraceRecorder` (clock
            ``"seconds"``): stalls and first invocations are emitted
            on the fetcher's session clock, so its events and the
            fetcher's own arrival events share one timebase.

    Returns:
        A :class:`NetworkRunResult` with measured latencies for every
        method the trace invoked.
    """
    if recorder is None:
        recorder = fetcher.recorder
    seconds_per_instruction = cpi / cpu_hz
    latencies = InvocationLatencyReport(unit="seconds")
    stalls: List[StallEvent] = []
    stall_seconds = 0.0
    invocation_latency: Optional[float] = None
    started = time.monotonic()

    for segment in trace.segments:
        demanded = False
        if not fetcher.is_method_available(segment.method):
            stall_start = time.monotonic() - started
            if recorder is not None:
                recorder.stall_begin(
                    fetcher.elapsed(), method=str(segment.method)
                )
            await fetcher.wait_for_method(segment.method)
            demanded = fetcher.was_demand_fetched(segment.method)
            duration = (time.monotonic() - started) - stall_start
            stalls.append(
                StallEvent(
                    method=segment.method,
                    start=stall_start,
                    duration=duration,
                )
            )
            stall_seconds += duration
            if recorder is not None:
                recorder.stall_end(
                    fetcher.elapsed(),
                    method=str(segment.method),
                    duration=duration,
                )
        if segment.method not in latencies:
            now = fetcher.elapsed()
            latencies.record(
                segment.method, now, demand_fetched=demanded
            )
            if recorder is not None:
                recorder.method_first_invoke(
                    now,
                    method=str(segment.method),
                    latency=now,
                    demand_fetched=demanded,
                )
            if invocation_latency is None:
                invocation_latency = now
        # Compute phase: transfer keeps flowing while we "execute".
        await asyncio.sleep(
            segment.instructions * seconds_per_instruction
        )

    wall = time.monotonic() - started
    return NetworkRunResult(
        wall_seconds=wall,
        execution_seconds=(
            trace.total_instructions * seconds_per_instruction
        ),
        stall_seconds=stall_seconds,
        invocation_latency=invocation_latency or 0.0,
        latencies=latencies,
        stalls=stalls,
        demand_fetches=fetcher.stats.demand_fetches,
        bytes_received=fetcher.stats.bytes_received,
        reconnects=fetcher.stats.reconnects,
        degraded=bool(fetcher.stats.degraded),
    )


async def fetch_and_run(
    host: str,
    port: int,
    trace: ExecutionTrace,
    cpi: float,
    policy: str = "non_strict",
    strategy: str = "static",
    cpu_hz: float = float(CPU_HZ),
    demand_timeout: float = 5.0,
    connect_timeout: Optional[float] = 10.0,
    max_reconnects: int = 4,
    deadline: Optional[float] = None,
    recorder: Optional["TraceRecorder"] = None,
) -> "tuple[NetworkRunResult, FetchStats]":
    """Connect, replay a trace, close; the one-call convenience path."""
    fetcher = NonStrictFetcher(
        host,
        port,
        policy=policy,
        strategy=strategy,
        demand_timeout=demand_timeout,
        connect_timeout=connect_timeout,
        max_reconnects=max_reconnects,
        deadline=deadline,
        recorder=recorder,
    )
    await fetcher.connect()
    try:
        result = await run_networked(
            fetcher, trace, cpi, cpu_hz=cpu_hz, recorder=recorder
        )
    finally:
        await fetcher.aclose()
    return result, fetcher.stats
