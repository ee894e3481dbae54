"""Overlapping JIT compilation with transfer (paper §8's outlook).

The paper closes: "If compilation can take place as the class files are
being transferred, then the latency of transfer and compilation can
overlap."  This extension realizes that idea on top of the co-simulator:

* a :class:`JitModel` charges CPU cycles per code byte compiled and
  rewards compiled methods with a faster CPI;
* under **strict JIT**, the whole program transfers, then everything
  compiles, then execution runs at the compiled CPI — no overlap at all;
* under **non-strict JIT**, the CPU compiles methods *while execution is
  stalled waiting for transfer* (the otherwise-idle cycles the paper
  wants to exploit); a method whose compilation has not finished when it
  is first invoked pays the remaining compile cycles up front.

The simulation is exact and event-driven like
:class:`repro.core.simulation.Simulator`: between trace segments the
transfer engine advances, and stall intervals are consumed first by
pending compilations (in arrival order), then by idle waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import SimulationError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from ..reorder import restructure as apply_restructure
from ..transfer import (
    NetworkLink,
    StreamEngine,
    TransferPolicy,
    UnitKind,
    transfer_layout,
)
from ..vm import ExecutionTrace

__all__ = ["JitModel", "JitResult", "simulate_jit_overlap", "strict_jit_total"]


@dataclass(frozen=True)
class JitModel:
    """Cost/benefit model of a Just-In-Time compiler.

    Attributes:
        compile_cycles_per_byte: CPU cycles to compile one code byte.
        compiled_cpi: Cycles per bytecode once a method is compiled
            (must beat the interpreter's CPI for JIT to pay off).
    """

    compile_cycles_per_byte: float
    compiled_cpi: float

    def compile_cycles(self, code_bytes: int) -> float:
        return self.compile_cycles_per_byte * code_bytes


@dataclass
class JitResult:
    """Outcome of a JIT co-simulation.

    Attributes:
        total_cycles: Invocation-to-completion cycles.
        execution_cycles: Compiled-speed execution cycles.
        compile_cycles: Total compilation cycles spent.
        overlapped_compile_cycles: Compilation done inside transfer
            stalls (the cycles the paper's overlap recovers).
        stall_cycles: Residual idle waiting on transfer.
    """

    total_cycles: float
    execution_cycles: float
    compile_cycles: float
    overlapped_compile_cycles: float
    stall_cycles: float

    @property
    def overlap_fraction(self) -> float:
        """Share of compilation hidden inside transfer stalls."""
        if self.compile_cycles == 0:
            return 0.0
        return self.overlapped_compile_cycles / self.compile_cycles


def strict_jit_total(
    program: Program,
    trace: ExecutionTrace,
    link: NetworkLink,
    jit: JitModel,
) -> float:
    """The strict JIT base case: transfer, then compile, then run."""
    from .metrics import program_wire_bytes

    transfer = link.transfer_cycles(program_wire_bytes(program))
    compile_cycles = sum(
        jit.compile_cycles(method.code_bytes)
        for _, method in program.methods()
    )
    execution = trace.total_instructions * jit.compiled_cpi
    return transfer + compile_cycles + execution


def simulate_jit_overlap(
    program: Program,
    trace: ExecutionTrace,
    order: FirstUseOrder,
    link: NetworkLink,
    jit: JitModel,
    data_partitioning: bool = False,
) -> JitResult:
    """Non-strict transfer with compilation folded into the stalls.

    Methods compile in arrival order whenever execution is blocked on
    transfer; a method invoked before its compilation finished pays the
    remainder before executing (modelling compile-on-first-call).
    """
    layout = transfer_layout(
        apply_restructure(program, order),
        TransferPolicy.DATA_PARTITIONED
        if data_partitioning
        else TransferPolicy.NON_STRICT,
        order,
    )
    plans = layout.plans
    # The interleaved file on one link: a single stream, in order.
    engine = StreamEngine(link)
    engine.request_stream("interleaved", layout.sequence())

    code_bytes: Dict[MethodId, int] = {
        method_id: method.code_bytes
        for method_id, method in layout.program.methods()
    }
    remaining_compile: Dict[MethodId, float] = {
        method_id: jit.compile_cycles(size)
        for method_id, size in code_bytes.items()
    }
    compile_queue: List[MethodId] = []
    enqueued: set = set()
    time = 0.0
    compile_spent = 0.0
    overlapped = 0.0
    stall_cycles = 0.0

    def refresh_queue() -> None:
        """Pull newly arrived methods into the compile queue."""
        for unit in list(engine.arrival_times):
            if (
                unit.kind == UnitKind.METHOD
                and unit.method not in enqueued
            ):
                enqueued.add(unit.method)
                compile_queue.append(unit.method)

    def compile_during(budget: float) -> float:
        """Spend up to ``budget`` idle cycles compiling; return used."""
        nonlocal compile_spent
        used = 0.0
        while budget > 1e-9 and compile_queue:
            method_id = compile_queue[0]
            need = remaining_compile[method_id]
            if need <= 1e-9:
                compile_queue.pop(0)
                continue
            step = min(need, budget)
            remaining_compile[method_id] = need - step
            budget -= step
            used += step
            compile_spent += step
            if remaining_compile[method_id] <= 1e-9:
                compile_queue.pop(0)
        return used

    for segment in trace.segments:
        unit = plans[segment.method.class_name].method_unit(
            segment.method.method_name
        )
        if not engine.arrived(unit):
            arrival = engine.run_until_unit(unit)
            arrival = max(arrival, time)
            idle = arrival - time
            refresh_queue()
            used = compile_during(idle)
            overlapped += used
            stall_cycles += idle - used
            time = arrival
        refresh_queue()
        # Compile-on-first-call for anything the stall didn't cover.
        pending = remaining_compile.get(segment.method, 0.0)
        if pending > 1e-9:
            remaining_compile[segment.method] = 0.0
            compile_spent += pending
            time += pending
            if segment.method in compile_queue:
                compile_queue.remove(segment.method)
        time += segment.instructions * jit.compiled_cpi
        engine.run_until(time)

    execution_cycles = trace.total_instructions * jit.compiled_cpi
    if time + 1e-6 < execution_cycles:
        raise SimulationError("JIT simulation lost time")  # pragma: no cover
    return JitResult(
        total_cycles=time,
        execution_cycles=execution_cycles,
        compile_cycles=compile_spent,
        overlapped_compile_cycles=overlapped,
        stall_cycles=stall_cycles,
    )
