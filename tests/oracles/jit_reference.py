"""The JIT-overlap loop the co-simulation core replaced.

:func:`repro.core.simulate_jit_overlap` runs on the core's transfer
machine; :func:`jit_reference` is its earlier loop, kept verbatim apart
from its name and imports.  It runs the interleaved file on one
:class:`~tests.oracles.streams.StreamEngine`, so every draw of
``tests/core/test_jit.py``'s differential test compares the core's link
model with the engine it replaced, field for field.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set

from repro.core import JitModel, JitResult
from repro.errors import SimulationError
from repro.program import MethodId, Program
from repro.reorder import FirstUseOrder
from repro.reorder import restructure as apply_restructure
from repro.transfer import (
    NetworkLink,
    TransferPolicy,
    UnitKind,
    transfer_layout,
)
from repro.vm import ExecutionTrace

from tests.oracles.streams import StreamEngine

__all__ = ["jit_reference"]


def jit_reference(
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
    # The interleaved file on one link: a single stream, in order, so
    # units arrive in sequence order.
    sequence = layout.sequence()
    engine = StreamEngine(link)
    engine.request_stream("interleaved", sequence)

    code_bytes: Dict[MethodId, int] = {
        method_id: method.code_bytes
        for method_id, method in layout.program.methods()
    }
    remaining_compile: Dict[MethodId, float] = {
        method_id: jit.compile_cycles(size)
        for method_id, size in code_bytes.items()
    }
    # A method compiled on first call stays queued with nothing left
    # to compile; compile_during drops it when it reaches the front.
    compile_queue: Deque[MethodId] = deque()
    enqueued: Set[MethodId] = set()
    consumed = 0  # arrivals already read into the queue
    time = 0.0
    compile_spent = 0.0
    overlapped = 0.0
    stall_cycles = 0.0

    def refresh_queue() -> None:
        """Pull newly arrived methods into the compile queue."""
        nonlocal consumed
        arrived = len(engine.arrival_times)
        while consumed < arrived:
            unit = sequence[consumed]
            consumed += 1
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
                compile_queue.popleft()
                continue
            step = min(need, budget)
            remaining_compile[method_id] = need - step
            budget -= step
            used += step
            compile_spent += step
            if remaining_compile[method_id] <= 1e-9:
                compile_queue.popleft()
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
