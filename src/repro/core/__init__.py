"""Core: the non-strict execution co-simulator and its metrics."""

from .jit import JitModel, JitResult, simulate_jit_overlap, strict_jit_total
from .metrics import (
    InvocationLatencyReport,
    MethodInvocationLatency,
    StrictBaseline,
    invocation_latency_cycles,
    program_wire_bytes,
    strict_baseline,
)
from .nonstrict import run_nonstrict, run_strict
from .simulation import SimulationResult, Simulator, StallEvent

__all__ = [
    "JitModel",
    "JitResult",
    "simulate_jit_overlap",
    "strict_jit_total",
    "InvocationLatencyReport",
    "MethodInvocationLatency",
    "StrictBaseline",
    "invocation_latency_cycles",
    "program_wire_bytes",
    "strict_baseline",
    "run_nonstrict",
    "run_strict",
    "SimulationResult",
    "Simulator",
    "StallEvent",
]
