"""repro — non-strict execution for mobile programs.

A full reproduction of Krintz, Calder, Lee & Zorn, *Overlapping
Execution with Transfer Using Non-Strict Execution for Mobile
Programs* (ASPLOS 1998): a Java-like class file substrate, bytecode VM
with BIT-style instrumentation, first-use reordering (static and
profile-guided), global data partitioning, strict/parallel/interleaved
transfer simulation, and the full experiment harness.

Quickstart::

    import repro

    program = repro.figure1_program()
    result, recorder = repro.record_run(program)
    order = repro.estimate_first_use(program)
    sim = repro.run_nonstrict(
        program, recorder.trace, order, repro.T1_LINK, cpi=50,
    )
    base = repro.strict_baseline(
        program, recorder.trace, repro.T1_LINK, cpi=50,
    )
    print(f"{sim.normalized_to(base.total_cycles):.1f}% of strict")
"""

from .core import (
    InvocationLatencyReport,
    MethodInvocationLatency,
    SimulationResult,
    Simulator,
    StallEvent,
    StrictBaseline,
    invocation_latency_cycles,
    program_wire_bytes,
    run_nonstrict,
    run_strict,
    strict_baseline,
)
from .errors import ReproError
from .faults import FaultPlan
from .lang import compile_source
from .netserve import (
    ClassFileServer,
    NetworkRunResult,
    NonStrictFetcher,
    fetch_and_run,
    run_networked,
)
from .program import MethodId, Program
from .storage import (
    load_profile,
    load_program,
    load_trace,
    save_profile,
    save_program,
    save_trace,
)
from .reorder import (
    FirstUseEntry,
    FirstUseOrder,
    estimate_first_use,
    order_from_profile,
    profile_first_use,
    profile_program,
    restructure,
)
from .transfer import (
    MODEM_LINK,
    T1_LINK,
    LossyLink,
    NetworkLink,
    TransferPolicy,
    link_from_bandwidth,
    lossy_link,
)
from .vm import (
    ExecutionTrace,
    FirstUseProfile,
    TraceRecorder,
    TraceSegment,
    VirtualMachine,
    record_run,
    synthesize_profile,
)
from .workloads import (
    countdown_program,
    fibonacci_program,
    figure1_program,
    mutual_recursion_program,
)
from .workloads.spec import PAPER_BENCHMARKS, BenchmarkSpec, benchmark_spec
from .workloads.synthetic import SyntheticWorkload, generate_workload

__version__ = "1.0.0"

__all__ = [
    "InvocationLatencyReport",
    "MethodInvocationLatency",
    "ClassFileServer",
    "FaultPlan",
    "NetworkRunResult",
    "NonStrictFetcher",
    "fetch_and_run",
    "run_networked",
    "SimulationResult",
    "Simulator",
    "StallEvent",
    "StrictBaseline",
    "invocation_latency_cycles",
    "program_wire_bytes",
    "run_nonstrict",
    "run_strict",
    "strict_baseline",
    "ReproError",
    "compile_source",
    "MethodId",
    "Program",
    "load_profile",
    "load_program",
    "load_trace",
    "save_profile",
    "save_program",
    "save_trace",
    "FirstUseEntry",
    "FirstUseOrder",
    "estimate_first_use",
    "order_from_profile",
    "profile_first_use",
    "profile_program",
    "restructure",
    "MODEM_LINK",
    "T1_LINK",
    "LossyLink",
    "NetworkLink",
    "TransferPolicy",
    "link_from_bandwidth",
    "lossy_link",
    "ExecutionTrace",
    "FirstUseProfile",
    "TraceRecorder",
    "TraceSegment",
    "VirtualMachine",
    "record_run",
    "synthesize_profile",
    "countdown_program",
    "fibonacci_program",
    "figure1_program",
    "mutual_recursion_program",
    "PAPER_BENCHMARKS",
    "BenchmarkSpec",
    "benchmark_spec",
    "SyntheticWorkload",
    "generate_workload",
    "__version__",
]
