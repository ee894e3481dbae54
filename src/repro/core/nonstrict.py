"""High-level API: configure and run one non-strict experiment.

This is the façade most users want::

    from repro import (
        figure1_program, record_run, estimate_first_use, T1_LINK,
    )
    from repro.core import run_nonstrict, run_strict, strict_baseline

    program = figure1_program()
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    result = run_nonstrict(
        program, recorder.trace, order, T1_LINK, cpi=30,
        method="interleaved",
    )
    base = strict_baseline(program, recorder.trace, T1_LINK, cpi=30)
    print(result.normalized_to(base.total_cycles))
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from ..errors import SimulationError
from ..program import Program
from ..reorder import FirstUseOrder
from ..reorder import restructure as apply_restructure
from ..sched import StripedController
from ..transfer import NetworkLink
from ..vm import ExecutionTrace
from .simulation import SimulationResult, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import TraceRecorder

__all__ = ["run_nonstrict", "run_strict"]

_METHODS = ("parallel", "interleaved")

#: The §5.1 and §5.2 methodologies: the one controller with its policy
#: fixed.  :func:`run_nonstrict` looks them up as module globals at call
#: time, so wrapping either name wraps controller construction.
ParallelController = partial(StripedController, policy="parallel")
InterleavedController = partial(StripedController, policy="interleaved")


def run_nonstrict(
    program: Program,
    trace: ExecutionTrace,
    order: FirstUseOrder,
    link: NetworkLink,
    cpi: float,
    method: str = "interleaved",
    max_streams: Optional[int] = None,
    data_partitioning: bool = False,
    restructure: bool = True,
    recorder: Optional["TraceRecorder"] = None,
) -> SimulationResult:
    """Simulate non-strict execution of one configuration.

    Args:
        program: The program (original layout; restructured internally
            unless ``restructure=False``).
        trace: Execution trace to replay (from any layout — method
            identity is layout-invariant).
        order: First-use order guiding restructuring and scheduling.
        link: Network link model.
        cpi: Average cycles per bytecode instruction.
        method: ``"parallel"`` or ``"interleaved"``.
        max_streams: Parallel-only concurrent stream limit
            (None = unlimited).
        data_partitioning: Split global data into GMDs (§7.3).
        restructure: Reorder methods/classes into first-use order
            first (the paper always does; disable only for ablation).
        recorder: Optional :class:`repro.observe.TraceRecorder`
            collecting the run's event stream on the cycle clock.

    Returns:
        The :class:`~repro.core.simulation.SimulationResult`.
    """
    if method not in _METHODS:
        raise SimulationError(
            f"unknown transfer method {method!r}; pick from {_METHODS}"
        )
    target = apply_restructure(program, order) if restructure else program
    if method == "parallel":
        controller = ParallelController(
            target,
            order,
            (link,),
            max_streams=max_streams,
            data_partitioning=data_partitioning,
        )
    else:
        controller = InterleavedController(
            target, order, (link,), data_partitioning=data_partitioning
        )
    simulator = Simulator(target, trace, controller, cpi, recorder=recorder)
    return simulator.run()


def run_strict(
    program: Program,
    trace: ExecutionTrace,
    link: NetworkLink,
    cpi: float,
    recorder: Optional["TraceRecorder"] = None,
) -> SimulationResult:
    """Simulate the strict base case (sequential whole-file transfer).

    Note that the paper's headline "strict" *total* (Table 3) is the
    arithmetic sum of full transfer and execution; use
    :func:`repro.core.metrics.strict_baseline` for that.  This
    simulation shows what sequential strict transfer with on-demand
    execution actually does — useful for ablations.
    """
    controller = StripedController(program, None, (link,), policy="strict")
    simulator = Simulator(program, trace, controller, cpi, recorder=recorder)
    return simulator.run()
