"""Parallel file transfer (paper §5.1, Figure 4).

Multiple class files transfer simultaneously, splitting the fixed
bandwidth equally, subject to a concurrent-stream limit (1, 2, 4 —
HTTP/1.1 pipelining — or unlimited).  A greedy schedule starts each
class so its first-use prefix lands before its predicted first use.
If the prediction is wrong — a method is invoked whose class is neither
transferred nor transferring — the class is demand-fetched immediately
when a slot is free, or jumps to the front of the queue otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import TransferError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from .base import TransferController
from .link import NetworkLink
from .schedule import TransferSchedule, build_schedule
from .streams import Stream, StreamEngine
from .units import (
    ClassTransferPlan,
    TransferPolicy,
    TransferUnit,
    build_program_plans,
)

__all__ = ["ParallelController"]


class ParallelController(TransferController):
    """Scheduled multi-stream transfer with demand-fetch correction."""

    name = "parallel"

    def __init__(
        self,
        program: Program,
        order: FirstUseOrder,
        link: NetworkLink,
        cpi: float,
        max_streams: Optional[int] = None,
        data_partitioning: bool = False,
        eager_start: bool = False,
    ) -> None:
        policy = (
            TransferPolicy.DATA_PARTITIONED
            if data_partitioning
            else TransferPolicy.NON_STRICT
        )
        self.program = program
        self.order = order
        self.max_streams = max_streams
        self.plans: Dict[str, ClassTransferPlan] = build_program_plans(
            program, policy
        )
        self.schedule: TransferSchedule = build_schedule(
            program, self.plans, order, link, cpi
        )
        self.eager_start = eager_start
        self._pending = self.schedule.in_start_order()
        self._streams: Dict[str, Stream] = {}
        self.demand_fetches: List[MethodId] = []

    # -- controller interface -------------------------------------------

    def setup(self, engine: StreamEngine) -> None:
        # Per-run state starts afresh, so one controller can drive any
        # number of runs.
        self._pending = self.schedule.in_start_order()
        self._streams = {}
        self.demand_fetches = []
        self._release_due(engine)

    def required_unit(self, method_id: MethodId) -> TransferUnit:
        plan = self.plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        return plan.method_unit(method_id.method_name)

    def next_wakeup(self, engine: StreamEngine) -> Optional[float]:
        # Start triggers are byte-based; unit-completion boundaries are
        # the only byte-progress events, and on_advance fires at each,
        # so no clock wake-ups are needed.
        return None

    def on_advance(self, engine: StreamEngine) -> None:
        self._release_due(engine)

    def on_stall(self, engine: StreamEngine, method_id: MethodId) -> None:
        """Demand-fetch correction for a mispredicted first use."""
        class_name = method_id.class_name
        stream = self._streams.get(class_name)
        if stream is None:
            # Not yet requested: request it now, at the queue front.
            self.demand_fetches.append(method_id)
            self._demand_event(engine, method_id)
            self._request(engine, class_name, front=True)
        elif not stream.started and not stream.done:
            # Waiting for a slot: it transfers next.
            self.demand_fetches.append(method_id)
            self._demand_event(engine, method_id)
            engine.promote(stream)
            if self.recorder is not None:
                self.recorder.schedule_decision(
                    engine.time,
                    action="promote",
                    target=class_name,
                    reason="demand_fetch",
                )

    def _demand_event(
        self, engine: StreamEngine, method_id: MethodId
    ) -> None:
        if self.recorder is not None:
            self.recorder.demand_fetch(
                engine.time, method=str(method_id)
            )

    # -- internals ---------------------------------------------------------

    def _release_due(self, engine: StreamEngine) -> None:
        due = []
        for start in self._pending:
            if self.eager_start:
                # Ablation: no schedule — every class is requested up
                # front, in first-use order.
                due.append(start)
                continue
            delivered = sum(
                engine.delivered_per_stream.get(dependency, 0.0)
                for dependency in start.dependency_classes
            )
            if start.start_after_bytes <= delivered + 1e-9:
                due.append(start)
        for start in due:
            self._request(engine, start.class_name)

    def _request(
        self, engine: StreamEngine, class_name: str, front: bool = False
    ) -> None:
        if class_name in self._streams:
            return
        self._pending = [
            start
            for start in self._pending
            if start.class_name != class_name
        ]
        plan = self.plans[class_name]
        if self.recorder is not None:
            start = self.schedule.start_for(class_name)
            self.recorder.schedule_decision(
                engine.time,
                action="demand_start" if front else "stream_start",
                target=class_name,
                start_after_bytes=start.start_after_bytes,
                required_prefix_bytes=start.required_prefix_bytes,
            )
        self._streams[class_name] = engine.request_stream(
            class_name, plan.units, front=front
        )
