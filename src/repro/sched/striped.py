"""The transfer controller: every transfer policy over one or more links.

:class:`StripedController` is the co-simulator's only controller.  It
turns a :class:`~repro.transfer.TransferLayout`'s units into issue
grains on a :class:`~repro.sched.scoreboard.Scoreboard` and drives them
over its link set with an :class:`~repro.sched.engine.IssueEngine`.
The policy picks the grains, their hazards and the link arbitration:

* ``"strict"`` — the paper's base case (§7): the layout's whole class
  files in program file order on one stream; a method needs its whole
  class.  One link only, and only a ``STRICT`` layout.
* ``"parallel"`` — §5.1: one stream grain per class, released by the
  greedy schedule's byte watermarks (all at once with
  ``eager_start``), with demand-fetch correction at the queue front.
  On several links streams spread least-loaded-first.
* ``"interleaved"`` — §5.2: on one link the whole virtual interleaved
  file is one stream grain; on several links its units stripe in
  sequence order, each to the link that lands it first.
* ``"round_robin"`` — sequence-ordered units dealt round-robin
  across links.  On one link this is the interleaved file issued a
  unit at a time, so a stall can still escalate a later unit.

One link is the degenerate stripe: strict, parallel and interleaved
issue stream grains there, so the link's one
:class:`~repro.transfer.streams.StreamEngine` sees exactly the paper
methodology's request sequence, and unrecorded runs of those three
take the batched cores in :mod:`repro.core.fastsim`.

The unit-grain policies handle mispredictions by *hazard-priority
escalation*: the stalled method's unit (and its class's global unit)
jump to the top of the next arbitration round — the scoreboard's
generalisation of §5.1's front-of-queue demand fetch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import TransferError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from ..transfer import (
    ClassTransferPlan,
    NetworkLink,
    TransferLayout,
    TransferPolicy,
    TransferSchedule,
    TransferUnit,
    build_schedule,
    transfer_layout,
)
from .engine import IssueEngine, LinkChannel, LinkOutage
from .scoreboard import (
    IssueItem,
    ItemState,
    Scoreboard,
    unit_grain_scoreboard,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulation import SimulationResult
    from ..observe import TraceRecorder
    from ..vm import ExecutionTrace

__all__ = ["POLICIES", "StripedController", "run_striped"]

#: The transfer policies :class:`StripedController` accepts.
POLICIES = ("strict", "parallel", "interleaved", "round_robin")

_LINK_CHOICE_OF_POLICY = {
    "strict": "least_loaded",
    "parallel": "least_loaded",
    "interleaved": "earliest_finish",
    "round_robin": "round_robin",
}

#: Stream labels of the single-stream policies (the paper's names).
_STREAM_LABEL = {"strict": "strict-sequential", "interleaved": "interleaved"}


class StripedController:
    """One transfer policy over one or more links.

    Args:
        layout: What to send (:func:`~repro.transfer.transfer_layout`):
            whole class files for ``"strict"``, non-strict or
            data-partitioned units for every other policy.
        links: The link set (1+ links, possibly heterogeneous).
        policy: One of :data:`POLICIES`.
        max_streams: Per-link concurrent stream limit of the stream
            grains (None = unlimited).
        outages: Scheduled link deaths (unit-grain policies only).
        escalate: Unit-grain demand correction on a stall.
        eager_start: Parallel ablation: release every class at once,
            in schedule order, instead of at its byte watermark.

    Raises:
        TransferError: On an unknown policy, no links, several links
            under ``"strict"``, outages on a stream-grain policy, or a
            layout whose unit policy the policy cannot send.
    """

    def __init__(
        self,
        layout: TransferLayout,
        links: Sequence[NetworkLink],
        policy: str = "interleaved",
        max_streams: Optional[int] = None,
        outages: Sequence[LinkOutage] = (),
        escalate: bool = True,
        eager_start: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise TransferError(
                f"unknown striping policy {policy!r}; known: {POLICIES}"
            )
        if not links:
            raise TransferError(
                "StripedController needs at least one link"
            )
        if policy == "strict" and len(links) != 1:
            raise TransferError(
                "the 'strict' policy runs on exactly one link"
            )
        if (policy == "strict") != (layout.policy == TransferPolicy.STRICT):
            raise TransferError(
                f"the {policy!r} policy cannot send a "
                f"{layout.policy.value!r} layout"
            )
        self.links: Tuple[NetworkLink, ...] = tuple(links)
        self.policy = policy
        self.max_streams = max_streams
        self.escalate = escalate
        self.eager_start = eager_start
        self.outages: Tuple[LinkOutage, ...] = tuple(outages)
        self.name = (
            policy
            if len(self.links) == 1
            else f"striped-{policy}x{len(self.links)}"
        )
        self.recorder: Optional["TraceRecorder"] = None
        self.demand_fetches: List[MethodId] = []
        self._grain = (
            "stream"
            if policy in ("strict", "parallel")
            or (policy == "interleaved" and len(self.links) == 1)
            else "unit"
        )
        if self.outages and self._grain == "stream":
            raise TransferError(
                f"link outages are not supported by the "
                f"{policy!r} policy on this link count"
            )
        self.plans: Dict[str, ClassTransferPlan] = layout.plans
        # Each policy's grains are built once per controller; the
        # batched cores read ``schedule`` and ``sequence`` directly.
        #: Parallel: the greedy byte-triggered schedule.
        self.schedule: Optional[TransferSchedule] = None
        #: Every other policy: the units in send order, as one stream
        #: grain or as one grain per unit.
        self.sequence: Tuple[TransferUnit, ...] = ()
        if policy == "parallel":
            assert layout.order is not None  # non-strict layouts have one
            self.schedule = build_schedule(
                layout.program, self.plans, layout.order
            )
        else:
            self.sequence = layout.sequence()
        if self.schedule is None and not self.sequence:
            raise TransferError("program has no classes to transfer")
        self._engine: Optional[IssueEngine] = None

    # -- scoreboard construction ------------------------------------------

    def _build_scoreboard(self) -> Scoreboard:
        if self._grain == "unit":
            return unit_grain_scoreboard(self.sequence)
        board = Scoreboard()
        if self.schedule is not None:
            for seq, start in enumerate(self.schedule.in_start_order()):
                board.add_item(
                    IssueItem(
                        label=start.class_name,
                        units=self.plans[start.class_name].units,
                        seq=seq,
                        watermark_bytes=(
                            0.0
                            if self.eager_start
                            else start.start_after_bytes
                        ),
                        watermark_classes=start.dependency_classes,
                    )
                )
            return board
        board.add_item(
            IssueItem(
                label=_STREAM_LABEL[self.policy],
                units=self.sequence,
                seq=0,
            )
        )
        return board

    # -- simulator interface ----------------------------------------------

    def start(
        self, recorder: Optional["TraceRecorder"] = None
    ) -> IssueEngine:
        """Build a fresh issue engine for one run and dispatch what is
        ready at time zero.

        Per-run state starts afresh, so one controller drives any
        number of runs.  ``recorder`` receives this run's
        ``schedule_decision`` / ``demand_fetch`` events.
        """
        self.recorder = recorder
        self.demand_fetches = []
        engine = IssueEngine(
            self.links,
            self._build_scoreboard(),
            grain=self._grain,
            link_choice=_LINK_CHOICE_OF_POLICY[self.policy],
            max_streams=self.max_streams,
            outages=self.outages,
            recorder=recorder,
            on_issue=self._on_issue,
        )
        self._engine = engine
        engine.dispatch()
        return engine

    def required_unit(self, method_id: MethodId) -> TransferUnit:
        """The unit whose arrival allows ``method_id`` to execute."""
        plan = self.plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        return plan.required_unit_for(method_id.method_name)

    def on_stall(self, engine: IssueEngine, method_id: MethodId) -> None:
        """Execution stalled waiting for ``method_id``: correct."""
        if self.schedule is not None:
            self._parallel_stall(engine, method_id)
        elif self._grain == "unit" and self.escalate:
            self._escalate_stall(engine, method_id)
        # A single stream is already in flight, in order: nothing can
        # be reordered.

    # -- misprediction correction -----------------------------------------

    def _parallel_stall(
        self, engine: IssueEngine, method_id: MethodId
    ) -> None:
        """§5.1 demand fetch: request the class at the queue front, or
        promote its queued stream."""
        class_name = method_id.class_name
        item = engine.scoreboard.items.get(class_name)
        if item is None:
            raise TransferError(
                f"no transfer plan for class {class_name!r}"
            )
        if item.state in (ItemState.WAITING, ItemState.READY):
            self.demand_fetches.append(method_id)
            self._demand_event(engine, method_id)
            engine.demand_issue(class_name)
            return
        entry = engine.stream_of(class_name)
        if entry is not None:
            channel, stream = entry
            if not stream.started and not stream.done:
                self.demand_fetches.append(method_id)
                self._demand_event(engine, method_id)
                channel.engine.promote(stream)
                if self.recorder is not None:
                    self.recorder.schedule_decision(
                        engine.time,
                        action="promote",
                        target=class_name,
                        reason="demand_fetch",
                    )

    def _escalate_stall(
        self, engine: IssueEngine, method_id: MethodId
    ) -> None:
        """Hazard-priority escalation for the unit-grain policies."""
        board = engine.scoreboard
        try:
            needed = self.required_unit(method_id)
        except TransferError:
            return
        # The unit, then its retire hazard: its class's global unit.
        escalated = [
            unit
            for unit in (needed, *board.unit_deps(needed))
            if board.escalate(board.label_of(unit))
        ]
        if not escalated:
            return
        self.demand_fetches.append(method_id)
        self._demand_event(engine, method_id)
        engine.rebalance_event(
            "demand_escalation",
            method=str(method_id),
            items=len(escalated),
        )
        engine.dispatch()

    def _demand_event(
        self, engine: IssueEngine, method_id: MethodId
    ) -> None:
        if self.recorder is not None:
            self.recorder.demand_fetch(
                engine.time, method=str(method_id)
            )

    def _on_issue(self, item: IssueItem, channel: LinkChannel) -> None:
        """``schedule_decision`` for every stream grain put on a link."""
        if self.recorder is None or self._engine is None:
            return
        time = self._engine.time
        if self.schedule is not None:
            start = self.schedule.start_for(item.label)
            self.recorder.schedule_decision(
                time,
                action=(
                    "demand_start" if item.escalated else "stream_start"
                ),
                target=item.label,
                start_after_bytes=start.start_after_bytes,
                required_prefix_bytes=start.required_prefix_bytes,
            )
        elif self._grain == "stream":
            self.recorder.schedule_decision(
                time,
                action="stream_start",
                target=item.label,
                units=len(item.units),
            )


def run_striped(
    program: Program,
    trace: "ExecutionTrace",
    order: FirstUseOrder,
    links: Sequence[NetworkLink],
    cpi: float,
    policy: str = "interleaved",
    max_streams: Optional[int] = None,
    data_partitioning: bool = False,
    outages: Sequence[LinkOutage] = (),
    escalate: bool = True,
    restructure: bool = True,
    recorder: Optional["TraceRecorder"] = None,
) -> "SimulationResult":
    """Co-simulate one striped configuration end to end.

    The multi-link twin of :func:`repro.core.run_nonstrict`: the
    program is restructured into first-use order (unless
    ``restructure=False``), a :class:`StripedController` is built
    over the link set, and the co-simulator replays the trace.  On one
    link the strict, parallel and interleaved policies take the
    batched cores (unless recorded); every other run takes the
    reference loop.

    Returns:
        The :class:`repro.core.SimulationResult`.

    Raises:
        TransferError: Among the controller's checks, for
            ``data_partitioning`` under ``"strict"``: whole class files
            have no global data to partition.
    """
    from ..core.simulation import Simulator
    from ..reorder import restructure as apply_restructure

    target = (
        apply_restructure(program, order) if restructure else program
    )
    if data_partitioning:
        unit_policy = TransferPolicy.DATA_PARTITIONED
    elif policy == "strict":
        unit_policy = TransferPolicy.STRICT
    else:
        unit_policy = TransferPolicy.NON_STRICT
    controller = StripedController(
        transfer_layout(target, unit_policy, order),
        links,
        policy=policy,
        max_streams=max_streams,
        outages=outages,
        escalate=escalate,
    )
    simulator = Simulator(trace, controller, cpi, recorder=recorder)
    return simulator.run()
