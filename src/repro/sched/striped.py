"""The transfer controller: every transfer policy over one or more links.

:class:`StripedController` is the co-simulator's only controller, and
a pure description of what to send and how: it turns a
:class:`~repro.transfer.TransferLayout`'s units into issue grains and
names the link arbitration, and it holds no per-run state.  The
co-simulation core (:mod:`repro.core.fastsim`) runs it.  The policy
picks the grains, their hazards and the link choice:

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

The stream grains a controller issues (:class:`StreamGrain`) are built
once, at construction: one per class under ``parallel``, one for the
whole sequence under ``strict`` and one-link ``interleaved``.  One link
is the degenerate stripe: its one lane sees exactly the paper
methodology's request sequence.

The unit-grain policies handle mispredictions by *hazard-priority
escalation*: the stalled method's unit (and its class's global unit)
jump to the top of the next arbitration round — the scoreboard's
generalisation of §5.1's front-of-queue demand fetch.

The ``record_*`` functions here emit a run's transfer events, so every
loop that runs a controller records the same payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulation import SimulationResult
    from ..observe import TraceRecorder
    from ..vm import ExecutionTrace

__all__ = [
    "POLICIES",
    "LinkOutage",
    "StreamGrain",
    "StripedController",
    "run_striped",
]

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


@dataclass(frozen=True)
class LinkOutage:
    """A link death scheduled into a striped run (chaos testing).

    Attributes:
        at_cycles: Simulated cycle at which the link goes dark.
        link_index: Index into the controller's link list.
    """

    at_cycles: float
    link_index: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_cycles) and self.at_cycles >= 0):
            raise TransferError(
                f"outage time must be finite and >= 0, got {self.at_cycles}"
            )
        if self.link_index < 0:
            raise TransferError(
                f"outage link index must be >= 0, got {self.link_index}"
            )


#: Slop (bytes) in every byte-watermark comparison: a grain is released
#: once ``watermark_bytes <= delivered + WATERMARK_SLOP``.  The
#: co-simulation core and the transfer-plan analyzer both compare with
#: it, so their releases agree.
WATERMARK_SLOP = 1e-9


@dataclass(frozen=True)
class StreamGrain:
    """One in-order stream a controller issues, and when to release it.

    Attributes:
        label: Stream name and scoreboard label: the class under
            ``parallel``, the methodology under the single-stream
            policies.
        units: The stream's units, delivered strictly in this order.
        watermark_bytes: Release trigger: the grain is requested once
            its watermark classes have delivered this many bytes
            (0 = at time zero).
        watermark_count: How many grains count toward the watermark:
            the first ``watermark_count`` labels of the controller's
            :attr:`~StripedController.watermark_order`.
    """

    label: str
    units: Tuple[TransferUnit, ...]
    watermark_bytes: float = 0.0
    watermark_count: int = 0


class StripedController:
    """One transfer policy over one or more links.

    Args:
        layout: What to send (:func:`~repro.transfer.transfer_layout`):
            whole class files for ``"strict"``, non-strict or
            data-partitioned units for every other policy.
        links: The link set (1+ links, possibly heterogeneous).
        policy: One of :data:`POLICIES`.
        max_streams: Per-link concurrent stream limit of the stream
            grains (None = unlimited; at least 1 otherwise).
        outages: Scheduled link deaths (unit-grain policies only).
        escalate: Unit-grain demand correction on a stall.
        eager_start: Parallel ablation: release every class at once,
            in schedule order, instead of at its byte watermark.

    Raises:
        TransferError: On an unknown policy, no links, several links
            under ``"strict"``, a stream limit below 1, outages on a
            stream-grain policy or on a link index past ``links``,
            ``eager_start`` under any policy but
            ``"parallel"`` (only its grains have watermarks to zero),
            or a layout whose unit policy the policy cannot send.
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
        if max_streams is not None and max_streams < 1:
            raise TransferError(
                f"max_streams must be >= 1, got {max_streams}"
            )
        if eager_start and policy != "parallel":
            raise TransferError(
                f"eager_start applies to the 'parallel' policy only, "
                f"not {policy!r}"
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
        self.outages: Tuple[LinkOutage, ...] = tuple(outages)
        self.name = (
            policy
            if len(self.links) == 1
            else f"striped-{policy}x{len(self.links)}"
        )
        #: How a grain's link is picked: ``"least_loaded"`` (fewest
        #: remaining bytes), ``"earliest_finish"`` (the link that lands
        #: it first) or ``"round_robin"``.
        self.link_choice = _LINK_CHOICE_OF_POLICY[policy]
        #: ``"stream"`` (whole in-order streams) or ``"unit"`` (one
        #: unit per grain): the dispatch grain.
        self.grain = (
            "stream"
            if policy in ("strict", "parallel")
            or (policy == "interleaved" and len(self.links) == 1)
            else "unit"
        )
        if self.outages and self.grain == "stream":
            raise TransferError(
                f"link outages are not supported by the "
                f"{policy!r} policy on this link count"
            )
        for outage in self.outages:
            if outage.link_index >= len(self.links):
                raise TransferError(
                    f"outage references link {outage.link_index}, "
                    f"but only {len(self.links)} links exist"
                )
        self.plans: Dict[str, ClassTransferPlan] = layout.plans
        #: Parallel: the greedy byte-triggered schedule.
        self.schedule: Optional[TransferSchedule] = None
        #: Every other policy: the units in send order, as one stream
        #: grain or as one grain per unit.
        self.sequence: Tuple[TransferUnit, ...] = ()
        #: The stream grains, in issue order (none on the unit grain).
        self.stream_grains: Tuple[StreamGrain, ...] = ()
        #: Grain labels whose delivered bytes count toward watermarks:
        #: each grain counts a prefix of them.  Parallel: the
        #: schedule's class first-use order; otherwise empty.
        self.watermark_order: Tuple[str, ...] = ()
        if policy == "parallel":
            assert layout.order is not None  # non-strict layouts have one
            self.schedule = build_schedule(
                layout.program, self.plans, layout.order
            )
            self.watermark_order = self.schedule.class_order
            self.stream_grains = tuple(
                StreamGrain(
                    label=start.class_name,
                    units=self.plans[start.class_name].units,
                    watermark_bytes=(
                        0.0 if eager_start else start.start_after_bytes
                    ),
                    watermark_count=start.dependency_count,
                )
                for start in self.schedule.in_start_order()
            )
        else:
            self.sequence = layout.sequence()
            if not self.sequence:
                raise TransferError("program has no classes to transfer")
            if self.grain == "stream":
                self.stream_grains = (
                    StreamGrain(_STREAM_LABEL[policy], self.sequence),
                )

    # -- what a run asks of the controller ------------------------------

    def required_unit(self, method_id: MethodId) -> TransferUnit:
        """The unit whose arrival allows ``method_id`` to execute."""
        plan = self.plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        return plan.required_unit_for(method_id.method_name)

    def record_decision(
        self,
        recorder: "TraceRecorder",
        time: float,
        label: str,
        units: Sequence[TransferUnit],
        escalated: bool,
    ) -> None:
        """Emit ``schedule_decision`` for a stream grain put on a link."""
        if self.schedule is not None:
            start = self.schedule.start_for(label)
            recorder.schedule_decision(
                time,
                action="demand_start" if escalated else "stream_start",
                target=label,
                start_after_bytes=start.start_after_bytes,
                required_prefix_bytes=start.required_prefix_bytes,
            )
        elif self.grain == "stream":
            recorder.schedule_decision(
                time,
                action="stream_start",
                target=label,
                units=len(units),
            )


def record_demand(
    recorder: "TraceRecorder",
    time: float,
    method_id: MethodId,
    promoted: bool = False,
) -> None:
    """Emit ``demand_fetch`` for a stalled method, and the
    ``schedule_decision`` of a demand that promoted a queued stream (a
    demand that issues a grain records that issue instead)."""
    recorder.demand_fetch(time, method=str(method_id))
    if promoted:
        recorder.schedule_decision(
            time,
            action="promote",
            target=method_id.class_name,
            reason="demand_fetch",
        )


def link_label(index: int, link: NetworkLink) -> str:
    """A link's label in events; the index tells identical links apart."""
    return f"{index}:{link.name}"


def record_issue(
    recorder: "TraceRecorder",
    time: float,
    label: str,
    units: Sequence[TransferUnit],
    link: str,
    escalated: bool,
) -> None:
    """Emit ``unit_issued`` for a grain put on a link: ``class_name``
    is the grain's class when it has one, else its label."""
    names = {unit.class_name for unit in units}
    recorder.unit_issued(
        time,
        class_name=next(iter(names)) if len(names) == 1 else label,
        link=link,
        label=label,
        bytes=sum(unit.size for unit in units),
        escalated=escalated,
    )


def record_busy(
    recorder: "TraceRecorder",
    issued_at: float,
    landed_at: float,
    link: str,
    label: str,
) -> None:
    """Emit ``link_busy`` for a grain, from its issue to its last landing."""
    recorder.link_busy(
        issued_at, link=link, duration=landed_at - issued_at, label=label
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
    over the link set, and the co-simulator replays the trace.

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
