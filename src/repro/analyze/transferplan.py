"""Static stall / misprediction / deadlock proofs for transfer plans.

Given a program, a first-use order, and a transfer methodology, this
module answers — *without running the simulator* — three questions the
paper's pipeline otherwise only answers empirically:

* which methods **provably arrive before first use** (no stall is
  possible on the analyzed trace);
* which first uses are **guaranteed mispredictions** (the parallel
  schedule cannot have requested the class yet, so a demand fetch is
  certain);
* whether the greedy byte-triggered schedule can **deadlock** — a set
  of classes whose start triggers wait on bytes that can only be
  delivered by classes in the same set.

Soundness rests on closed-form arrival bounds:

interleaved
    The single stream owns the full bandwidth from cycle 0, so a unit's
    arrival is *exactly* its cumulative byte offset in the virtual
    interleaved file times ``cycles_per_byte``.

parallel
    Bandwidth is processor-shared, so only bounds are available.  A
    unit ``u`` of class ``c`` cannot arrive before ``prefix_c(u)``
    bytes have moved (intra-class order, full bandwidth at best):
    ``A_min(u) = prefix_c(u) · cpb``.  For the upper bound: the engine
    is never idle while a startable class is undelivered (every trigger
    is re-checked at each unit completion, and at an idle instant all
    requested streams are fully delivered, so any fixpoint-startable
    trigger has fired and been requested).  Total delivered bytes when
    ``u`` lands therefore equal the elapsed cycles over ``cpb``, and at
    most every byte except ``c``'s own post-``u`` suffix has moved:
    ``A_max(u) = (P_all − suffix_c(u)) · cpb``.  Once *any* request for
    ``c`` exists at time ``R`` (scheduled or demand), the same argument
    gives ``arrival ≤ R + (P_all − suffix_c(u)) · cpb``, which bounds
    demand-fetched arrivals too.

The analyzer replays a trace against an **interval clock** ``[t_lo,
t_hi]`` bracketing the simulator's cycle counter, classifying each
first use by comparing its arrival interval against the clock with a
float-slop ``margin``.  A method is a guaranteed misprediction when it
is the first use of its class and ``t_hi + margin < S_min(c)``, where
``S_min(c) = start_after_bytes · cpb`` is the earliest the trigger can
fire (``∞`` for deadlocked classes): the stream cannot have been
requested when the simulator attempts the method, so the controller's
``on_stall`` demand-fetch branch must run.

Without a trace the analyzer falls back to the
:mod:`~repro.analyze.workmodel` lower bounds — attempts happen no
earlier than the entry unit's arrival plus ``bound(m) · cpi`` — which
can still *prove* methods stall-free but never claims a misprediction
(a synthetic trace may execute less work than any real run).
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..cfg import CallGraph, MethodFacts, ProgramFacts, build_call_graph
from ..errors import AnalysisError, CFGError, ClassFileError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from ..reorder import restructure as apply_restructure
from ..transfer import NetworkLink, build_schedule
from ..transfer.layout import TransferLayout, transfer_layout
from ..transfer.schedule import TransferSchedule
from ..transfer.units import (
    ClassTransferPlan,
    TransferPolicy,
    TransferUnit,
    UnitKind,
)
from ..vm import ExecutionTrace
from .workmodel import first_use_lower_bounds

__all__ = [
    "StallVerdict",
    "MethodVerdict",
    "DeadlockFinding",
    "ScheduleHealth",
    "TransferPlanReport",
    "analyze_schedule",
    "analyze_transfer_plan",
]

_METHODOLOGIES = ("parallel", "interleaved", "striped")
_TRIGGER_SLOP = 1e-9  # mirrors repro.sched.scoreboard.WATERMARK_SLOP


class StallVerdict(enum.Enum):
    """The analyzer's classification of one method's first use."""

    PROVEN_NO_STALL = "proven_no_stall"
    PROVEN_STALL = "proven_stall"
    GUARANTEED_MISPREDICT = "guaranteed_mispredict"
    POSSIBLE_STALL = "possible_stall"
    NOT_EXECUTED = "not_executed"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class MethodVerdict:
    """One method's verdict with the intervals that justify it.

    Attributes:
        method: The method.
        verdict: The classification.
        arrival_lo / arrival_hi: Bounds on the cycle the method's
            transfer unit arrives (``inf`` = may never arrive).
        attempt_lo / attempt_hi: Bounds on the cycle the simulator
            first attempts the method (``inf`` = unknown / never).
        reason: Human-readable justification.
    """

    method: MethodId
    verdict: StallVerdict
    arrival_lo: float = math.inf
    arrival_hi: float = math.inf
    attempt_lo: float = math.inf
    attempt_hi: float = math.inf
    reason: str = ""


@dataclass(frozen=True)
class DeadlockFinding:
    """A class whose start trigger can never fire.

    Attributes:
        class_name: The deadlocked class.
        start_after_bytes: Its byte trigger.
        achievable_bytes: Bytes its *startable* dependencies can ever
            deliver — strictly less than the trigger.
        blocked_on: Dependency classes that are themselves deadlocked
            (the dependence cycle), if any.
    """

    class_name: str
    start_after_bytes: float
    achievable_bytes: float
    blocked_on: Tuple[str, ...] = ()


@dataclass
class ScheduleHealth:
    """Deadlock analysis of a parallel transfer schedule."""

    startable: Tuple[str, ...]
    deadlocks: Tuple[DeadlockFinding, ...]

    @property
    def ok(self) -> bool:
        return not self.deadlocks


@dataclass
class TransferPlanReport:
    """Everything the transfer-plan analyzer proved.

    Attributes:
        methodology: ``"parallel"``, ``"interleaved"``, or
            ``"striped"``.
        model: ``"trace"`` (interval replay of an execution trace) or
            ``"static"`` (work-model lower bounds; no mispredict
            claims).
        cycles_per_byte / cpi: The cost model analyzed.
        margin: Float-slop used in every strict comparison.
        verdicts: Per-method verdicts, every program method covered.
        schedule_health: Deadlock analysis (parallel only).
        dead_methods: Methods unreachable from the entry point through
            the call graph — tail-placement or elision candidates.
    """

    methodology: str
    model: str
    cycles_per_byte: float
    cpi: float
    margin: float
    verdicts: Dict[MethodId, MethodVerdict] = field(default_factory=dict)
    schedule_health: Optional[ScheduleHealth] = None
    dead_methods: Tuple[MethodId, ...] = ()

    def methods_with(self, verdict: StallVerdict) -> List[MethodId]:
        return [
            method
            for method, entry in self.verdicts.items()
            if entry.verdict is verdict
        ]

    @property
    def proven_no_stall(self) -> List[MethodId]:
        return self.methods_with(StallVerdict.PROVEN_NO_STALL)

    @property
    def proven_stalls(self) -> List[MethodId]:
        return self.methods_with(StallVerdict.PROVEN_STALL)

    @property
    def guaranteed_mispredicts(self) -> List[MethodId]:
        return self.methods_with(StallVerdict.GUARANTEED_MISPREDICT)

    @property
    def possible_stalls(self) -> List[MethodId]:
        return self.methods_with(StallVerdict.POSSIBLE_STALL)


def analyze_schedule(
    schedule: TransferSchedule,
    plans: Dict[str, ClassTransferPlan],
) -> ScheduleHealth:
    """Prove which classes' start triggers can ever fire.

    A class is *startable* when its ``start_after_bytes`` is coverable
    by the total bytes of its already-startable dependencies; the
    startable set grows to a fixpoint from the trigger-at-zero classes.
    The residue is deadlocked: greedy byte-triggered release can never
    request those streams, so every use of them demand-fetches.
    (:func:`repro.transfer.build_schedule` never produces a deadlock —
    each trigger is derived from a realizable prefix sum — but tampered
    or hand-written schedules can.)
    """
    totals = {name: plan.total_bytes for name, plan in plans.items()}
    startable: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for start in schedule.starts:
            if start.class_name in startable:
                continue
            achievable = sum(
                totals.get(dependency, 0)
                for dependency in schedule.dependencies_of(start)
                if dependency in startable
            )
            if start.start_after_bytes <= achievable + _TRIGGER_SLOP:
                startable.add(start.class_name)
                changed = True
    deadlocks = []
    for start in schedule.starts:
        if start.class_name in startable:
            continue
        dependencies = schedule.dependencies_of(start)
        achievable = sum(
            totals.get(dependency, 0)
            for dependency in dependencies
            if dependency in startable
        )
        blocked_on = tuple(
            dependency
            for dependency in dependencies
            if dependency not in startable
        )
        deadlocks.append(
            DeadlockFinding(
                class_name=start.class_name,
                start_after_bytes=start.start_after_bytes,
                achievable_bytes=float(achievable),
                blocked_on=blocked_on,
            )
        )
    ordered = tuple(
        start.class_name
        for start in schedule.starts
        if start.class_name in startable
    )
    return ScheduleHealth(startable=ordered, deadlocks=tuple(deadlocks))


@dataclass(frozen=True)
class _ArrivalBounds:
    """Arrival interval for one method unit, plus its demand bound."""

    lo: float
    hi: float
    demand_bound: float  # (P_all − suffix) · cpb: arrival ≤ request + this


def _interleaved_arrivals(
    sequence: Tuple[TransferUnit, ...],
    cpb: float,
) -> Dict[MethodId, _ArrivalBounds]:
    arrivals: Dict[MethodId, _ArrivalBounds] = {}
    cumulative = 0
    for unit in sequence:
        cumulative += unit.size
        if unit.kind == UnitKind.METHOD and unit.method is not None:
            exact = cumulative * cpb
            # No demand fetching on the single stream: arrival is
            # exact, never accelerated by a request.
            arrivals[unit.method] = _ArrivalBounds(exact, exact, math.inf)
    return arrivals


def _striped_arrivals(
    sequence: Tuple[TransferUnit, ...],
    links: Tuple[NetworkLink, ...],
) -> Dict[MethodId, _ArrivalBounds]:
    """Arrival bounds under escalation-free multi-link striping.

    The scoreboard engine issues units in the virtual interleaved
    file's order, one per idle link, and a method unit *retires* only
    after its class's global unit.  Bounds:

    * ``lo``: both the unit and its global unit must traverse some
      link — at best the fastest one concurrently
      (``max(size) · cpb_fast``) — and their combined bytes cannot
      beat the aggregate capacity of the whole link set.  Sharper:
      ``u`` issues only once every earlier unit has issued, at which
      point at most ``N − 1`` of their bytes are still in
      flight, so at least ``W_before − top(N−1)`` bytes were already
      delivered at no better than the aggregate rate; ``u`` itself
      then needs ``size · cpb_fast``.  On one link this is the exact
      interleaved arrival.
    * ``hi``: list-scheduling makespan on uniform links.  Let ``W``
      be the bytes of ``u``'s sequence prefix and ``l`` its
      last-landing unit.  Until ``l`` issues, no later unit can
      issue and no link idles, so prefix bytes move at the full
      aggregate rate; ``l`` then finishes on its own link, at worst
      the slowest: ``T ≤ (W − p_l)/rate_total + p_l · cpb_slow``,
      maximised (the expression grows with ``p_l``) by the largest
      unit in the prefix.  On one link this collapses to
      ``W · cpb`` — the interleaved exact arrival.

    The ``hi`` bound assumes no demand escalation reorders priorities
    mid-run (escalation only *accelerates* the stalled method, but it
    can delay others), so verdicts model ``escalate=False`` runs; the
    demand bound is ``inf`` accordingly.
    """
    cpb_fast = min(l.cycles_per_byte for l in links)
    cpb_slow = max(l.cycles_per_byte for l in links)
    aggregate_bpc = sum(1.0 / l.cycles_per_byte for l in links)
    lead_size: Dict[str, int] = {}
    for unit in sequence:
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
            lead_size[unit.class_name] = unit.size
    arrivals: Dict[MethodId, _ArrivalBounds] = {}
    prefix = 0.0
    largest = 0.0
    # Streaming top-(N−1) unit sizes of the sequence prefix: the most
    # bytes that can still be in flight when the next unit issues.
    in_flight_cap = len(links) - 1
    top_sizes: List[float] = []
    for unit in sequence:
        size = float(unit.size)
        if unit.kind == UnitKind.METHOD and unit.method is not None:
            size_g = float(lead_size.get(unit.class_name, 0))
            issue_lo = (
                max(0.0, prefix - sum(top_sizes)) / aggregate_bpc
            )
            lo = max(
                max(size, size_g) * cpb_fast,
                (size + size_g) / aggregate_bpc,
                issue_lo + size * cpb_fast,
            )
            hi = (prefix + size - max(largest, size)) / aggregate_bpc
            hi += max(largest, size) * cpb_slow
            arrivals[unit.method] = _ArrivalBounds(lo, hi, math.inf)
        prefix += size
        largest = max(largest, size)
        if in_flight_cap > 0:
            heapq.heappush(top_sizes, size)
            if len(top_sizes) > in_flight_cap:
                heapq.heappop(top_sizes)
    return arrivals


def _parallel_arrivals(
    plans: Dict[str, ClassTransferPlan],
    startable: Set[str],
    cpb: float,
) -> Dict[MethodId, _ArrivalBounds]:
    total_all = sum(plan.total_bytes for plan in plans.values())
    arrivals: Dict[MethodId, _ArrivalBounds] = {}
    for plan in plans.values():
        prefix = 0
        for unit in plan.units:
            prefix += unit.size
            if unit.kind != UnitKind.METHOD or unit.method is None:
                continue
            suffix = plan.total_bytes - prefix
            demand_bound = (total_all - suffix) * cpb
            hi = (
                demand_bound
                if plan.class_name in startable
                else math.inf
            )
            arrivals[unit.method] = _ArrivalBounds(
                prefix * cpb, hi, demand_bound
            )
    return arrivals


def _exact_parallel_entry_arrival(
    layout: TransferLayout,
    link: NetworkLink,
    entry_method: MethodId,
    max_streams: Optional[int],
) -> float:
    """The parallel entry stall's end, computed exactly.

    Until the entry method's unit arrives nothing executes, so the
    engine evolves deterministically under the scheduled triggers alone
    — the analyzer replays that closed pre-execution phase with the
    real controller on its own issue engine, mirroring the simulator's
    first segment instruction for instruction.
    """
    from ..sched.striped import StripedController

    controller = StripedController(
        layout, (link,), policy="parallel", max_streams=max_streams
    )
    engine = controller.start()
    unit = controller.required_unit(entry_method)
    if engine.arrived(unit):
        return 0.0
    controller.on_stall(engine, entry_method)
    return engine.run_until_unit(unit)


def _dead_methods(
    target: Program, call_graph: Optional[CallGraph]
) -> Tuple[MethodId, ...]:
    if call_graph is None:
        return ()
    try:
        entry = target.resolve_entry()
        live = set(call_graph.reachable_from(entry))
    except (ClassFileError, CFGError):
        return ()
    return tuple(
        method_id
        for method_id in target.method_ids()
        if method_id not in live
    )


def analyze_transfer_plan(
    program: Program,
    facts: ProgramFacts,
    order: FirstUseOrder,
    link: NetworkLink,
    cpi: float,
    methodology: str = "interleaved",
    trace: Optional[ExecutionTrace] = None,
    max_streams: Optional[int] = None,
    data_partitioning: bool = False,
    restructure: bool = True,
    schedule: Optional[TransferSchedule] = None,
    links: Optional[Tuple[NetworkLink, ...]] = None,
) -> TransferPlanReport:
    """Statically classify every method's first-use stall behavior.

    Mirrors :func:`repro.core.run_nonstrict`'s setup exactly — same
    restructuring, same unit plans, same schedule — so its verdicts
    apply to that simulation.

    Args:
        program: The program (original layout).
        facts: :func:`~repro.cfg.program_facts` of ``program`` (they
            describe its restructured copy too: same method bodies).
        order: First-use order guiding restructuring and scheduling.
        link: Network link model.
        cpi: Average cycles per bytecode instruction.
        methodology: ``"parallel"``, ``"interleaved"``, or
            ``"striped"`` (multi-link scoreboard striping).
        trace: The execution trace the simulator will replay.  With a
            trace the analyzer runs the precise interval replay; without
            one it falls back to work-model lower bounds and never
            claims a misprediction.
        max_streams: Parallel-only concurrent stream limit.  The
            arrival bounds hold for any limit; this only sharpens the
            exact entry-arrival replay.
        data_partitioning: Split global data into GMDs (§7.3).
        restructure: Match the simulation's ``restructure`` flag.
        schedule: Override the greedy schedule (parallel only; used to
            analyze tampered or hand-written schedules).
        links: The link set for ``methodology="striped"`` (defaults
            to ``(link,)``); verdicts then bound the scoreboard
            engine's escalation-free multi-link arrival model.

    Raises:
        AnalysisError: On an unknown methodology, a trace method
            absent from the program, or (static model only) no entry
            point or a method whose CFG failed.
    """
    if methodology not in _METHODOLOGIES:
        raise AnalysisError(
            f"unknown transfer methodology {methodology!r}; "
            f"pick from {_METHODOLOGIES}"
        )
    target = apply_restructure(program, order) if restructure else program
    layout = transfer_layout(
        target,
        TransferPolicy.DATA_PARTITIONED
        if data_partitioning
        else TransferPolicy.NON_STRICT,
        order,
    )
    plans = layout.plans
    cpb = link.cycles_per_byte
    margin = 0.5 * cpb

    health: Optional[ScheduleHealth] = None
    s_min: Dict[str, float] = {}
    if methodology == "parallel":
        tampered = schedule is not None
        if schedule is None:
            schedule = build_schedule(target, plans, order)
        health = analyze_schedule(schedule, plans)
        startable = set(health.startable)
        for start in schedule.starts:
            s_min[start.class_name] = (
                start.start_after_bytes * cpb
                if start.class_name in startable
                else math.inf
            )
        arrivals = _parallel_arrivals(plans, startable, cpb)
        if trace is not None and trace.segments and not tampered:
            entry_method = trace.segments[0].method
            bounds = arrivals.get(entry_method)
            if bounds is not None:
                exact = _exact_parallel_entry_arrival(
                    layout, link, entry_method, max_streams
                )
                arrivals[entry_method] = _ArrivalBounds(
                    exact, exact, bounds.demand_bound
                )
    elif methodology == "striped":
        link_set = tuple(links) if links else (link,)
        arrivals = _striped_arrivals(layout.sequence(), link_set)
        cpb = max(l.cycles_per_byte for l in link_set)
        margin = 0.5 * cpb
    else:
        arrivals = _interleaved_arrivals(layout.sequence(), cpb)

    failures = facts.failures(target)
    call_graph = None if failures else build_call_graph(target, facts)

    report = TransferPlanReport(
        methodology=methodology,
        model="trace" if trace is not None else "static",
        cycles_per_byte=cpb,
        cpi=cpi,
        margin=margin,
        schedule_health=health,
        dead_methods=_dead_methods(target, call_graph),
    )
    if trace is not None:
        _replay_trace(report, target, trace, arrivals, s_min, cpi)
    else:
        _static_verdicts(report, target, facts, failures, arrivals, cpi)
    return report


def _replay_trace(
    report: TransferPlanReport,
    target: Program,
    trace: ExecutionTrace,
    arrivals: Dict[MethodId, _ArrivalBounds],
    s_min: Dict[str, float],
    cpi: float,
) -> None:
    """Interval-clock replay of ``trace`` against the arrival bounds."""
    margin = report.margin
    parallel = report.methodology == "parallel"
    t_lo = t_hi = 0.0
    seen_methods: Set[MethodId] = set()
    seen_classes: Set[str] = set()
    for segment in trace.segments:
        method = segment.method
        if method not in seen_methods:
            seen_methods.add(method)
            first_of_class = method.class_name not in seen_classes
            seen_classes.add(method.class_name)
            bounds = arrivals.get(method)
            if bounds is None:
                raise AnalysisError(
                    f"trace method {method} has no transfer unit in the "
                    "analyzed plan"
                )
            # Once any request for the class exists (≤ the attempt,
            # since a stall issues one), arrival ≤ request + demand
            # bound — keeps t_hi finite past deadlocked classes.
            effective_hi = min(bounds.hi, t_hi + bounds.demand_bound)
            start_min = s_min.get(method.class_name, 0.0)
            mispredict_certain = (
                parallel
                and first_of_class
                and t_hi + margin < start_min
            )
            if bounds.hi + margin <= t_lo:
                verdict, reason = (
                    StallVerdict.PROVEN_NO_STALL,
                    f"unit arrives by cycle {bounds.hi:.0f}, first use "
                    f"at cycle {t_lo:.0f} or later",
                )
            elif bounds.lo > t_hi + margin or mispredict_certain:
                if mispredict_certain:
                    verdict = StallVerdict.GUARANTEED_MISPREDICT
                    reason = (
                        "class stream cannot have been requested before "
                        f"cycle {start_min:.0f}, first use attempted by "
                        f"cycle {t_hi:.0f}: demand fetch certain"
                    )
                else:
                    verdict = StallVerdict.PROVEN_STALL
                    reason = (
                        f"unit cannot arrive before cycle {bounds.lo:.0f}, "
                        f"first use attempted by cycle {t_hi:.0f}"
                    )
                report.verdicts[method] = MethodVerdict(
                    method=method,
                    verdict=verdict,
                    arrival_lo=bounds.lo,
                    arrival_hi=bounds.hi,
                    attempt_lo=t_lo,
                    attempt_hi=t_hi,
                    reason=reason,
                )
                t_lo = max(t_lo, bounds.lo)
                t_hi = max(t_hi, effective_hi)
                t_lo += segment.instructions * cpi
                t_hi += segment.instructions * cpi
                continue
            else:
                verdict, reason = (
                    StallVerdict.POSSIBLE_STALL,
                    f"arrival window [{bounds.lo:.0f}, {bounds.hi:.0f}] "
                    f"overlaps attempt window [{t_lo:.0f}, {t_hi:.0f}]",
                )
            report.verdicts[method] = MethodVerdict(
                method=method,
                verdict=verdict,
                arrival_lo=bounds.lo,
                arrival_hi=bounds.hi,
                attempt_lo=t_lo,
                attempt_hi=t_hi,
                reason=reason,
            )
            if verdict is StallVerdict.POSSIBLE_STALL:
                t_hi = max(t_hi, effective_hi)
        t_lo += segment.instructions * cpi
        t_hi += segment.instructions * cpi
    for method_id in target.method_ids():
        if method_id not in report.verdicts:
            report.verdicts[method_id] = MethodVerdict(
                method=method_id,
                verdict=StallVerdict.NOT_EXECUTED,
                arrival_lo=arrivals[method_id].lo
                if method_id in arrivals
                else math.inf,
                arrival_hi=arrivals[method_id].hi
                if method_id in arrivals
                else math.inf,
                reason="method does not appear in the trace",
            )


def _static_verdicts(
    report: TransferPlanReport,
    target: Program,
    facts: ProgramFacts,
    failures: List[MethodFacts],
    arrivals: Dict[MethodId, _ArrivalBounds],
    cpi: float,
) -> None:
    """Work-model verdicts when no trace is available.

    Attempts are bounded below by the entry unit's earliest arrival
    plus the interprocedural instruction lower bound; that is enough to
    *prove* methods stall-free, but guaranteed-misprediction claims
    need the trace replay (a synthetic statistical trace may do less
    work than any real execution).
    """
    margin = report.margin
    try:
        entry = target.resolve_entry()
    except ClassFileError as exc:
        raise AnalysisError(
            "static transfer-plan analysis needs an entry point"
        ) from exc
    if failures:
        failed = failures[0]
        raise AnalysisError(
            "static transfer-plan analysis needs well-formed method "
            f"bodies ({failed.method}: {failed.error})"
        )
    lower_bounds = first_use_lower_bounds(target, facts)
    entry_bounds = arrivals.get(entry)
    entry_arrival_lo = entry_bounds.lo if entry_bounds is not None else 0.0
    for method_id in target.method_ids():
        bounds = arrivals.get(method_id)
        arrival_lo = bounds.lo if bounds is not None else math.inf
        arrival_hi = bounds.hi if bounds is not None else math.inf
        if method_id == entry:
            report.verdicts[method_id] = MethodVerdict(
                method=method_id,
                verdict=StallVerdict.PROVEN_STALL,
                arrival_lo=arrival_lo,
                arrival_hi=arrival_hi,
                attempt_lo=0.0,
                attempt_hi=0.0,
                reason="entry method always waits for its own arrival "
                "(invocation latency)",
            )
            continue
        work = lower_bounds.bound(method_id)
        if math.isinf(work):
            report.verdicts[method_id] = MethodVerdict(
                method=method_id,
                verdict=StallVerdict.NOT_EXECUTED,
                arrival_lo=arrival_lo,
                arrival_hi=arrival_hi,
                reason="unreachable from the entry point in the call "
                "graph",
            )
            continue
        attempt_lo = entry_arrival_lo + work * cpi
        if arrival_hi + margin <= attempt_lo:
            verdict = StallVerdict.PROVEN_NO_STALL
            reason = (
                f"unit arrives by cycle {arrival_hi:.0f}; at least "
                f"{work:.0f} instructions must execute first "
                f"(attempt ≥ cycle {attempt_lo:.0f})"
            )
        else:
            verdict = StallVerdict.POSSIBLE_STALL
            reason = (
                f"arrival window [{arrival_lo:.0f}, {arrival_hi:.0f}] "
                f"not provably before earliest attempt "
                f"(cycle {attempt_lo:.0f})"
            )
        report.verdicts[method_id] = MethodVerdict(
            method=method_id,
            verdict=verdict,
            arrival_lo=arrival_lo,
            arrival_hi=arrival_hi,
            attempt_lo=attempt_lo,
            reason=reason,
        )
