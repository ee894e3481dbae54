"""The lint framework: typed rules over a whole program + transfer plan.

A :class:`LintRule` inspects one shared :class:`LintContext` — the
per-method dataflow results and per-methodology transfer-plan reports
are computed once, rules only read them — and yields
:class:`Finding`\\ s.  Rules register themselves in a module registry
so the CLI, the exporters, and the tests all see the same rule set.

Built-in rules:

``type-error`` (error)
    The typed dataflow engine rejected a method body: definite type
    mismatch, stack underflow/overflow, inconsistent join depths,
    malformed structure.  These methods *will* fault on some path.
``schedule-deadlock`` (error)
    A class's parallel start trigger can never fire; every use of the
    class demand-fetches.
``guaranteed-mispredict`` (warning)
    The first-use prediction is provably wrong for this method: the
    parallel schedule cannot have requested its class when the method
    is first invoked, so a demand-fetch round trip is certain.
``dead-method`` (warning)
    Unreachable from the entry point through the call graph — a
    tail-placement or elision candidate (it still costs wire bytes).
``proven-stall`` (note)
    A non-entry method whose transfer unit provably arrives after its
    first use: the restructuring misses the paper's overlap goal here.
``dead-method-shipped`` (warning)
    The interprocedural RTA pass (:mod:`repro.analyze.interproc`)
    proves the method unreachable, yet the transfer order ships its
    bytes ahead of live methods — every later first use pays for them.
``guaranteed-mispredict-order`` (warning)
    The transfer order places a method before one of its call-graph
    dominators; every call chain reaching it runs the dominator first,
    so this relative order is inverted for *every* input.
``unreachable-call-target`` (error)
    A feasible call site names a method its internal callee class does
    not define — a torn reference that faults under strict linking.

Analyzer cost and finding counts are published through an optional
:class:`repro.observe.MetricsRegistry` (``analyze_runtime_seconds``,
``analyze_findings_total``, ``analyze_methods``) and each finding can
be emitted as an ``analysis_finding`` event on a
:class:`repro.observe.TraceRecorder`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Type

from ..cfg import program_facts
from ..errors import AnalysisError, CFGError, ClassFileError, ReproError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder, StaticFirstUseEstimator
from ..transfer import NetworkLink
from ..vm import ExecutionTrace
from .dataflow import MethodDataflow, analyze_program
from .interproc import InterprocAnalysis, analyze_interproc
from .transferplan import TransferPlanReport, analyze_transfer_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..observe import MetricsRegistry, TraceRecorder

__all__ = [
    "Severity",
    "Span",
    "Finding",
    "LintRule",
    "LintContext",
    "LintReport",
    "register_rule",
    "all_rules",
    "run_lint",
]


class Severity(enum.Enum):
    """Finding severity, ordered; maps onto SARIF levels."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class Span:
    """What a finding points at: a class, method, or instruction."""

    class_name: str
    method_name: Optional[str] = None
    instruction_index: Optional[int] = None

    @property
    def uri(self) -> str:
        """A stable artifact URI for exporters."""
        return f"classes/{self.class_name}.class"

    @property
    def qualified_name(self) -> str:
        if self.method_name is None:
            return self.class_name
        return f"{self.class_name}.{self.method_name}"


@dataclass(frozen=True)
class Finding:
    """One lint result."""

    rule_id: str
    severity: Severity
    message: str
    span: Span


@dataclass
class LintContext:
    """Everything rules may read; computed once per lint run.

    ``order`` is ``None`` when none was given and the static estimate
    could not be built (a method's CFG failed).
    """

    program: Program
    order: Optional[FirstUseOrder]
    link: NetworkLink
    cpi: float
    dataflows: Dict[MethodId, MethodDataflow]
    reports: Dict[str, TransferPlanReport]
    trace: Optional[ExecutionTrace] = None
    interproc: Optional[InterprocAnalysis] = None


class LintRule:
    """Base class: subclass, set the class attributes, register."""

    rule_id: str = ""
    severity: Severity = Severity.INFO
    description: str = ""

    def run(self, context: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, message: str, span: Span) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            span=span,
        )


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise AnalysisError(
            f"rule {rule_class.__name__} has no rule_id"
        )
    if _REGISTRY.get(rule_class.rule_id) not in (None, rule_class):
        raise AnalysisError(
            f"duplicate lint rule id {rule_class.rule_id!r}"
        )
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, id-sorted."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


@register_rule
class TypeErrorRule(LintRule):
    rule_id = "type-error"
    severity = Severity.ERROR
    description = (
        "The typed dataflow engine proved this method faults on some "
        "path (type mismatch, stack imbalance, or malformed structure)."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        for method_id, dataflow in context.dataflows.items():
            # Issue messages carry a "Class.method: " prefix for
            # standalone use; the finding's span already names the
            # method, so drop it here.
            prefix = (
                f"{method_id.class_name}.{method_id.method_name}: "
            )
            for issue in dataflow.issues:
                message = issue.message
                if message.startswith(prefix):
                    message = message[len(prefix):]
                yield self.finding(
                    f"{issue.kind}: {message}",
                    Span(
                        class_name=method_id.class_name,
                        method_name=method_id.method_name,
                        instruction_index=issue.instruction_index,
                    ),
                )


@register_rule
class ScheduleDeadlockRule(LintRule):
    rule_id = "schedule-deadlock"
    severity = Severity.ERROR
    description = (
        "A class's parallel start trigger waits on bytes only its own "
        "dependents can deliver; the stream is never requested."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        for report in context.reports.values():
            health = report.schedule_health
            if health is None:
                continue
            for deadlock in health.deadlocks:
                blocked = (
                    f" (cycle through {', '.join(deadlock.blocked_on)})"
                    if deadlock.blocked_on
                    else ""
                )
                yield self.finding(
                    f"start trigger {deadlock.start_after_bytes:.0f}B can "
                    f"never fire: startable dependencies deliver at most "
                    f"{deadlock.achievable_bytes:.0f}B{blocked}",
                    Span(class_name=deadlock.class_name),
                )


@register_rule
class GuaranteedMispredictRule(LintRule):
    rule_id = "guaranteed-mispredict"
    severity = Severity.WARNING
    description = (
        "The first-use prediction is provably wrong: the class stream "
        "cannot have been requested at first invocation, so a "
        "demand-fetch round trip is certain."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        for methodology, report in context.reports.items():
            for method_id in report.guaranteed_mispredicts:
                verdict = report.verdicts[method_id]
                yield self.finding(
                    f"[{methodology}] {verdict.reason}",
                    Span(
                        class_name=method_id.class_name,
                        method_name=method_id.method_name,
                    ),
                )


@register_rule
class DeadMethodRule(LintRule):
    rule_id = "dead-method"
    severity = Severity.WARNING
    description = (
        "Unreachable from the entry point through the call graph; a "
        "tail-placement or elision candidate that still costs wire "
        "bytes."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        reported: set = set()
        for report in context.reports.values():
            for method_id in report.dead_methods:
                if method_id in reported:
                    continue
                reported.add(method_id)
                yield self.finding(
                    "never called from the entry point; consider "
                    "placing it at the transfer tail or eliding it",
                    Span(
                        class_name=method_id.class_name,
                        method_name=method_id.method_name,
                    ),
                )


@register_rule
class ProvenStallRule(LintRule):
    rule_id = "proven-stall"
    severity = Severity.INFO
    description = (
        "This method's transfer unit provably arrives after its first "
        "use; execution stalls here under the analyzed plan."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        entry = None
        try:
            entry = context.program.resolve_entry()
        except ClassFileError:
            pass
        for methodology, report in context.reports.items():
            for method_id in report.proven_stalls:
                if method_id == entry:
                    continue  # the entry always stalls (invocation latency)
                verdict = report.verdicts[method_id]
                yield self.finding(
                    f"[{methodology}] {verdict.reason}",
                    Span(
                        class_name=method_id.class_name,
                        method_name=method_id.method_name,
                    ),
                )


@register_rule
class DeadMethodShippedRule(LintRule):
    rule_id = "dead-method-shipped"
    severity = Severity.WARNING
    description = (
        "Proven unreachable by the interprocedural RTA pass, yet the "
        "transfer order ships its bytes ahead of live methods, "
        "delaying every later first use; prune it or move it to the "
        "transfer tail."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        analysis = context.interproc
        if analysis is None or context.order is None or not analysis.dead:
            return
        dead = set(analysis.dead)
        positions: Dict[MethodId, int] = {}
        last_live = -1
        for position, entry in enumerate(context.order.entries):
            positions[entry.method] = position
            if entry.method not in dead:
                last_live = position
        for method_id in analysis.dead:
            position = positions.get(method_id)
            if position is None or position > last_live:
                continue  # already behind every live method: harmless
            size = context.program.method(method_id).size
            yield self.finding(
                f"proven unreachable (RTA + dataflow feasibility) but "
                f"shipped at position {position}, ahead of live "
                f"methods; its {size}B delay every later first use",
                Span(
                    class_name=method_id.class_name,
                    method_name=method_id.method_name,
                ),
            )


@register_rule
class GuaranteedMispredictOrderRule(LintRule):
    rule_id = "guaranteed-mispredict-order"
    severity = Severity.WARNING
    description = (
        "The transfer order places a method before one of its "
        "call-graph dominators; every call chain reaching the method "
        "runs the dominator first, so the predicted relative order is "
        "wrong for every input."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        analysis = context.interproc
        if analysis is None or context.order is None:
            return
        positions = {
            entry.method: position
            for position, entry in enumerate(context.order.entries)
        }
        for method_id, position in positions.items():
            dominator = analysis.immediate_dominators.get(method_id)
            while dominator is not None:
                dominator_position = positions.get(dominator)
                if (
                    dominator_position is not None
                    and dominator_position > position
                ):
                    yield self.finding(
                        f"placed at position {position}, before its "
                        f"call-graph dominator "
                        f"{dominator.class_name}.{dominator.method_name} "
                        f"(position {dominator_position}); its first "
                        f"use can never precede the dominator's",
                        Span(
                            class_name=method_id.class_name,
                            method_name=method_id.method_name,
                        ),
                    )
                    break  # one inversion per method is enough
                dominator = analysis.immediate_dominators.get(dominator)


@register_rule
class UnreachableCallTargetRule(LintRule):
    rule_id = "unreachable-call-target"
    severity = Severity.ERROR
    description = (
        "A feasible call site names a method its internal callee "
        "class does not define — a torn reference that faults under "
        "strict linking the first time the site executes."
    )

    def run(self, context: LintContext) -> Iterable[Finding]:
        analysis = context.interproc
        if analysis is None:
            return
        for site in analysis.torn_sites:
            yield self.finding(
                f"call at instruction {site.instruction_index} targets "
                f"a method that internal class {site.external_class} "
                f"does not define; the site faults when it executes",
                Span(
                    class_name=site.caller.class_name,
                    method_name=site.caller.method_name,
                    instruction_index=site.instruction_index,
                ),
            )


@dataclass
class LintReport:
    """All findings from one lint run plus analyzer cost."""

    findings: List[Finding] = field(default_factory=list)
    rules: List[LintRule] = field(default_factory=list)
    methods_analyzed: int = 0
    runtime_seconds: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(
            finding.severity is Severity.ERROR
            for finding in self.findings
        )

    def by_severity(self) -> Dict[Severity, int]:
        counts: Dict[Severity, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts


def run_lint(
    program: Program,
    order: Optional[FirstUseOrder] = None,
    link: Optional[NetworkLink] = None,
    cpi: float = 30.0,
    trace: Optional[ExecutionTrace] = None,
    methodologies: Tuple[str, ...] = ("parallel", "interleaved"),
    rules: Optional[List[LintRule]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    recorder: Optional["TraceRecorder"] = None,
) -> LintReport:
    """Run lint rules over a program and its transfer plans.

    Args:
        program: The program to lint (original layout).
        order: First-use order; static-estimated when omitted.  If
            the estimate fails (a method's CFG cannot be built), the
            transfer-plan analyses are skipped with a note.
        link: Network link model; T1 when omitted.
        cpi: Average cycles per bytecode instruction.
        trace: Execution trace enabling the precise interval replay
            (and misprediction proofs); work-model bounds otherwise.
        methodologies: Transfer methodologies to analyze.
        rules: Rule instances to run; the full registry when omitted.
        metrics: Optional registry receiving ``analyze_runtime_seconds``,
            ``analyze_findings_total`` (labels ``rule``, ``severity``)
            and ``analyze_methods``.
        recorder: Optional recorder receiving one ``analysis_finding``
            event per finding (clock: seconds of analyzer runtime).
    """
    started = time.perf_counter()
    if link is None:
        from ..transfer import T1_LINK

        link = T1_LINK
    report = LintReport(rules=rules if rules is not None else all_rules())

    # One CFG, loop nest and dataflow per method for every analysis
    # below; each that needs a failed CFG is skipped with a note.
    facts = program_facts(program)
    dataflows = analyze_program(program, facts)
    report.methods_analyzed = len(dataflows)

    order_error: Optional[CFGError] = None
    if order is None:
        try:
            order = StaticFirstUseEstimator(program, facts).estimate()
        except CFGError as exc:
            order_error = exc
            report.notes.append(f"static first-use order skipped: {exc}")

    reports: Dict[str, TransferPlanReport] = {}
    for methodology in methodologies:
        if order is None:
            report.notes.append(
                f"transfer-plan analysis skipped for {methodology}: "
                f"no first-use order ({order_error})"
            )
            continue
        try:
            reports[methodology] = analyze_transfer_plan(
                program,
                facts,
                order,
                link,
                cpi,
                methodology=methodology,
                trace=trace,
            )
        except AnalysisError as exc:
            report.notes.append(
                f"transfer-plan analysis skipped for {methodology}: {exc}"
            )

    interproc: Optional[InterprocAnalysis] = None
    try:
        interproc = analyze_interproc(program, facts, dataflows)
    except ReproError as exc:  # advisory: rules degrade, lint proceeds
        report.notes.append(f"interprocedural analysis skipped: {exc}")

    context = LintContext(
        program=program,
        order=order,
        link=link,
        cpi=cpi,
        dataflows=dataflows,
        reports=reports,
        trace=trace,
        interproc=interproc,
    )
    for rule in report.rules:
        report.findings.extend(rule.run(context))
    report.runtime_seconds = time.perf_counter() - started

    if metrics is not None:
        metrics.histogram("analyze_runtime_seconds").observe(
            report.runtime_seconds
        )
        metrics.gauge("analyze_methods").set(report.methods_analyzed)
        for finding in report.findings:
            metrics.counter(
                "analyze_findings_total",
                labels={
                    "rule": finding.rule_id,
                    "severity": finding.severity.value,
                },
            ).inc()
    if recorder is not None:
        for finding in report.findings:
            recorder.analysis_finding(
                report.runtime_seconds,
                rule=finding.rule_id,
                severity=finding.severity.value,
                target=finding.span.qualified_name,
            )
    return report
