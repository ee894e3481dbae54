"""Interprocedural weighted call-graph analysis.

The paper's static (SCG) estimator treats every call edge as equally
likely and ships every method, even provably-dead ones.  This module is
the static-analysis layer that fixes both:

* **Reachability / RTA** — the ISA's ``CALL`` is direct (a U2
  MethodRef), so "resolving the feasible target set" means proving
  which call *sites* can execute at all: a site is *feasible* when the
  typed dataflow engine (:mod:`repro.analyze.dataflow`) found its
  instruction reachable inside a method that is itself reachable from
  ``main`` over feasible edges.  Every feasible internal site is
  therefore monomorphic ("devirtualized" — exactly one target); sites
  in dataflow-dead blocks and methods unreachable from the entry are
  pruned from the graph, which is how the analysis *sharpens* the plain
  call-graph reachability of :mod:`repro.cfg.callgraph`.

* **Ball–Larus-style static branch probabilities** — the classic
  non-loop heuristics (opcode/equality, call, return) combined
  Dempster–Shafer style on top of the loop-branch heuristic, yielding
  per-edge probabilities, per-block frequencies (loop trip counts
  capped), per-call-site frequencies, and — propagated over the
  call-graph SCC condensation — per-method invocation frequencies and
  weighted call edges.

* **Expected first-use distances** — a probability-discounted shortest
  path (in executed instructions) from the entry to every method: the
  static analogue of a first-use profile, consumed by
  :mod:`repro.reorder.weighted`.

* **Dead-method pruning** — :func:`prune_dead_methods` drops provably
  unreachable methods from the shipped program.  Classes and constant
  pools are never touched (surviving code references pools by index),
  so the pruned program is bytecode-compatible with the original; the
  soundness cross-check lives in ``tests/analyze/test_interproc.py``.

All of the paper's six workloads are fully reachable (zero dead
methods), so pruning is the identity there — the cross-check also runs
on dead-method-injected variants to exercise the interesting case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..bytecode.opcodes import OPCODE_TABLE, Opcode
from ..cfg import (
    BasicBlock,
    CallEdge,
    CallGraph,
    ControlFlowGraph,
    EdgeKind,
    LoopAnalysis,
    ProgramFacts,
    build_call_graph,
    dominates,
    dominator_tree,
    shortest_paths,
    strongly_connected_components,
)
from ..classfile.classfile import ClassFile
from ..errors import AnalysisError
from ..program import MethodId, Program
from .dataflow import MethodDataflow
from .domain import ValType

__all__ = [
    "BACK_EDGE_PROBABILITY",
    "MAX_CYCLIC_PROBABILITY",
    "BranchModel",
    "ResolvedCallSite",
    "MethodSummary",
    "InterprocAnalysis",
    "PruneResult",
    "analyze_interproc",
    "branch_probabilities",
    "block_frequencies",
    "prune_dead_methods",
]

#: Ball–Larus loop-branch heuristic: a back edge is taken ~88% of the
#: time (Ball & Larus 1993, Table 3).
BACK_EDGE_PROBABILITY = 0.88

#: Wu–Larus opcode heuristic: integer/pointer equality comparisons are
#: unlikely to succeed.
OPCODE_HEURISTIC_PROBABILITY = 0.84

#: Call heuristic: the successor *without* a call is more likely.
CALL_HEURISTIC_PROBABILITY = 0.78

#: Return heuristic: the successor that immediately returns is less
#: likely.
RETURN_HEURISTIC_PROBABILITY = 0.72

#: Cap on a loop's cyclic probability — bounds the geometric trip-count
#: estimate at 1 / (1 - cap) = 16 iterations per entry.
MAX_CYCLIC_PROBABILITY = 0.9375

#: Frequency multiplier applied inside recursive (non-trivial) SCCs of
#: the call graph: assume bounded recursion roughly doubles call counts.
RECURSION_FACTOR = 2.0

#: Damping for intra-SCC frequency relaxation (keeps the fixed-point
#: iteration convergent without solving the linear system exactly).
_SCC_DAMPING = 0.5
_SCC_ITERATIONS = 4

#: Floor applied to edge probabilities when discounting path distances,
#: so an "impossible" path contributes a finite but huge distance.
_MIN_PATH_PROBABILITY = 0.05

_EQUALITY_BRANCHES = frozenset({Opcode.IFEQ, Opcode.IF_ICMPEQ})
_INEQUALITY_BRANCHES = frozenset({Opcode.IFNE, Opcode.IF_ICMPNE})


def _combine(base: float, evidence: float) -> float:
    """Dempster–Shafer combination of two taken-probabilities."""
    numerator = base * evidence
    return numerator / (numerator + (1.0 - base) * (1.0 - evidence))


@dataclass(frozen=True)
class BranchModel:
    """Static branch probabilities and block frequencies of one CFG.

    Attributes:
        probabilities: Taken probability per CFG edge, keyed by
            ``(source block id, target block id)``.  Probabilities out
            of one block sum to 1.
        frequencies: Expected executions of each block per method
            entry; the entry block has frequency 1.0 and loop bodies
            are scaled by capped geometric trip counts.
    """

    probabilities: Mapping[Tuple[int, int], float]
    frequencies: Mapping[int, float]

    def probability(self, source: int, target: int) -> float:
        return self.probabilities.get((source, target), 0.0)

    def frequency(self, block_id: int) -> float:
        return self.frequencies.get(block_id, 0.0)


def _pointerish(dataflow: Optional[MethodDataflow], block: BasicBlock) -> bool:
    """Whether the block's compare-branch operands look like pointers.

    The shallow lattice's ARR/STR values play the role of pointers in
    Ball–Larus' pointer heuristic; an equality test between them is
    even less likely to succeed than an integer one, but we reuse the
    same opcode-heuristic weight — the refinement we take from the
    dataflow state is merely *whether the heuristic applies* when the
    operand kinds are known.
    """
    if dataflow is None or not block.instruction_indexes:
        return False
    index = block.instruction_indexes[-1]
    state = dataflow.entry_states.get(index)
    if state is None:
        return False
    stack = getattr(state, "stack", None)
    if not stack:
        return False
    return any(
        kind in (ValType.ARR, ValType.STR) for kind in list(stack)[-2:]
    )


def branch_probabilities(
    cfg: ControlFlowGraph,
    loops: LoopAnalysis,
    dataflow: Optional[MethodDataflow] = None,
) -> Dict[Tuple[int, int], float]:
    """Assign a static probability to every CFG edge.

    Heuristics, applied as Dempster–Shafer evidence on conditional
    two-way branches (unconditional edges get probability 1):

    * **loop**: a back edge is taken with :data:`BACK_EDGE_PROBABILITY`;
      a loop-exit edge opposite a loop-continuing edge gets the
      complement.
    * **opcode/equality**: ``ifeq``/``if_icmpeq`` succeed rarely,
      ``ifne``/``if_icmpne`` succeed often (pointer operands, as
      reported by the dataflow lattice, keep the same weight).
    * **call**: prefer the successor that does not immediately call.
    * **return**: avoid the successor that immediately returns.
    """
    result: Dict[Tuple[int, int], float] = {}
    for block in cfg.blocks:
        edges = cfg.successor_edges(block.block_id)
        if not edges:
            continue
        if len(edges) == 1:
            result[(edges[0].source, edges[0].target)] = 1.0
            continue
        if len(edges) > 2:  # pragma: no cover - binary branches only
            share = 1.0 / len(edges)
            for edge in edges:
                result[(edge.source, edge.target)] = share
            continue
        taken = next((e for e in edges if e.kind is EdgeKind.TAKEN), edges[0])
        fall = next((e for e in edges if e is not taken))
        taken_key = (taken.source, taken.target)
        fall_key = (fall.source, fall.target)

        probability = 0.5
        # Loop heuristic (dominant evidence, applied first).
        taken_back = loops.is_back_edge(taken.source, taken.target)
        fall_back = loops.is_back_edge(fall.source, fall.target)
        if taken_back and not fall_back:
            probability = _combine(probability, BACK_EDGE_PROBABILITY)
        elif fall_back and not taken_back:
            probability = _combine(probability, 1.0 - BACK_EDGE_PROBABILITY)
        else:
            taken_exit = loops.is_loop_exit_edge(taken)
            fall_exit = loops.is_loop_exit_edge(fall)
            if taken_exit and not fall_exit:
                probability = _combine(
                    probability, 1.0 - BACK_EDGE_PROBABILITY
                )
            elif fall_exit and not taken_exit:
                probability = _combine(probability, BACK_EDGE_PROBABILITY)

        # Opcode / equality heuristic (pointer-refined).
        opcode = block.last.opcode
        if opcode in _EQUALITY_BRANCHES or (
            opcode in _INEQUALITY_BRANCHES
            and _pointerish(dataflow, block)
        ):
            weight = (
                1.0 - OPCODE_HEURISTIC_PROBABILITY
                if opcode in _EQUALITY_BRANCHES
                else OPCODE_HEURISTIC_PROBABILITY
            )
            probability = _combine(probability, weight)
        elif opcode in _INEQUALITY_BRANCHES:
            probability = _combine(
                probability, OPCODE_HEURISTIC_PROBABILITY
            )

        # Call and return heuristics look one block ahead.
        def _has_call(block_id: int) -> bool:
            return bool(cfg.block(block_id).call_sites)

        def _returns(block_id: int) -> bool:
            target = cfg.block(block_id)
            return bool(target.instructions) and OPCODE_TABLE[
                target.last.opcode
            ].is_return

        taken_call, fall_call = _has_call(taken.target), _has_call(fall.target)
        if taken_call and not fall_call:
            probability = _combine(
                probability, 1.0 - CALL_HEURISTIC_PROBABILITY
            )
        elif fall_call and not taken_call:
            probability = _combine(probability, CALL_HEURISTIC_PROBABILITY)

        taken_ret, fall_ret = _returns(taken.target), _returns(fall.target)
        if taken_ret and not fall_ret:
            probability = _combine(
                probability, 1.0 - RETURN_HEURISTIC_PROBABILITY
            )
        elif fall_ret and not taken_ret:
            probability = _combine(probability, RETURN_HEURISTIC_PROBABILITY)

        result[taken_key] = probability
        result[fall_key] = 1.0 - probability
    return result


def block_frequencies(
    cfg: ControlFlowGraph,
    probabilities: Mapping[Tuple[int, int], float],
    loops: LoopAnalysis,
) -> Dict[int, float]:
    """Propagate branch probabilities into expected block frequencies.

    Frequencies are first propagated along *forward* edges only (the
    acyclic skeleton, in reverse postorder), then every natural loop
    scales its body by a geometric trip count derived from the loop's
    back-edge probability, capped at :data:`MAX_CYCLIC_PROBABILITY`.
    Nested loops multiply.  This is Wu–Larus' structural propagation in
    its simplest sound-for-ranking form — the consumers only need
    relative weights, not exact counts.
    """
    incoming_edges: Dict[int, List[Tuple[int, int]]] = {}
    for edge in cfg.edges:
        if loops.is_back_edge(edge.source, edge.target):
            continue
        incoming_edges.setdefault(edge.target, []).append(
            (edge.source, edge.target)
        )
    frequencies: Dict[int, float] = {cfg.entry.block_id: 1.0}
    for block_id in cfg.reverse_postorder():
        if block_id == cfg.entry.block_id:
            continue
        frequencies[block_id] = sum(
            frequencies.get(source, 0.0) * probabilities.get((source, target), 0.0)
            for source, target in incoming_edges.get(block_id, [])
        )
    for loop in loops.loops:
        cyclic = min(
            MAX_CYCLIC_PROBABILITY,
            sum(
                probabilities.get((tail, header), 0.0)
                for tail, header in loop.back_edges
            ),
        )
        trip = 1.0 / (1.0 - cyclic)
        for block_id in loop.body:
            if block_id in frequencies:
                frequencies[block_id] *= trip
    return frequencies


@dataclass(frozen=True)
class ResolvedCallSite:
    """One CALL instruction with its RTA-resolved feasible target set.

    Attributes:
        caller: Method containing the call.
        block_id: Basic block of the call instruction.
        instruction_index: Index of the CALL in the caller's code.
        targets: Feasible internal targets.  The ISA is direct-call, so
            a feasible internal site always has exactly one — the
            "devirtualized" case; an infeasible site has none.
        external_class: Callee class name when the target is not
            defined by the program (the VM's modeled external call).
        torn: True when the callee *class* is defined by the program
            but the named method is missing — a torn reference that
            faults under strict linking.
        feasible: False when the site lies in a dataflow-unreachable
            block or an interprocedurally dead method.
        frequency: Expected executions per program run.
    """

    caller: MethodId
    block_id: int
    instruction_index: int
    targets: Tuple[MethodId, ...]
    external_class: Optional[str]
    torn: bool
    feasible: bool
    frequency: float

    @property
    def monomorphic(self) -> bool:
        return self.feasible and len(self.targets) == 1


@dataclass(frozen=True)
class MethodSummary:
    """Per-method results of the interprocedural analysis."""

    method: MethodId
    reachable: bool
    frequency: float
    expected_first_use: float
    branch_model: BranchModel


@dataclass
class InterprocAnalysis:
    """Whole-program result of :func:`analyze_interproc`.

    Attributes:
        program: The analyzed program.
        call_graph: The underlying (unsharpened) call graph.
        entry: Resolved entry method.
        summaries: Per-method summaries, in program (file) order.
        call_sites: Every CALL site with its resolution.
        reachable: Methods reachable from the entry over *feasible*
            call edges — a subset of plain call-graph reachability.
        dead: Unreachable methods, in program order.
        edge_weights: Expected executions of every feasible internal
            call edge (caller frequency × site frequency).
        immediate_dominators: Immediate dominator of each reachable
            method in the feasible call graph (entry maps to None).
    """

    program: Program
    call_graph: CallGraph
    entry: MethodId
    summaries: Dict[MethodId, MethodSummary]
    call_sites: Tuple[ResolvedCallSite, ...]
    reachable: FrozenSet[MethodId]
    dead: Tuple[MethodId, ...]
    edge_weights: Dict[CallEdge, float]
    immediate_dominators: Dict[MethodId, Optional[MethodId]]

    @property
    def monomorphic_sites(self) -> List[ResolvedCallSite]:
        """Feasible, devirtualized (single-target) internal call sites."""
        return [site for site in self.call_sites if site.monomorphic]

    @property
    def torn_sites(self) -> List[ResolvedCallSite]:
        """Feasible sites naming a missing method of an internal class."""
        return [
            site for site in self.call_sites if site.feasible and site.torn
        ]

    @property
    def external_sites(self) -> List[ResolvedCallSite]:
        """Feasible sites whose callee class the program does not define."""
        return [
            site
            for site in self.call_sites
            if site.feasible and site.external_class is not None and not site.torn
        ]

    def frequency(self, method: MethodId) -> float:
        return self.summaries[method].frequency

    def expected_first_use(self, method: MethodId) -> float:
        return self.summaries[method].expected_first_use

    def dominates(self, dominator: MethodId, method: MethodId) -> bool:
        """True when every call chain reaching ``method`` first runs
        ``dominator`` — i.e. ``dominator``'s first use provably
        precedes ``method``'s in any execution."""
        return dominates(self.immediate_dominators, dominator, method)


def _feasible_indexes(dataflow: MethodDataflow) -> Optional[Set[int]]:
    """Instruction indexes proven reachable, or None for "assume all".

    When the dataflow engine reported issues its reachability facts are
    not trustworthy, so every call site is conservatively feasible.
    """
    if not dataflow.ok or dataflow.cfg is None:
        return None
    return set(dataflow.entry_states)


def _method_scc_frequencies(
    entry: MethodId,
    nodes: Sequence[MethodId],
    edges: Mapping[MethodId, List[Tuple[MethodId, float]]],
) -> Dict[MethodId, float]:
    """Propagate invocation frequencies over the call-graph SCC DAG."""
    index_of = {node: i for i, node in enumerate(nodes)}
    components = strongly_connected_components(
        {node: [target for target, _ in edges.get(node, [])] for node in nodes}
    )
    # Tarjan emits components in reverse topological order.
    components.reverse()

    frequencies: Dict[MethodId, float] = {node: 0.0 for node in nodes}
    frequencies[entry] = 1.0
    for component in components:
        members = set(component)
        recursive = len(component) > 1 or any(
            target in members
            for member in component
            for target, _ in edges.get(member, [])
        )
        if recursive:
            boost = RECURSION_FACTOR
            for _ in range(_SCC_ITERATIONS):
                for member in sorted(members, key=lambda m: index_of[m]):
                    internal = sum(
                        frequencies[src] * weight * _SCC_DAMPING
                        for src in members
                        for target, weight in edges.get(src, [])
                        if target == member
                    )
                    external = frequencies[member]
                    frequencies[member] = max(external, internal)
            for member in members:
                frequencies[member] *= boost
        # Push this component's settled frequencies downstream.
        for member in component:
            for target, weight in edges.get(member, []):
                if target in members:
                    continue
                frequencies[target] += frequencies[member] * weight
    return frequencies


def _discounted_edges(
    cfg: ControlFlowGraph, probabilities: Mapping[Tuple[int, int], float]
) -> Dict[int, List[Tuple[int, float]]]:
    """CFG edges costed in discounted instructions.

    Edge cost is the source block's instruction count divided by the
    edge probability (floored), so unlikely paths look long without
    becoming unreachable.
    """
    edges: Dict[int, List[Tuple[int, float]]] = {}
    for block in cfg.blocks:
        edges[block.block_id] = []
        for edge in cfg.successor_edges(block.block_id):
            probability = probabilities.get((edge.source, edge.target), 0.0)
            cost = len(block) / max(probability, _MIN_PATH_PROBABILITY)
            edges[block.block_id].append((edge.target, cost))
    return edges


def analyze_interproc(
    program: Program,
    facts: ProgramFacts,
    dataflows: Mapping[MethodId, MethodDataflow],
) -> InterprocAnalysis:
    """Run the full interprocedural analysis over ``program``.

    Rooted at the program's entry point.  ``facts`` are its
    :func:`~repro.cfg.program_facts` and ``dataflows`` its
    :func:`~repro.analyze.dataflow.analyze_program` over them.

    Raises:
        CFGError: If a method body is structurally invalid, or
            ``facts`` describe other code.
        AnalysisError: If ``dataflows`` miss a method or were run over
            other CFGs.
        ClassFileError: If the program has no valid entry point.
    """
    call_graph = build_call_graph(program, facts)
    entry_id = program.resolve_entry()

    # Per-method intraprocedural facts.
    branch_models: Dict[MethodId, BranchModel] = {}
    feasible_sets: Dict[MethodId, Optional[Set[int]]] = {}
    reach_costs: Dict[MethodId, Dict[int, float]] = {}
    for method_id in call_graph.methods:
        cfg, loops = facts.methods[method_id].require()
        dataflow = dataflows.get(method_id)
        if dataflow is None or (
            dataflow.cfg is not None and dataflow.cfg is not cfg
        ):
            raise AnalysisError(
                f"no dataflow of {method_id} over the given facts"
            )
        probabilities = branch_probabilities(cfg, loops, dataflow)
        frequencies = block_frequencies(cfg, probabilities, loops)
        branch_models[method_id] = BranchModel(
            probabilities=probabilities, frequencies=frequencies
        )
        feasible_sets[method_id] = _feasible_indexes(dataflow)
        reach_costs[method_id] = shortest_paths(
            cfg.entry.block_id, _discounted_edges(cfg, probabilities)
        )

    def site_feasible(edge: CallEdge) -> bool:
        feasible = feasible_sets.get(edge.caller)
        return feasible is None or edge.instruction_index in feasible

    # Feasible internal call edges, per caller, in call-site order.
    feasible_edges: Dict[MethodId, List[CallEdge]] = {
        caller: [
            edge
            for edge in call_graph.calls_from(caller)
            if edge.internal and site_feasible(edge)
        ]
        for caller in call_graph.methods
    }
    # The dominator tree spans exactly the methods reachable from the
    # entry over feasible edges.
    idoms = dominator_tree(
        entry_id,
        {
            caller: [edge.callee for edge in edges]
            for caller, edges in feasible_edges.items()
        },
    )
    reachable = set(idoms)
    nodes = [m for m in call_graph.methods if m in reachable]
    # Per-site frequencies, and instruction distances to each site.
    weighted_edges: Dict[MethodId, List[Tuple[MethodId, float]]] = {}
    site_cost_lists: Dict[MethodId, List[Tuple[MethodId, float]]] = {}
    for caller in nodes:
        model = branch_models[caller]
        costs = reach_costs[caller]
        weighted_edges[caller] = [
            (edge.callee, model.frequency(edge.block_id))
            for edge in feasible_edges[caller]
        ]
        site_cost_lists[caller] = [
            (edge.callee, costs[edge.block_id] + 1.0)
            for edge in feasible_edges[caller]
            if edge.block_id in costs
        ]

    frequencies = _method_scc_frequencies(entry_id, nodes, weighted_edges)
    first_use = shortest_paths(entry_id, site_cost_lists)
    edge_weights: Dict[CallEdge, float] = {
        edge: frequencies[caller] * branch_models[caller].frequency(
            edge.block_id
        )
        for caller in nodes
        for edge in feasible_edges[caller]
    }

    # Resolve every call site.
    class_names = set(program.class_names)
    call_sites: List[ResolvedCallSite] = []
    for method_id in call_graph.methods:
        caller_reachable = method_id in reachable
        model = branch_models[method_id]
        for edge in call_graph.calls_from(method_id):
            feasible = caller_reachable and site_feasible(edge)
            torn = (
                not edge.internal and edge.callee.class_name in class_names
            )
            call_sites.append(
                ResolvedCallSite(
                    caller=method_id,
                    block_id=edge.block_id,
                    instruction_index=edge.instruction_index,
                    targets=(edge.callee,) if edge.internal else (),
                    external_class=(
                        None if edge.internal else edge.callee.class_name
                    ),
                    torn=torn,
                    feasible=feasible,
                    frequency=(
                        frequencies.get(method_id, 0.0)
                        * model.frequency(edge.block_id)
                        if feasible
                        else 0.0
                    ),
                )
            )

    summaries: Dict[MethodId, MethodSummary] = {}
    dead: List[MethodId] = []
    for method_id in program.method_ids():
        is_reachable = method_id in reachable
        if not is_reachable:
            dead.append(method_id)
        summaries[method_id] = MethodSummary(
            method=method_id,
            reachable=is_reachable,
            frequency=frequencies.get(method_id, 0.0),
            expected_first_use=first_use.get(method_id, math.inf),
            branch_model=branch_models[method_id],
        )

    return InterprocAnalysis(
        program=program,
        call_graph=call_graph,
        entry=entry_id,
        summaries=summaries,
        call_sites=tuple(call_sites),
        reachable=frozenset(reachable),
        dead=tuple(dead),
        edge_weights=edge_weights,
        immediate_dominators=idoms,
    )


@dataclass(frozen=True)
class PruneResult:
    """Outcome of :func:`prune_dead_methods`.

    Attributes:
        program: The pruned program (identical object layout: same
            classes in the same order, same constant pools, dead
            methods removed).
        pruned: The removed methods, in program order.
        bytes_saved: Total static size of the removed methods.
    """

    program: Program
    pruned: Tuple[MethodId, ...]
    bytes_saved: int


def prune_dead_methods(
    program: Program, analysis: InterprocAnalysis
) -> PruneResult:
    """Drop provably-unreachable methods from the shipped program.

    Soundness: only methods the interprocedural RTA proves unreachable
    from the entry are removed; classes and constant pools are kept
    verbatim (surviving code addresses pools by index), and classes
    whose methods are all dead remain as data-only classes, so the
    surviving program links and executes exactly as before.

    Args:
        program: The program to prune.
        analysis: ``program``'s :func:`analyze_interproc` result.

    Raises:
        AnalysisError: If ``analysis`` is another program's.
    """
    if analysis.program is not program:
        raise AnalysisError("prune needs the analysis of this program")
    dead = set(analysis.dead)
    if not dead:
        return PruneResult(program=program, pruned=(), bytes_saved=0)
    pruned: List[MethodId] = []
    bytes_saved = 0
    classes: List[ClassFile] = []
    for classfile in program.classes:
        kept = []
        for method in classfile.methods:
            method_id = MethodId(classfile.name, method.name)
            if method_id in dead:
                pruned.append(method_id)
                bytes_saved += method.size
            else:
                kept.append(method)
        if len(kept) == len(classfile.methods):
            classes.append(classfile)
        else:
            classes.append(replace(classfile, methods=kept))
    new_program = replace(program, classes=classes)
    return PruneResult(
        program=new_program, pruned=tuple(pruned), bytes_saved=bytes_saved
    )
