"""Static first-use estimation (paper §4.1).

A modified depth-first search over the interprocedural control-flow
graph predicts the order in which procedures will first execute:

* At a forward conditional branch, the path with the **greatest number
  of static loops** ahead of it is followed first (looping implies code
  reuse and therefore overlap opportunity); ties fall to the path with
  the most static instructions.
* Inside a loop, **all basic blocks of the loop body are traversed
  (searching for procedure calls) before any loop-exit edge** is
  followed.  Loop-exit and back edges encountered at conditional
  branches are pushed as ``(block id, loop-header id)`` place-holder
  pairs on a stack, and popped — resuming the pseudo-DFS on the exit
  edges — once the loop body is exhausted.
* The order in which procedures are first encountered during the
  traversal is the predicted first-use order; call sites are visited in
  block-traversal order, recursing into unvisited callees.

Methods not reachable from the entry point are appended in program file
order, so the result is a total order (the paper places unexecuted
procedures "during placement using the static approach").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cfg import (
    CallGraph,
    ControlFlowGraph,
    Edge,
    LoopAnalysis,
    ProgramFacts,
    build_call_graph,
    program_facts,
)
from ..program import MethodId, Program
from .first_use import FirstUseOrder, laid_out_entries

__all__ = ["StaticFirstUseEstimator", "estimate_first_use"]


def _edge_priority(
    analysis: LoopAnalysis, edge: Edge
) -> Tuple[int, int]:
    """Sort key for forward edges: loops ahead, then instructions."""
    return (
        analysis.forward_loop_count.get(edge.target, 0),
        analysis.forward_instruction_count.get(edge.target, 0),
    )


class _MethodTraversal:
    """The modified DFS over one method's CFG, yielding call sites.

    With ``loop_priority=False`` the heuristics are disabled (plain
    DFS in textual successor order, no loop-exit deferral) — the
    ablation baseline for the paper's §4.1 heuristics.
    """

    def __init__(
        self, cfg: ControlFlowGraph, analysis: LoopAnalysis, loop_priority: bool = True
    ) -> None:
        self.cfg = cfg
        self.analysis = analysis
        self.loop_priority = loop_priority
        self.block_order: List[int] = []
        self._visited: Set[int] = set()
        # The paper's place-holder stack of (block id, loop header id).
        self._deferred: List[Tuple[int, int]] = []
        self._run()

    def _innermost_loop_header(self, block_id: int) -> Optional[int]:
        """Header of the smallest loop containing ``block_id``."""
        best = None
        best_size = None
        for loop in self.analysis.loops:
            if block_id in loop:
                if best_size is None or len(loop.body) < best_size:
                    best = loop.header
                    best_size = len(loop.body)
        return best

    def _run(self) -> None:
        self._dfs(self.cfg.entry.block_id)
        # Pop place-holders: continue on loop-exit edges only after the
        # loop bodies have been fully traversed.
        while self._deferred:
            target, _header = self._deferred.pop()
            self._dfs(target)

    def _dfs(self, root: int) -> None:
        stack = [root]
        while stack:
            block_id = stack.pop()
            if block_id in self._visited:
                continue
            self._visited.add(block_id)
            self.block_order.append(block_id)

            forward: List[Edge] = []
            for edge in self.cfg.successor_edges(block_id):
                if self.analysis.is_back_edge(edge.source, edge.target):
                    # Control returns to the loop header: nothing new.
                    continue
                if self.loop_priority and self.analysis.is_loop_exit_edge(
                    edge
                ):
                    header = self._innermost_loop_header(edge.source)
                    if header is not None:
                        self._deferred.append((edge.target, header))
                        continue
                forward.append(edge)
            if self.loop_priority:
                # Follow the loop-richest path first: push lower-priority
                # targets deeper so the highest priority pops first.
                forward.sort(
                    key=lambda e: _edge_priority(self.analysis, e)
                )
            else:
                # Plain DFS: textual order (reversed so the first
                # successor pops first).
                forward.reverse()
            for edge in forward:
                if edge.target not in self._visited:
                    stack.append(edge.target)

    def call_pool_order(self) -> List[int]:
        """Call-site instruction indexes in traversal order."""
        order: List[int] = []
        for block_id in self.block_order:
            block = self.cfg.block(block_id)
            for call_site in block.call_sites:
                order.append(call_site.instruction_index)
        return order


class StaticFirstUseEstimator:
    """Predicts a program's first-use order without executing it.

    Args:
        program: The program to analyze.
        facts: :func:`~repro.cfg.program_facts` of ``program``; raises
            :class:`~repro.errors.CFGError` if a method's CFG failed.
        loop_priority: Enable the §4.1 heuristics (loop-priority path
            selection and loop-exit deferral).  Disable for the
            plain-DFS ablation baseline.
    """

    def __init__(
        self, program: Program, facts: ProgramFacts, loop_priority: bool = True
    ) -> None:
        self.program = program
        self.facts = facts
        self.loop_priority = loop_priority
        self.call_graph: CallGraph = build_call_graph(program, facts)
        self._traversals: Dict[MethodId, _MethodTraversal] = {}

    def traversal(self, method_id: MethodId) -> _MethodTraversal:
        if method_id not in self._traversals:
            # build_call_graph checked every method's facts.
            cfg, loops = self.facts.methods[method_id].require()
            self._traversals[method_id] = _MethodTraversal(
                cfg, loops, loop_priority=self.loop_priority
            )
        return self._traversals[method_id]

    def _ordered_callees(self, method_id: MethodId) -> List[MethodId]:
        """Internal callees in modified-DFS traversal order."""
        call_order = {
            instruction_index: position
            for position, instruction_index in enumerate(
                self.traversal(method_id).call_pool_order()
            )
        }
        edges = [
            edge
            for edge in self.call_graph.calls_from(method_id)
            if edge.internal and edge.instruction_index in call_order
        ]
        edges.sort(key=lambda e: call_order[e.instruction_index])
        seen: Set[MethodId] = set()
        callees: List[MethodId] = []
        for edge in edges:
            if edge.callee not in seen:
                seen.add(edge.callee)
                callees.append(edge.callee)
        return callees

    def estimate(self) -> FirstUseOrder:
        """Produce the static first-use order for the whole program."""
        entry = self.program.resolve_entry()
        order: List[MethodId] = []
        visited: Set[MethodId] = set()

        def visit(method_id: MethodId) -> None:
            stack = [method_id]
            while stack:
                current = stack.pop()
                if current in visited:
                    continue
                visited.add(current)
                order.append(current)
                callees = self._ordered_callees(current)
                # Depth-first: earliest call site explored first.
                for callee in reversed(callees):
                    if callee not in visited:
                        stack.append(callee)

        visit(entry)
        # Unreachable methods: append in program file order.
        for method_id in self.program.method_ids():
            if method_id not in visited:
                visited.add(method_id)
                order.append(method_id)

        entries = laid_out_entries(self.program, order)
        result = FirstUseOrder(entries=entries, source="static")
        result.validate_against(self.program)
        return result


def estimate_first_use(
    program: Program, loop_priority: bool = True
) -> FirstUseOrder:
    """Static first-use order of ``program``, from freshly built facts."""
    return StaticFirstUseEstimator(
        program, program_facts(program), loop_priority=loop_priority
    ).estimate()
