"""Interprocedural call graph over a whole program.

Call edges keep their *intra-method order* (block id, then call-site
position), because the static first-use estimator processes call sites
in traversal order, not alphabetically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..errors import CFGError
from ..program import MethodId, Program
from .facts import ProgramFacts

__all__ = ["CallEdge", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class CallEdge:
    """One call site.

    Attributes:
        caller: The calling method.
        callee: The called method (may be external to the program).
        block_id: Basic block holding the call.
        instruction_index: Index of the CALL in the caller's code.
        internal: True when the callee is defined in the program.
    """

    caller: MethodId
    callee: MethodId
    block_id: int
    instruction_index: int
    internal: bool


class CallGraph:
    """Call edges for every method of a program, in program order."""

    def __init__(
        self, program: Program, edges: List[CallEdge], methods: List[MethodId]
    ) -> None:
        self.program = program
        self.edges = edges
        self._methods = methods
        self._out: Dict[MethodId, List[CallEdge]] = {}
        self._in: Dict[MethodId, List[CallEdge]] = {}
        for edge in edges:
            self._out.setdefault(edge.caller, []).append(edge)
            if edge.internal:
                self._in.setdefault(edge.callee, []).append(edge)
        for calls in self._out.values():
            calls.sort(key=lambda e: e.instruction_index)

    @property
    def methods(self) -> List[MethodId]:
        return list(self._methods)

    def calls_from(self, method_id: MethodId) -> List[CallEdge]:
        """Outgoing call edges in instruction order."""
        return list(self._out.get(method_id, []))

    def calls_to(self, method_id: MethodId) -> List[CallEdge]:
        return list(self._in.get(method_id, []))

    def callees(self, method_id: MethodId) -> List[MethodId]:
        """Internal callees in call-site order, deduplicated."""
        seen: Set[MethodId] = set()
        result: List[MethodId] = []
        for edge in self.calls_from(method_id):
            if edge.internal and edge.callee not in seen:
                seen.add(edge.callee)
                result.append(edge.callee)
        return result

    def external_callees(self, method_id: MethodId) -> List[MethodId]:
        return [
            edge.callee
            for edge in self.calls_from(method_id)
            if not edge.internal
        ]

    def reachable_from(self, root: MethodId) -> List[MethodId]:
        """Methods reachable from ``root`` (root first, BFS order)."""
        if root not in self._methods:
            raise CFGError(f"unknown method {root}")
        seen = {root}
        order = [root]
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for callee in self.callees(current):
                if callee not in seen:
                    seen.add(callee)
                    order.append(callee)
                    frontier.append(callee)
        return order

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` (optional dependency)."""
        import networkx

        graph = networkx.MultiDiGraph()
        for method_id in self._methods:
            graph.add_node(method_id)
        for edge in self.edges:
            graph.add_edge(
                edge.caller,
                edge.callee,
                block_id=edge.block_id,
                internal=edge.internal,
            )
        return graph


def build_call_graph(program: Program, facts: ProgramFacts) -> CallGraph:
    """Construct the program call graph from each method's CFG.

    ``facts`` are :func:`~repro.cfg.program_facts` of ``program`` (or
    of a copy sharing its method bodies, such as a restructured one).

    Raises:
        CFGError: If ``facts`` describe other code, any method body is
            structurally invalid, or a CALL operand does not resolve to
            a MethodRef.
    """
    edges: List[CallEdge] = []
    methods: List[MethodId] = []
    for classfile in program.classes:
        pool = classfile.constant_pool
        for method in classfile.methods:
            caller = MethodId(classfile.name, method.name)
            cfg, _ = facts.of(caller, method).require()
            methods.append(caller)
            for block in cfg.blocks:
                for call_site in block.call_sites:
                    class_name, method_name, _ = pool.member_ref(
                        call_site.pool_index
                    )
                    callee = MethodId(class_name, method_name)
                    edges.append(
                        CallEdge(
                            caller=caller,
                            callee=callee,
                            block_id=block.block_id,
                            instruction_index=call_site.instruction_index,
                            internal=program.has_method(callee),
                        )
                    )
    return CallGraph(program, edges, methods)
