"""A conservative model of the work done before each method's first use.

The transfer-plan analyzer needs to place every method's *first
invocation* on a timeline without running the program.  The sound
direction is a **lower bound**: at least how many instructions must the
VM execute, on *any* run, before ``m``'s first instruction?  If a
method's transfer unit provably arrives before even that minimum work
has been done, the method can never stall.

The bound is a shortest path over the interprocedural call structure:

* within one method, the cheapest route from the entry block to a call
  site is a block-level shortest path (Dijkstra; a block's weight is
  its instruction count), plus the call's position inside its block,
  plus one for the ``CALL`` itself — which always executes before the
  callee's first instruction;
* across methods, ``bound(callee) ≤ bound(caller) + cheapest route to
  any call site targeting it``, relaxed with a second Dijkstra over
  methods.

Callee bodies along the way are costed at the single ``CALL``
instruction — real executions only run *more* instructions, never
fewer, so the bound stays sound.  Recursion and mutual recursion need
no special casing: cycles simply never relax below the first entry
cost.  Methods unreachable from the entry point get an infinite bound
(and are dead-code candidates, which the transfer-plan analyzer
reports separately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..cfg import ControlFlowGraph, ProgramFacts, build_call_graph, shortest_paths
from ..program import MethodId, Program

__all__ = ["FirstUseLowerBounds", "first_use_lower_bounds"]


def _call_costs(cfg: ControlFlowGraph) -> Dict[int, float]:
    """Instruction index → min instructions through the CALL, for every
    call site reachable from the method entry."""
    # Minimum instructions executed before each block's first one:
    # leaving a block costs its instruction count.
    successors = cfg.successor_map()
    entry_costs = shortest_paths(
        cfg.entry.block_id,
        {
            block.block_id: [
                (target, len(block)) for target in successors[block.block_id]
            ]
            for block in cfg.blocks
        },
    )
    costs: Dict[int, float] = {}
    for block in cfg.blocks:
        base = entry_costs.get(block.block_id)
        if base is None:  # unreachable block: its calls never execute
            continue
        for call_site in block.call_sites:
            position = block.instruction_indexes.index(
                call_site.instruction_index
            )
            costs[call_site.instruction_index] = base + position + 1
    return costs


@dataclass
class FirstUseLowerBounds:
    """Sound lower bounds on pre-first-use work, per method.

    Attributes:
        entry: The program entry point the bounds are rooted at.
        bounds: Minimum instructions executed strictly before each
            method's first instruction; ``math.inf`` for methods not
            reachable from the entry through the call graph.
    """

    entry: MethodId
    bounds: Dict[MethodId, float]

    def bound(self, method_id: MethodId) -> float:
        return self.bounds.get(method_id, math.inf)

    def reachable(self, method_id: MethodId) -> bool:
        return math.isfinite(self.bound(method_id))


def first_use_lower_bounds(
    program: Program, facts: ProgramFacts
) -> FirstUseLowerBounds:
    """Compute per-method lower bounds on work before first use.

    Args:
        program: The program to analyze (restructured or not — the
            bounds depend only on code, not layout).
        facts: :func:`~repro.cfg.program_facts` of ``program``.

    Raises:
        CFGError: If a method body is structurally invalid, or
            ``facts`` describe other code.
        ClassFileError: If the program has no valid entry point.
    """
    graph = build_call_graph(program, facts)
    entry = program.resolve_entry()

    # Cheapest route from each caller's entry to each internal callee.
    cheapest_edge: Dict[MethodId, Dict[MethodId, float]] = {}
    for method_id in graph.methods:
        edges = [edge for edge in graph.calls_from(method_id) if edge.internal]
        if not edges:
            continue
        cfg, _ = facts.methods[method_id].require()
        cost_by_index = _call_costs(cfg)
        per_callee: Dict[MethodId, float] = {}
        for edge in edges:
            cost = cost_by_index.get(edge.instruction_index)
            if cost is None:  # call site in an unreachable block
                continue
            previous = per_callee.get(edge.callee)
            if previous is None or cost < previous:
                per_callee[edge.callee] = cost
        if per_callee:
            cheapest_edge[method_id] = per_callee

    costs = shortest_paths(
        entry, {m: list(edges.items()) for m, edges in cheapest_edge.items()}
    )
    bounds = {m: costs.get(m, math.inf) for m in graph.methods}
    return FirstUseLowerBounds(entry=entry, bounds=bounds)
