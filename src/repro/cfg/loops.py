"""Natural loop detection and the static loop-count heuristic inputs.

The paper's static first-use estimator (§4.1) prioritizes paths "with
the greatest number of static loops" and treats loop-exit edges
specially.  This module provides: back edges, natural loop bodies,
per-edge loop-exit classification, and the forward-reachable loop count
used as the path priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .digraph import dominates, strongly_connected_components
from .graph import ControlFlowGraph, Edge, immediate_dominators

__all__ = ["NaturalLoop", "LoopAnalysis", "analyze_loops"]


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop.

    Attributes:
        header: Block id of the loop header.
        body: All block ids in the loop (header included).
        back_edges: The ``(tail, header)`` back edges forming it.
    """

    header: int
    body: FrozenSet[int]
    back_edges: Tuple[Tuple[int, int], ...]

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.body


@dataclass
class LoopAnalysis:
    """Loop structure of one CFG.

    Attributes:
        loops: Natural loops, merged per header.
        back_edges: All back edges ``(tail, header)``.
        loop_headers: Set of header block ids.
        loop_depth: Nesting depth per block (0 = not in any loop).
        forward_loop_count: For each block, how many distinct loop
            headers are reachable from it along *forward* (non-back)
            edges — the paper's "number of static loops" path priority.
        forward_instruction_count: Static instructions reachable along
            forward edges (tie-breaker).
    """

    loops: List[NaturalLoop]
    back_edges: Set[Tuple[int, int]]
    loop_headers: Set[int]
    loop_depth: Dict[int, int]
    forward_loop_count: Dict[int, int]
    forward_instruction_count: Dict[int, int]

    def is_back_edge(self, source: int, target: int) -> bool:
        return (source, target) in self.back_edges

    def is_loop_exit_edge(self, edge: Edge) -> bool:
        """True when the edge leaves a loop containing its source."""
        for loop in self.loops:
            if edge.source in loop and edge.target not in loop:
                return True
        return False


def _natural_loop_body(
    cfg: ControlFlowGraph, tail: int, header: int
) -> Set[int]:
    body = {header, tail}
    worklist = [tail]
    while worklist:
        current = worklist.pop()
        if current == header:
            continue
        for predecessor in cfg.predecessors(current):
            if predecessor not in body:
                body.add(predecessor)
                worklist.append(predecessor)
    return body


def analyze_loops(cfg: ControlFlowGraph) -> LoopAnalysis:
    """Compute the full :class:`LoopAnalysis` for a CFG."""
    idom = immediate_dominators(cfg)
    reachable = set(idom)

    back_edges: Set[Tuple[int, int]] = set()
    for edge in cfg.edges:
        if edge.source in reachable and dominates(
            idom, edge.target, edge.source
        ):
            back_edges.add((edge.source, edge.target))

    bodies: Dict[int, Set[int]] = {}
    edges_per_header: Dict[int, List[Tuple[int, int]]] = {}
    for tail, header in sorted(back_edges):
        body = _natural_loop_body(cfg, tail, header)
        bodies.setdefault(header, set()).update(body)
        edges_per_header.setdefault(header, []).append((tail, header))
    loops = [
        NaturalLoop(
            header=header,
            body=frozenset(bodies[header]),
            back_edges=tuple(edges_per_header[header]),
        )
        for header in sorted(bodies)
    ]

    loop_depth = {block.block_id: 0 for block in cfg.blocks}
    for loop in loops:
        for block_id in loop.body:
            loop_depth[block_id] += 1

    # Dominance-based back-edge removal only breaks reducible cycles,
    # so irreducible regions and unreachable cycles survive in the
    # forward graph; both sweeps run over its SCC condensation.
    forward = _forward_edges(cfg, back_edges)
    components = strongly_connected_components(forward)
    forward_headers = _forward_reachability(
        forward, components, {header: {header} for header in bodies}
    )
    loop_counts = {
        block_id: len(headers)
        for block_id, headers in forward_headers.items()
    }
    forward_instructions = _forward_sum(
        forward,
        components,
        {block.block_id: len(block) for block in cfg.blocks},
    )

    return LoopAnalysis(
        loops=loops,
        back_edges=back_edges,
        loop_headers=set(bodies),
        loop_depth=loop_depth,
        forward_loop_count=loop_counts,
        forward_instruction_count=forward_instructions,
    )


def _forward_edges(
    cfg: ControlFlowGraph, back_edges: Set[Tuple[int, int]]
) -> Dict[int, List[int]]:
    successors: Dict[int, List[int]] = {
        block.block_id: [] for block in cfg.blocks
    }
    for edge in cfg.edges:
        if (edge.source, edge.target) not in back_edges:
            successors[edge.source].append(edge.target)
    return successors


def _forward_reachability(
    forward: Dict[int, List[int]],
    components: List[List[int]],
    seed: Dict[int, Set[int]],
) -> Dict[int, Set[int]]:
    """Per-block union of ``seed`` over everything forward-reachable.

    Sweeps the SCC condensation in reverse topological order, so the
    result is exact even when the forward graph retains cycles
    (irreducible regions, unreachable cycles): every member of a
    component reaches every other, so all members share the union of
    the component's seeds plus everything its exits reach.
    """
    result: Dict[int, Set[int]] = {}
    for component in components:
        members = set(component)
        value: Set[int] = set()
        for block_id in component:
            value = value.union(seed.get(block_id, set()))
            for successor in forward[block_id]:
                if successor not in members:
                    value = value.union(result[successor])
        for block_id in component:
            result[block_id] = value
    return result


def _forward_sum(
    forward: Dict[int, List[int]],
    components: List[List[int]],
    seed: Dict[int, int],
) -> Dict[int, int]:
    """Max-over-paths sum of ``seed`` along the forward graph.

    Used as the estimator's tie-breaker: "static instructions for each
    path of the graph" — we take the heaviest path from each block.
    Non-trivial SCCs (irreducible residue the dominance-based back-edge
    filter could not break) are condensed: each member counts the whole
    component once plus the heaviest exit path, matching how the
    reducible case charges a loop body once per static walk.
    """
    result: Dict[int, int] = {}
    for component in components:
        members = set(component)
        internal = sum(seed.get(block_id, 0) for block_id in component)
        best_exit = 0
        for block_id in component:
            for successor in forward[block_id]:
                if successor not in members:
                    best_exit = max(best_exit, result[successor])
        for block_id in component:
            result[block_id] = internal + best_exit
    return result
