"""Natural loop detection and the static loop-count heuristic inputs.

The paper's static first-use estimator (§4.1) prioritizes paths "with
the greatest number of static loops" and treats loop-exit edges
specially.  This module provides: back edges, natural loop bodies,
per-edge loop-exit classification, and the forward-reachable loop count
used as the path priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Collection, Dict, FrozenSet, List, Mapping, Set, Tuple

from .digraph import dominates, strongly_connected_components
from .graph import ControlFlowGraph, Edge, immediate_dominators

__all__ = ["NaturalLoop", "LoopAnalysis", "analyze_loops"]

_NO_LOOPS: FrozenSet[int] = frozenset()
#: The per-block loop indexes of a loop-free CFG: one shared read-only
#: mapping instead of two empty dicts per method.
_NO_BLOCKS: Mapping[int, Any] = MappingProxyType({})


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
        containing_headers: For each block inside some loop, the
            headers of every loop whose body holds it (blocks with the
            same loops share one frozenset).
        innermost_header: For each block inside some loop, the header
            of the smallest such loop (the first in ``loops`` order
            among equal sizes).

    Both indexes are read-only, and empty for a loop-free CFG.
    """

    loops: List[NaturalLoop]
    back_edges: Set[Tuple[int, int]]
    loop_headers: Set[int]
    loop_depth: Dict[int, int]
    forward_loop_count: Dict[int, int]
    forward_instruction_count: Dict[int, int]
    containing_headers: Mapping[int, FrozenSet[int]]
    innermost_header: Mapping[int, int]

    def is_back_edge(self, source: int, target: int) -> bool:
        return (source, target) in self.back_edges

    def is_loop_exit_edge(self, edge: Edge) -> bool:
        """True when the edge leaves a loop containing its source."""
        source_loops = self.containing_headers.get(edge.source)
        if source_loops is None:
            return False
        return not source_loops <= self.containing_headers.get(
            edge.target, _NO_LOOPS
        )


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
    containing: Dict[int, Set[int]] = {}
    innermost: Dict[int, int] = {}
    innermost_size: Dict[int, int] = {}
    for loop in loops:
        size = len(loop.body)
        for block_id in loop.body:
            loop_depth[block_id] += 1
            containing.setdefault(block_id, set()).add(loop.header)
            if size < innermost_size.get(block_id, size + 1):
                innermost_size[block_id] = size
                innermost[block_id] = loop.header

    # Dominance-based back-edge removal only breaks reducible cycles,
    # so irreducible regions and unreachable cycles survive in the
    # forward graph; the sweep runs over its SCC condensation.
    forward = _forward_edges(cfg, back_edges)
    loop_counts, forward_instructions = _forward_sweep(
        forward,
        strongly_connected_components(forward),
        bodies,
        {block.block_id: len(block) for block in cfg.blocks},
    )

    return LoopAnalysis(
        loops=loops,
        back_edges=back_edges,
        loop_headers=set(bodies),
        loop_depth=loop_depth,
        forward_loop_count=loop_counts,
        forward_instruction_count=forward_instructions,
        containing_headers=_shared_header_sets(containing),
        innermost_header=innermost if innermost else _NO_BLOCKS,
    )


def _shared_header_sets(
    containing: Dict[int, Set[int]]
) -> Mapping[int, FrozenSet[int]]:
    """``containing`` with frozen values, one object per distinct set.

    The blocks of one loop body mostly share their set of loops, so
    sharing the frozensets keeps the index small.
    """
    if not containing:
        return _NO_BLOCKS
    shared: Dict[FrozenSet[int], FrozenSet[int]] = {}
    index: Dict[int, FrozenSet[int]] = {}
    for block_id, headers in containing.items():
        frozen = frozenset(headers)
        index[block_id] = shared.setdefault(frozen, frozen)
    return index


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


def _forward_sweep(
    forward: Dict[int, List[int]],
    components: List[List[int]],
    headers: Collection[int],
    sizes: Dict[int, int],
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per block: loop headers and heaviest instruction path ahead.

    One pass over the SCC condensation in reverse topological order
    gives both of the estimator's path priorities, exactly even when
    the forward graph retains cycles (irreducible regions, unreachable
    cycles):

    * the number of distinct ``headers`` forward-reachable from the
      block — every member of a component reaches every other, so all
      members share the component's headers plus everything its exits
      reach;
    * the max-over-paths sum of ``sizes`` — "static instructions for
      each path of the graph", the tie-breaker.  A non-trivial SCC
      (irreducible residue the dominance-based back-edge filter could
      not break) counts the whole component once plus its heaviest
      exit path, matching how the reducible case charges a loop body
      once per static walk.
    """
    reached: Dict[int, Set[int]] = {}
    heaviest: Dict[int, int] = {}
    for component in components:
        members = set(component)
        ahead: Set[int] = set()
        internal = 0
        best_exit = 0
        for block_id in component:
            if block_id in headers:
                ahead.add(block_id)
            internal += sizes[block_id]
            for successor in forward[block_id]:
                if successor not in members:
                    ahead |= reached[successor]
                    if heaviest[successor] > best_exit:
                        best_exit = heaviest[successor]
        for block_id in component:
            reached[block_id] = ahead
            heaviest[block_id] = internal + best_exit
    return (
        {block_id: len(ahead) for block_id, ahead in reached.items()},
        heaviest,
    )
