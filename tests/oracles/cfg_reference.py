"""The CFG builders that per-opcode tables replaced.

``reference_partition_blocks`` and ``reference_build_cfg`` read every
instruction's flags and sizes through :attr:`Instruction.info`, and a
block's end offset sums its instructions again.
``reference_analyze_loops`` returns a loop analysis whose
``is_loop_exit_edge`` scans every loop for each edge, and
``reference_innermost_loop_header`` is the static estimator's scan for
the smallest loop holding a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode import Instruction, Opcode, offsets_of
from repro.cfg import (
    CallSite,
    ControlFlowGraph,
    Edge,
    EdgeKind,
    NaturalLoop,
    dominates,
    immediate_dominators,
    strongly_connected_components,
)
from repro.errors import CFGError


@dataclass
class ReferenceBlock:
    """A maximal straight-line instruction run."""

    block_id: int
    start_offset: int
    instructions: List[Instruction] = field(default_factory=list)
    instruction_indexes: List[int] = field(default_factory=list)
    call_sites: List[CallSite] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(instruction.size for instruction in self.instructions)

    @property
    def last(self) -> Instruction:
        if not self.instructions:
            raise CFGError(f"empty basic block {self.block_id}")
        return self.instructions[-1]

    @property
    def end_offset(self) -> int:
        return self.start_offset + self.size_bytes

    @property
    def terminates(self) -> bool:
        return self.last.info.is_return

    def __len__(self) -> int:
        return len(self.instructions)


def reference_partition_blocks(
    instructions: List[Instruction],
) -> Tuple[List[ReferenceBlock], Dict[int, int]]:
    if not instructions:
        raise CFGError("cannot partition empty code")
    offsets = offsets_of(instructions)
    offset_set = set(offsets)
    end = offsets[-1] + instructions[-1].size

    leaders = {0}
    for instruction, offset in zip(instructions, offsets):
        if instruction.info.is_branch:
            target = instruction.branch_target(offset)
            if target not in offset_set:
                raise CFGError(
                    f"branch at offset {offset} targets {target}, which "
                    "is not an instruction boundary"
                )
            leaders.add(target)
            next_offset = offset + instruction.size
            if next_offset < end:
                leaders.add(next_offset)
        elif instruction.info.is_return:
            next_offset = offset + instruction.size
            if next_offset < end:
                leaders.add(next_offset)

    blocks: List[ReferenceBlock] = []
    offset_to_block: Dict[int, int] = {}
    current: Optional[ReferenceBlock] = None
    for index, (instruction, offset) in enumerate(
        zip(instructions, offsets)
    ):
        if offset in leaders:
            current = ReferenceBlock(
                block_id=len(blocks), start_offset=offset
            )
            blocks.append(current)
            offset_to_block[offset] = current.block_id
        assert current is not None
        current.instructions.append(instruction)
        current.instruction_indexes.append(index)
        if instruction.opcode == Opcode.CALL:
            current.call_sites.append(
                CallSite(
                    instruction_index=index,
                    pool_index=instruction.operand,
                )
            )
    return blocks, offset_to_block


def reference_build_cfg(instructions: List[Instruction]) -> ControlFlowGraph:
    blocks, offset_to_block = reference_partition_blocks(instructions)
    block_count = len(blocks)
    edges: List[Edge] = []
    for block in blocks:
        last = block.last
        last_offset = block.end_offset - last.size
        if last.info.is_return:
            continue
        if last.info.is_branch:
            target_offset = last.branch_target(last_offset)
            target = offset_to_block.get(target_offset)
            if target is None:
                raise CFGError(
                    f"branch target offset {target_offset} is not a "
                    "block leader"
                )
            edges.append(Edge(block.block_id, target, EdgeKind.TAKEN))
            if last.info.is_conditional:
                if block.block_id + 1 >= block_count:
                    raise CFGError(
                        "conditional branch falls off the end of the code"
                    )
                edges.append(
                    Edge(
                        block.block_id,
                        block.block_id + 1,
                        EdgeKind.FALLTHROUGH,
                    )
                )
        else:
            if block.block_id + 1 >= block_count:
                raise CFGError("control falls off the end of the code")
            edges.append(
                Edge(
                    block.block_id,
                    block.block_id + 1,
                    EdgeKind.FALLTHROUGH,
                )
            )
    return ControlFlowGraph(blocks, edges)


@dataclass
class ReferenceLoopAnalysis:
    """Loop structure of one CFG, as ``LoopAnalysis`` held it."""

    loops: List[NaturalLoop]
    back_edges: Set[Tuple[int, int]]
    loop_headers: Set[int]
    loop_depth: Dict[int, int]
    forward_loop_count: Dict[int, int]
    forward_instruction_count: Dict[int, int]

    def is_back_edge(self, source: int, target: int) -> bool:
        return (source, target) in self.back_edges

    def is_loop_exit_edge(self, edge: Edge) -> bool:
        for loop in self.loops:
            if edge.source in loop and edge.target not in loop:
                return True
        return False


def reference_innermost_loop_header(
    analysis: ReferenceLoopAnalysis, block_id: int
) -> Optional[int]:
    """Header of the smallest loop containing ``block_id``."""
    best = None
    best_size = None
    for loop in analysis.loops:
        if block_id in loop:
            if best_size is None or len(loop.body) < best_size:
                best = loop.header
                best_size = len(loop.body)
    return best


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


def reference_analyze_loops(cfg: ControlFlowGraph) -> ReferenceLoopAnalysis:
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

    return ReferenceLoopAnalysis(
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

