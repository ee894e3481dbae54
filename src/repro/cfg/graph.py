"""Per-method control-flow graphs.

Edges carry a kind so the static first-use estimator can distinguish
fall-through from taken branches and identify loop-exit edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bytecode import Instruction
from ..errors import CFGError
from .basic_blocks import BasicBlock, partition_blocks
from .digraph import dominator_tree, reverse_postorder

__all__ = [
    "EdgeKind", "Edge", "ControlFlowGraph", "build_cfg", "immediate_dominators"
]


class EdgeKind(enum.Enum):
    """How control reaches a successor block."""

    FALLTHROUGH = "fallthrough"
    TAKEN = "taken"


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge between basic blocks."""

    source: int
    target: int
    kind: EdgeKind


class ControlFlowGraph:
    """Basic blocks plus directed edges for one method body."""

    def __init__(
        self, blocks: List[BasicBlock], edges: List[Edge]
    ) -> None:
        self.blocks = blocks
        self.edges = edges
        self._successors: Dict[int, List[Edge]] = {
            block.block_id: [] for block in blocks
        }
        self._predecessors: Dict[int, List[Edge]] = {
            block.block_id: [] for block in blocks
        }
        for edge in edges:
            self._successors[edge.source].append(edge)
            self._predecessors[edge.target].append(edge)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def __len__(self) -> int:
        return len(self.blocks)

    def block(self, block_id: int) -> BasicBlock:
        if not 0 <= block_id < len(self.blocks):
            raise CFGError(f"no basic block {block_id}")
        return self.blocks[block_id]

    def successors(self, block_id: int) -> List[int]:
        return [edge.target for edge in self._successors[block_id]]

    def successor_edges(self, block_id: int) -> List[Edge]:
        return list(self._successors[block_id])

    def predecessors(self, block_id: int) -> List[int]:
        return [edge.source for edge in self._predecessors[block_id]]

    def successor_map(self) -> Dict[int, List[int]]:
        """Block id → successor block ids, in edge order."""
        return {
            block_id: [edge.target for edge in edges]
            for block_id, edges in self._successors.items()
        }

    def reverse_postorder(self) -> List[int]:
        """Block ids in reverse postorder from the entry."""
        return reverse_postorder(self.entry.block_id, self.successor_map())

    @property
    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)


def build_cfg(instructions: List[Instruction]) -> ControlFlowGraph:
    """Build the CFG of a method body.

    Raises:
        CFGError: On empty or structurally invalid code.
    """
    blocks, offset_to_block = partition_blocks(instructions)
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


def immediate_dominators(cfg: ControlFlowGraph) -> Dict[int, Optional[int]]:
    """Block id → immediate dominator; entry → ``None``, unreachable absent."""
    return dominator_tree(cfg.entry.block_id, cfg.successor_map())
