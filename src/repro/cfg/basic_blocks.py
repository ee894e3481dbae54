"""Basic block partitioning of a method's bytecode.

Leaders are the first instruction, every branch target, and every
instruction following a branch or a return.  ``CALL`` does *not* end a
block — call sites are recorded inside the block, matching the paper's
traversal, which scans the blocks of a procedure for calls in order.

Flags and sizes come from the per-opcode tables of
:mod:`repro.bytecode.opcodes`, so partitioning reads no
:attr:`~repro.bytecode.Instruction.info`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..bytecode import BRANCHES, OPCODE_SIZES, RETURNS, Instruction, Opcode
from ..errors import CFGError

__all__ = ["CallSite", "BasicBlock", "partition_blocks"]

#: Opcodes after which a new block starts.
_ENDS_BLOCK = BRANCHES | RETURNS


@dataclass(frozen=True)
class CallSite:
    """A ``CALL`` instruction inside a basic block.

    Attributes:
        instruction_index: Index into the method's instruction list.
        pool_index: Constant pool index of the MethodRef operand.
    """

    instruction_index: int
    pool_index: int


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run.

    Attributes:
        block_id: Dense index, 0 for the entry block.
        start_offset: Byte offset of the first instruction.
        end_offset: Byte offset one past the final instruction, as the
            partition found it.
        instructions: The block's instructions.
        instruction_indexes: Their indexes in the method's code.
        call_sites: CALL sites in block order.
    """

    block_id: int
    start_offset: int
    end_offset: int
    instructions: List[Instruction]
    instruction_indexes: List[int]
    call_sites: List[CallSite]

    @property
    def size_bytes(self) -> int:
        return self.end_offset - self.start_offset

    @property
    def last(self) -> Instruction:
        if not self.instructions:
            raise CFGError(f"empty basic block {self.block_id}")
        return self.instructions[-1]

    @property
    def terminates(self) -> bool:
        """True when the block ends in a return."""
        return self.last.opcode in RETURNS

    def __len__(self) -> int:
        return len(self.instructions)


def partition_blocks(
    instructions: List[Instruction],
) -> Tuple[List[BasicBlock], Dict[int, int]]:
    """Split code into basic blocks.

    Returns:
        ``(blocks, offset_to_block)`` where ``offset_to_block`` maps a
        leader byte offset to its block id.

    Raises:
        CFGError: On empty code or a branch to a non-instruction offset.
    """
    if not instructions:
        raise CFGError("cannot partition empty code")
    sizes = OPCODE_SIZES
    count = len(instructions)
    # offsets[i] is instruction i's offset; offsets[count] is the end.
    offsets: List[int] = []
    leaders = {0}
    branches: List[Tuple[int, int]] = []  # (offset, target offset)
    calls: List[int] = []
    position = 0
    for index, instruction in enumerate(instructions):
        opcode = instruction.opcode
        offsets.append(position)
        if opcode in _ENDS_BLOCK:
            if opcode in BRANCHES:
                branches.append((position, position + instruction.operands[0]))
            leaders.add(index + 1)
        elif opcode == Opcode.CALL:
            calls.append(index)
        position += sizes[opcode]
    offsets.append(position)
    leaders.discard(count)

    if branches:
        index_at = dict(zip(offsets, range(count)))
        for offset, target in branches:
            leader = index_at.get(target)
            if leader is None:
                raise CFGError(
                    f"branch at offset {offset} targets {target}, which "
                    "is not an instruction boundary"
                )
            leaders.add(leader)

    starts = sorted(leaders)
    stops = starts[1:]
    stops.append(count)
    blocks: List[BasicBlock] = []
    offset_to_block: Dict[int, int] = {}
    pending_call = 0
    for block_id, (start, stop) in enumerate(zip(starts, stops)):
        call_sites = []
        while pending_call < len(calls) and calls[pending_call] < stop:
            call = calls[pending_call]
            call_sites.append(CallSite(call, instructions[call].operands[0]))
            pending_call += 1
        start_offset = offsets[start]
        blocks.append(
            BasicBlock(
                block_id,
                start_offset,
                offsets[stop],
                instructions[start:stop],
                list(range(start, stop)),
                call_sites,
            )
        )
        offset_to_block[start_offset] = block_id
    return blocks, offset_to_block
