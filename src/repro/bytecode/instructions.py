"""Instruction objects: a decoded view of one bytecode instruction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from ..errors import BytecodeError
from .opcodes import OPCODE_TABLE, Opcode, OperandKind

__all__ = ["Instruction", "SysCall", "instruction_size", "code_size"]


class SysCall:
    """Codes for the ``SYS`` intrinsic instruction.

    ``SYS`` models calls into the runtime system whose implementation is
    not visible to the instrumentation tool — the paper notes that e.g.
    window-system calls inflate per-program CPI because their cycles are
    attributed to a single bytecode.
    """

    PRINT = 0  # pop one value, append to VM output
    TIME = 1  # push the VM's virtual instruction counter
    RAND = 2  # push next value of the VM's seeded PRNG
    HALT = 3  # stop the program immediately
    BLACKHOLE = 4  # pop one value, discard (opaque sink)

    ALL = (PRINT, TIME, RAND, HALT, BLACKHOLE)

    #: (pops, pushes) per code, used by the verifier's stack model.
    STACK_EFFECT = {
        PRINT: (1, 0),
        TIME: (0, 1),
        RAND: (0, 1),
        HALT: (0, 0),
        BLACKHOLE: (1, 0),
    }


#: Encoded size of every opcode, computed once: sizes are summed over
#: every instruction whenever a class is laid out.
_SIZES = {opcode: info.size for opcode, info in OPCODE_TABLE.items()}

_OPERAND_RANGES = {
    OperandKind.U1: (0, 0xFF),
    OperandKind.U2: (0, 0xFFFF),
    OperandKind.S2: (-0x8000, 0x7FFF),
    OperandKind.I4: (-0x80000000, 0x7FFFFFFF),
}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: an opcode plus its operand values.

    Instances are immutable and validated on construction, so any
    ``Instruction`` that exists can be encoded.
    """

    opcode: Opcode
    operands: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        info = OPCODE_TABLE.get(self.opcode)
        if info is None:
            raise BytecodeError(f"unknown opcode: {self.opcode!r}")
        if len(self.operands) != len(info.operands):
            raise BytecodeError(
                f"{info.mnemonic} expects {len(info.operands)} operand(s), "
                f"got {len(self.operands)}"
            )
        for value, kind in zip(self.operands, info.operands):
            low, high = _OPERAND_RANGES[kind]
            if not low <= value <= high:
                raise BytecodeError(
                    f"{info.mnemonic} operand {value} out of range for "
                    f"{kind.value} [{low}, {high}]"
                )

    @property
    def info(self):
        """Static :class:`~repro.bytecode.opcodes.OpcodeInfo` metadata."""
        return OPCODE_TABLE[self.opcode]

    @property
    def size(self) -> int:
        """Encoded size in bytes."""
        return _SIZES[self.opcode]

    @property
    def mnemonic(self) -> str:
        return self.info.mnemonic

    @property
    def operand(self) -> int:
        """The sole operand, for single-operand instructions."""
        if len(self.operands) != 1:
            raise BytecodeError(
                f"{self.mnemonic} has {len(self.operands)} operands"
            )
        return self.operands[0]

    def branch_target(self, offset: int) -> int:
        """Absolute byte offset of the branch target.

        Args:
            offset: Byte offset of this instruction within its method.
        """
        if not self.info.is_branch:
            raise BytecodeError(f"{self.mnemonic} is not a branch")
        return offset + self.operand

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        rendered = ", ".join(str(value) for value in self.operands)
        return f"{self.mnemonic} {rendered}"


def instruction_size(opcode: Opcode) -> int:
    """Encoded size in bytes of any instruction with ``opcode``."""
    return _SIZES[opcode]


def code_size(instructions: Iterable[Instruction]) -> int:
    """Total encoded size in bytes of an instruction sequence."""
    return sum(_SIZES[instruction.opcode] for instruction in instructions)


def offsets_of(instructions: List[Instruction]) -> List[int]:
    """Byte offset of each instruction in a method's code array."""
    offsets = []
    position = 0
    for instruction in instructions:
        offsets.append(position)
        position += instruction.size
    return offsets
