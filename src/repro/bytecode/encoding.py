"""Binary encoding and decoding of instruction streams.

The encoding is byte-exact: ``decode(encode(instructions))`` round-trips,
and the encoded length of each instruction equals ``Instruction.size``.
This matters because every transfer experiment in the paper is a function
of byte counts.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from ..errors import BytecodeError
from .instructions import Instruction
from .opcodes import OPCODE_TABLE, Opcode, OperandKind

__all__ = ["encode", "decode", "decode_one"]

_FORMATS = {
    OperandKind.U1: "B",
    OperandKind.U2: "H",
    OperandKind.S2: "h",
    OperandKind.I4: "i",
}

#: One struct per opcode for the opcode byte and all its operands, so
#: an instruction is written by a single pack (and read by a single
#: unpack), with no lookup of its operand kinds.
_STRUCTS = {
    opcode: struct.Struct(
        ">B" + "".join(_FORMATS[kind] for kind in info.operands)
    )
    for opcode, info in OPCODE_TABLE.items()
}
#: Each struct's bound ``pack``, looked up once here instead of once
#: per instruction.
_PACKS = {opcode: packer.pack for opcode, packer in _STRUCTS.items()}

_VALID_OPCODES = {int(opcode) for opcode in Opcode}


def encode(instructions: Sequence[Instruction]) -> bytes:
    """Encode an instruction sequence to its binary form."""
    packs = _PACKS
    return b"".join(
        [
            packs[instruction.opcode](
                instruction.opcode, *instruction.operands
            )
            for instruction in instructions
        ]
    )


def decode_one(code: bytes, offset: int) -> Instruction:
    """Decode the single instruction starting at ``offset``.

    Raises:
        BytecodeError: On an unknown opcode byte or a truncated stream.
    """
    if offset >= len(code):
        raise BytecodeError(f"offset {offset} beyond code end {len(code)}")
    opcode_byte = code[offset]
    if opcode_byte not in _VALID_OPCODES:
        raise BytecodeError(
            f"unknown opcode byte 0x{opcode_byte:02x} at offset {offset}"
        )
    opcode = Opcode(opcode_byte)
    unpacker = _STRUCTS[opcode]
    if offset + unpacker.size > len(code):
        raise BytecodeError(
            f"truncated {OPCODE_TABLE[opcode].mnemonic} operand "
            f"at offset {offset + 1}"
        )
    return Instruction(opcode, unpacker.unpack_from(code, offset)[1:])


def decode(code: bytes) -> List[Instruction]:
    """Decode a full code array into a list of instructions.

    The stream must end exactly on an instruction boundary.
    """
    instructions = []
    offset = 0
    while offset < len(code):
        instruction = decode_one(code, offset)
        instructions.append(instruction)
        offset += instruction.size
    return instructions
