"""``encode`` against the per-operand encoder it replaced.

``encode`` packs each instruction with one precompiled struct per
opcode.  The oracle below is the encoder it replaced: it reads each
instruction's operand kinds from :attr:`Instruction.info` and packs
every operand with the packer for its kind.  Both must write the same
bytes for every instruction list.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import (
    OPCODE_TABLE,
    Instruction,
    Opcode,
    OperandKind,
    decode,
    encode,
)

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

_PACKERS = {
    OperandKind.U1: struct.Struct(">B"),
    OperandKind.U2: struct.Struct(">H"),
    OperandKind.S2: struct.Struct(">h"),
    OperandKind.I4: struct.Struct(">i"),
}


def reference_encode(instructions):
    """The per-operand encoder: one packer lookup per operand kind."""
    parts = bytearray()
    for instruction in instructions:
        parts.append(int(instruction.opcode))
        for value, kind in zip(
            instruction.operands, instruction.info.operands
        ):
            parts += _PACKERS[kind].pack(value)
    return bytes(parts)


_RANGES = {
    OperandKind.U1: (0, 0xFF),
    OperandKind.U2: (0, 0xFFFF),
    OperandKind.S2: (-0x8000, 0x7FFF),
    OperandKind.I4: (-(2**31), 2**31 - 1),
}


def _operand(kind):
    low, high = _RANGES[kind]
    # The bounds themselves are drawn often: they are where a wrong
    # width or signedness shows.
    return st.one_of(st.sampled_from([low, high, 0]), st.integers(low, high))


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(sorted(Opcode)))
    operands = tuple(
        draw(_operand(kind)) for kind in OPCODE_TABLE[opcode].operands
    )
    return Instruction(opcode, operands)


@TIER1
@given(st.lists(instructions(), max_size=64))
def test_encode_matches_the_per_operand_encoder(instruction_list):
    blob = encode(instruction_list)
    assert blob == reference_encode(instruction_list)
    assert decode(blob) == instruction_list


def test_every_opcode_at_its_operand_bounds():
    for opcode, info in OPCODE_TABLE.items():
        for bound in (0, 1):
            operands = tuple(_RANGES[kind][bound] for kind in info.operands)
            instruction = Instruction(opcode, operands)
            assert encode([instruction]) == reference_encode([instruction])
