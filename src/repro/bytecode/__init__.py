"""The repro stack-machine bytecode ISA.

Public surface: opcodes and their metadata, immutable
:class:`~repro.bytecode.instructions.Instruction` objects, binary
encode/decode, a textual assembler with labels, a programmatic
:class:`~repro.bytecode.assembler.CodeBuilder`, and a disassembler.
"""

from .assembler import CodeBuilder, Label, assemble
from .disassembler import disassemble
from .encoding import decode, decode_one, encode
from .instructions import (
    Instruction,
    SysCall,
    code_size,
    instruction_size,
    offsets_of,
)
from .opcodes import (
    BRANCHES,
    COMPARE_BRANCHES,
    CONDITIONAL_BRANCHES,
    MNEMONICS,
    OPCODE_SIZES,
    OPCODE_TABLE,
    RETURNS,
    Opcode,
    OpcodeInfo,
    OperandKind,
    operand_size,
)

__all__ = [
    "CodeBuilder",
    "Label",
    "assemble",
    "disassemble",
    "decode",
    "decode_one",
    "encode",
    "Instruction",
    "SysCall",
    "code_size",
    "instruction_size",
    "offsets_of",
    "BRANCHES",
    "COMPARE_BRANCHES",
    "CONDITIONAL_BRANCHES",
    "MNEMONICS",
    "OPCODE_SIZES",
    "OPCODE_TABLE",
    "RETURNS",
    "Opcode",
    "OpcodeInfo",
    "OperandKind",
    "operand_size",
]
