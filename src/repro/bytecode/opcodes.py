"""Opcode definitions for the repro stack-machine ISA.

The instruction set is deliberately JVM-flavoured: a small operand stack
machine with local variable slots, a per-class constant pool addressed by
16-bit indices, relative 16-bit branch offsets, and call/return through
``MethodRef`` constant pool entries.  Only the properties the paper's
experiments depend on are modelled: instruction *sizes* (for byte layout
and transfer), *control flow* (for CFG construction and the static
first-use estimator), and *dynamic counts* (for the CPI execution model).

Operand kinds
-------------
``u1``
    Unsigned 8-bit immediate (local variable slot, intrinsic code).
``u2``
    Unsigned 16-bit constant pool index.
``s2``
    Signed 16-bit branch offset, relative to the *start* of the branch
    instruction (as in the JVM).
``i4``
    Signed 32-bit integer immediate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "Opcode",
    "OperandKind",
    "OpcodeInfo",
    "OPCODE_TABLE",
    "MNEMONICS",
    "OPCODE_SIZES",
    "BRANCHES",
    "RETURNS",
    "CONDITIONAL_BRANCHES",
    "COMPARE_BRANCHES",
    "operand_size",
]


class OperandKind(enum.Enum):
    """Kind (and therefore encoded width) of one instruction operand."""

    U1 = "u1"
    U2 = "u2"
    S2 = "s2"
    I4 = "i4"


_WIDTHS = {
    OperandKind.U1: 1,
    OperandKind.U2: 2,
    OperandKind.S2: 2,
    OperandKind.I4: 4,
}


def operand_size(kind: OperandKind) -> int:
    """Return the encoded width in bytes of an operand of ``kind``."""
    return _WIDTHS[kind]


class Opcode(enum.IntEnum):
    """All opcodes of the ISA.  Values are the encoded opcode bytes."""

    NOP = 0x00
    ICONST = 0x01
    LDC = 0x02
    LOAD = 0x03
    STORE = 0x04
    GETSTATIC = 0x05
    PUTSTATIC = 0x06

    ADD = 0x10
    SUB = 0x11
    MUL = 0x12
    DIV = 0x13
    MOD = 0x14
    NEG = 0x15
    AND = 0x16
    OR = 0x17
    XOR = 0x18
    SHL = 0x19
    SHR = 0x1A

    DUP = 0x20
    POP = 0x21
    SWAP = 0x22

    IFEQ = 0x30
    IFNE = 0x31
    IFLT = 0x32
    IFGE = 0x33
    IFGT = 0x34
    IFLE = 0x35
    IF_ICMPEQ = 0x36
    IF_ICMPNE = 0x37
    IF_ICMPLT = 0x38
    IF_ICMPGE = 0x39
    IF_ICMPGT = 0x3A
    IF_ICMPLE = 0x3B
    GOTO = 0x3C

    CALL = 0x40
    RETURN = 0x41
    IRETURN = 0x42

    NEWARRAY = 0x50
    ALOAD = 0x51
    ASTORE = 0x52
    ARRAYLEN = 0x53

    SYS = 0x60


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata describing one opcode.

    Attributes:
        mnemonic: Lower-case assembler mnemonic.
        operands: Operand kinds, in encoding order.
        pops: Operands popped from the stack (``-1`` = data dependent,
            e.g. ``CALL`` pops the callee's arity).
        pushes: Values pushed onto the stack (``-1`` = data dependent).
        is_branch: True for all control transfers with an ``s2`` target.
        is_conditional: True for branches that may fall through.
        is_call: True for ``CALL``.
        is_return: True for ``RETURN``/``IRETURN``.
    """

    mnemonic: str
    operands: Tuple[OperandKind, ...] = ()
    pops: int = 0
    pushes: int = 0
    is_branch: bool = False
    is_conditional: bool = False
    is_call: bool = False
    is_return: bool = False

    @property
    def size(self) -> int:
        """Encoded size in bytes: one opcode byte plus the operands."""
        return 1 + sum(operand_size(kind) for kind in self.operands)


def _cond(mnemonic: str, pops: int) -> OpcodeInfo:
    return OpcodeInfo(
        mnemonic,
        (OperandKind.S2,),
        pops=pops,
        is_branch=True,
        is_conditional=True,
    )


OPCODE_TABLE: Dict[Opcode, OpcodeInfo] = {
    Opcode.NOP: OpcodeInfo("nop"),
    Opcode.ICONST: OpcodeInfo("iconst", (OperandKind.I4,), pushes=1),
    Opcode.LDC: OpcodeInfo("ldc", (OperandKind.U2,), pushes=1),
    Opcode.LOAD: OpcodeInfo("load", (OperandKind.U1,), pushes=1),
    Opcode.STORE: OpcodeInfo("store", (OperandKind.U1,), pops=1),
    Opcode.GETSTATIC: OpcodeInfo("getstatic", (OperandKind.U2,), pushes=1),
    Opcode.PUTSTATIC: OpcodeInfo("putstatic", (OperandKind.U2,), pops=1),
    Opcode.ADD: OpcodeInfo("add", pops=2, pushes=1),
    Opcode.SUB: OpcodeInfo("sub", pops=2, pushes=1),
    Opcode.MUL: OpcodeInfo("mul", pops=2, pushes=1),
    Opcode.DIV: OpcodeInfo("div", pops=2, pushes=1),
    Opcode.MOD: OpcodeInfo("mod", pops=2, pushes=1),
    Opcode.NEG: OpcodeInfo("neg", pops=1, pushes=1),
    Opcode.AND: OpcodeInfo("and", pops=2, pushes=1),
    Opcode.OR: OpcodeInfo("or", pops=2, pushes=1),
    Opcode.XOR: OpcodeInfo("xor", pops=2, pushes=1),
    Opcode.SHL: OpcodeInfo("shl", pops=2, pushes=1),
    Opcode.SHR: OpcodeInfo("shr", pops=2, pushes=1),
    Opcode.DUP: OpcodeInfo("dup", pops=1, pushes=2),
    Opcode.POP: OpcodeInfo("pop", pops=1),
    Opcode.SWAP: OpcodeInfo("swap", pops=2, pushes=2),
    Opcode.IFEQ: _cond("ifeq", 1),
    Opcode.IFNE: _cond("ifne", 1),
    Opcode.IFLT: _cond("iflt", 1),
    Opcode.IFGE: _cond("ifge", 1),
    Opcode.IFGT: _cond("ifgt", 1),
    Opcode.IFLE: _cond("ifle", 1),
    Opcode.IF_ICMPEQ: _cond("if_icmpeq", 2),
    Opcode.IF_ICMPNE: _cond("if_icmpne", 2),
    Opcode.IF_ICMPLT: _cond("if_icmplt", 2),
    Opcode.IF_ICMPGE: _cond("if_icmpge", 2),
    Opcode.IF_ICMPGT: _cond("if_icmpgt", 2),
    Opcode.IF_ICMPLE: _cond("if_icmple", 2),
    Opcode.GOTO: OpcodeInfo("goto", (OperandKind.S2,), is_branch=True),
    Opcode.CALL: OpcodeInfo(
        "call", (OperandKind.U2,), pops=-1, pushes=-1, is_call=True
    ),
    Opcode.RETURN: OpcodeInfo("return", is_return=True),
    Opcode.IRETURN: OpcodeInfo("ireturn", pops=1, is_return=True),
    Opcode.NEWARRAY: OpcodeInfo("newarray", pops=1, pushes=1),
    Opcode.ALOAD: OpcodeInfo("aload", pops=2, pushes=1),
    Opcode.ASTORE: OpcodeInfo("astore", pops=3),
    Opcode.ARRAYLEN: OpcodeInfo("arraylen", pops=1, pushes=1),
    Opcode.SYS: OpcodeInfo("sys", (OperandKind.U1,), pops=-1, pushes=-1),
}

MNEMONICS: Dict[str, Opcode] = {
    info.mnemonic: opcode for opcode, info in OPCODE_TABLE.items()
}

#: Encoded size in bytes of each opcode's instructions.
OPCODE_SIZES: Dict[Opcode, int] = {
    opcode: info.size for opcode, info in OPCODE_TABLE.items()
}

# The flag sets below answer per-instruction questions in one C-level
# membership test, so the CFG builders never read ``Instruction.info``.

#: Opcodes with an ``s2`` branch target: the conditionals and ``goto``.
BRANCHES = frozenset(
    opcode for opcode, info in OPCODE_TABLE.items() if info.is_branch
)

#: ``return`` and ``ireturn``.
RETURNS = frozenset(
    opcode for opcode, info in OPCODE_TABLE.items() if info.is_return
)

CONDITIONAL_BRANCHES = frozenset(
    opcode for opcode, info in OPCODE_TABLE.items() if info.is_conditional
)

#: Conditional branches that compare two stack operands (``if_icmp*``).
COMPARE_BRANCHES = frozenset(
    opcode
    for opcode in CONDITIONAL_BRANCHES
    if OPCODE_TABLE[opcode].pops == 2
)
