"""Hypothesis strategies for method bodies that stress the analyses.

A drawn body is a class ``T`` holding one method ``m`` whose code mixes
every opcode with operands that are often wrong on purpose:

* branch targets that land on an instruction, in the middle of one,
  past the end or before the start, so partitioning fails or loops
  come out reducible, irreducible or unreachable;
* code whose last instruction falls through, or branches conditionally,
  off the end;
* pool indexes of the right kind, the wrong kind, a reference whose
  own parts are broken, and past either end of the pool;
* local slots past ``max_locals``, unknown ``SYS`` codes, and small
  ``max_stack`` limits, so stacks underflow and overflow;
* ``LDC`` of strings and ``NEWARRAY`` results fed to arithmetic and
  array opcodes, so definite type errors show up;
* method descriptors with array parameters and returns, and now and
  then one that does not parse.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import strategies as st

from repro.bytecode import (
    BRANCHES,
    OPCODE_SIZES,
    OPCODE_TABLE,
    Instruction,
    Opcode,
    OperandKind,
)
from repro.classfile import (
    ClassFile,
    ClassFileBuilder,
    FieldRefEntry,
    InterfaceMethodRefEntry,
    MethodInfo,
    MethodRefEntry,
)

_DESCRIPTORS = ("()V", "()I", "(I)V", "(A)A", "(II)I", "(AIA)V", "(I)A")

_POOL_OPCODES = {Opcode.LDC, Opcode.GETSTATIC, Opcode.PUTSTATIC, Opcode.CALL}


def template_class() -> Tuple[ClassFileBuilder, Dict[Opcode, List[int]]]:
    """A builder for class ``T`` with a varied pool, and for each
    pool-indexing opcode the indexes it can use without an issue."""
    builder = ClassFileBuilder("T")
    pool = builder.constant_pool
    loadable = [
        builder.add_string_constant("s"),
        builder.add_string_constant("t"),
        pool.add_integer(7),
        pool.add_float(1.5),
        pool.add_long(-3),
    ]
    fields = [
        builder.field_ref("T", "g", "I"),
        builder.field_ref("T", "arr", "A"),
        builder.field_ref("U", "h", "I"),
    ]
    methods = [
        builder.method_ref("T", "f", "()V"),
        builder.method_ref("T", "h", "()I"),
        builder.method_ref("T", "k", "(IA)A"),
        builder.method_ref("U", "u", "(AI)V"),
        builder.method_ref("T", "w", "(III)I"),
    ]
    # Entries whose resolution fails one way or another.
    builder.method_ref("T", "bad", "(X)V")
    name_and_type = pool.add_name_and_type("n", "()V")
    utf8 = pool.add_utf8("U")
    pool.add(MethodRefEntry(utf8, name_and_type))
    pool.add(FieldRefEntry(pool.add_class("T"), 900))
    pool.add(InterfaceMethodRefEntry(pool.add_class("T"), name_and_type))
    return builder, {
        Opcode.LDC: loadable,
        Opcode.GETSTATIC: fields,
        Opcode.PUTSTATIC: fields,
        Opcode.CALL: methods,
    }


_I4_BOUNDS = (-(2**31), 2**31 - 1)


@st.composite
def _operand(draw, opcode: Opcode, valid: Dict[Opcode, List[int]], size: int):
    if opcode in _POOL_OPCODES:
        return draw(
            st.one_of(
                st.sampled_from(valid[opcode]),
                st.integers(0, size + 3),
            )
        )
    if opcode in (Opcode.LOAD, Opcode.STORE):
        return draw(st.integers(0, 5))
    if opcode == Opcode.SYS:
        return draw(st.integers(0, 6))
    assert OPCODE_TABLE[opcode].operands == (OperandKind.I4,)
    return draw(st.one_of(st.integers(-2, 9), st.integers(*_I4_BOUNDS)))


_ALL = st.sampled_from(sorted(Opcode))
_PUSH = st.sampled_from(
    [Opcode.ICONST, Opcode.LDC, Opcode.LOAD, Opcode.GETSTATIC, Opcode.DUP]
)
#: Where a branch lands: mostly on an instruction; sometimes on the end
#: of the code, inside an instruction, or a few bytes either way.
_TARGETS = st.sampled_from(["boundary"] * 9 + ["end", "middle", "near"])
#: ``free`` leaves every branch to ``_TARGETS``; ``irreducible`` makes
#: instruction 0 jump into a cycle whose head it falls through to, so
#: the cycle has two entries and no dominance back edge.
_SHAPES = st.sampled_from(["free"] * 4 + ["irreducible"])


def _net_effect(opcode: Opcode) -> Tuple[int, int]:
    info = OPCODE_TABLE[opcode]
    return max(info.pops, 0), max(info.pushes, 0)


@st.composite
def _opcodes(draw, length: int) -> List[Opcode]:
    """Opcodes that mostly find enough values on the stack.

    The depth is tracked in textual order; an opcode that would pop
    more than is there is usually swapped for a push, so underflow is
    one issue among many rather than the first thing every body hits.
    """
    opcodes: List[Opcode] = []
    depth = 0
    for _ in range(length):
        opcode = draw(_ALL)
        pops, pushes = _net_effect(opcode)
        if pops > depth and draw(st.sampled_from(range(8))) != 0:
            opcode = draw(_PUSH)
            pops, pushes = _net_effect(opcode)
        opcodes.append(opcode)
        depth = max(depth - pops, 0) + pushes
    return opcodes


@st.composite
def method_bodies(draw) -> Tuple[ClassFile, MethodInfo]:
    """A class ``T`` whose one method ``m`` has drawn code and limits."""
    builder, valid = template_class()
    pool_size = len(builder.constant_pool)
    descriptor = draw(st.sampled_from(_DESCRIPTORS))
    opcodes = draw(_opcodes(draw(st.integers(1, 24))))
    forced = {}  # branch index -> target instruction index
    if draw(_SHAPES) == "irreducible" and len(opcodes) >= 3:
        opcodes[0] = Opcode.IFEQ
        forced[0] = draw(st.integers(2, len(opcodes) - 1))
        forced[len(opcodes)] = 1
        opcodes.append(Opcode.GOTO)
    # Usually end on a return that fits the descriptor, or on a goto;
    # otherwise control may fall off the end.
    ending = draw(st.sampled_from(["return"] * 3 + ["goto", "none"]))
    if ending == "return":
        opcodes.append(
            Opcode.RETURN if descriptor.endswith("V") else Opcode.IRETURN
        )
    elif ending == "goto":
        opcodes.append(Opcode.GOTO)
    offsets = [0]
    for opcode in opcodes:
        offsets.append(offsets[-1] + OPCODE_SIZES[opcode])
    count = len(opcodes)
    instructions: List[Instruction] = []
    for index, opcode in enumerate(opcodes):
        if index in forced:
            target = offsets[forced[index]]
            operands: Tuple[int, ...] = (target - offsets[index],)
        elif opcode in BRANCHES:
            kind = draw(_TARGETS)
            if kind == "boundary":
                target = offsets[draw(st.integers(0, count - 1))]
            elif kind == "end":
                target = offsets[count]
            elif kind == "middle":
                wide = [
                    i for i, op in enumerate(opcodes) if OPCODE_SIZES[op] > 1
                ]
                at = draw(st.sampled_from(wide))
                target = offsets[at] + draw(
                    st.integers(1, OPCODE_SIZES[opcodes[at]] - 1)
                )
            else:
                target = offsets[index] + draw(st.integers(-4, 4))
            operands = (target - offsets[index],)
        elif OPCODE_TABLE[opcode].operands:
            operands = (draw(_operand(opcode, valid, pool_size)),)
        else:
            operands = ()
        instructions.append(Instruction(opcode, operands))
    builder.add_method(
        "m",
        descriptor,
        instructions,
        max_stack=draw(st.integers(0, 6)),
        # Mostly room for the parameters; sometimes too little.
        max_locals=draw(st.one_of(st.integers(3, 5), st.integers(0, 2))),
    )
    classfile = builder.build()
    method = classfile.method("m")
    if draw(st.sampled_from(range(30))) == 29:
        method.descriptor = "(Q)V"  # parses nowhere: a structure issue
    return classfile, method
