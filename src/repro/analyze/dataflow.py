"""Abstract-interpretation dataflow over one method's bytecode.

A block-level fixpoint over the CFG in the method's
:class:`~repro.cfg.MethodFacts`: every reachable basic block gets a
typed :class:`~repro.analyze.domain.AbstractState` at entry, the
transfer function interprets each instruction over the
type lattice, and states merge pointwise at control-flow joins until
nothing changes.  The engine subsumes the checks the depth-only
verifier used to hand-roll — underflow, ``max_stack``, join-depth
consistency, return/descriptor agreement, operand well-formedness —
and adds *definite* type checking on top: an issue of kind ``type`` is
reported only when an operand's abstract type can never satisfy the
instruction (the VM is guaranteed to fault on that path).

The engine never raises for problems *in the analyzed code*; it returns
them as :class:`DataflowIssue` values so callers choose their policy —
the incremental verifier raises :class:`~repro.errors.VerificationError`
on the first issue, the lint framework reports all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..bytecode import (
    BRANCHES,
    OPCODE_TABLE,
    Instruction,
    Opcode,
    SysCall,
)
from ..classfile import (
    ClassFile,
    ConstantEntry,
    FieldRefEntry,
    MethodDescriptor,
    MethodInfo,
    MethodRefEntry,
    parse_descriptor,
)
from ..cfg import ControlFlowGraph, MethodFacts, ProgramFacts
from ..errors import ClassFileError, ConstantPoolError
from ..program import MethodId, Program
from .domain import AbstractState, ValType, compatible, merge_states

__all__ = ["DataflowIssue", "MethodDataflow", "analyze_method", "analyze_program"]

#: Opcodes whose operands the VM coerces through 32-bit int arithmetic.
_ARITH_BINARY = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
)

_SYS_PUSHES_INT = (SysCall.TIME, SysCall.RAND)

# One-value stack suffixes, built once.
_INT = (ValType.INT,)
_ARR = (ValType.ARR,)
_STR = (ValType.STR,)
_TOP = (ValType.TOP,)

_MNEMONICS = {
    opcode: info.mnemonic for opcode, info in OPCODE_TABLE.items()
}

#: Operands each branch pops: none for ``goto``, one or two ints for
#: the conditionals.
_BRANCH_POPS = {opcode: OPCODE_TABLE[opcode].pops for opcode in BRANCHES}


@dataclass(frozen=True)
class DataflowIssue:
    """One defect the engine found.

    Attributes:
        kind: Stable machine-readable category — ``"structure"``
            (empty code, bad descriptor, locals too small),
            ``"cfg"`` (invalid branch target, fall-off-end),
            ``"stack"`` (underflow, overflow, join mismatch,
            nonzero depth at return),
            ``"operand"`` (LDC/GETSTATIC/CALL/SYS/LOAD operand
            malformed),
            ``"type"`` (definite runtime type mismatch).
        message: Human-readable description.
        instruction_index: Index into the method's code, when the
            issue anchors to one instruction.
    """

    kind: str
    message: str
    instruction_index: Optional[int] = None


@dataclass
class MethodDataflow:
    """Result of analyzing one method.

    Attributes:
        class_name: Owning class.
        method_name: Analyzed method.
        cfg: The method's CFG (``None`` when construction failed).
        entry_states: Abstract state *before* each reachable
            instruction, keyed by instruction index.  Unreachable
            instructions are absent, mirroring the verifier's
            reachable-only discipline.
        issues: Every defect found, in discovery order.
    """

    class_name: str
    method_name: str
    cfg: Optional[ControlFlowGraph]
    entry_states: Dict[int, AbstractState]
    issues: List[DataflowIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def reachable_indexes(self) -> List[int]:
        return sorted(self.entry_states)

    def state_before(self, instruction_index: int) -> AbstractState:
        return self.entry_states[instruction_index]


class _Analysis:
    """One fixpoint run; collects issues instead of raising.

    The per-instruction transfer function is :data:`_TRANSFER`, one
    handler per opcode.  The ``where`` prefix of every message and the
    ``underflow``/``require``/``overflow_check`` helpers are made once
    per method, not once per instruction.
    """

    def __init__(
        self, classfile: ClassFile, method: MethodInfo, facts: MethodFacts
    ) -> None:
        self.classfile = classfile
        self.method = method
        self.facts = facts
        self.descriptor: Optional[MethodDescriptor] = None
        self.issues: List[DataflowIssue] = []
        self.entry_states: Dict[int, AbstractState] = {}
        self._issue_keys: set = set()
        self.where = f"{classfile.name}.{method.name}"
        self.pool = classfile.constant_pool
        self.max_stack = method.max_stack
        self.max_locals = method.max_locals

    def issue(
        self, kind: str, message: str, index: Optional[int] = None
    ) -> None:
        key = (kind, message, index)
        if key in self._issue_keys:
            return
        self._issue_keys.add(key)
        self.issues.append(DataflowIssue(kind, message, index))

    # -- the fixpoint ----------------------------------------------------

    def run(self) -> MethodDataflow:
        method = self.method
        where = self.where
        if not method.instructions:
            self.issue("structure", f"{where}: empty code")
            return self._result(None)
        try:
            descriptor = parse_descriptor(method.descriptor)
        except ClassFileError as error:
            self.issue("structure", f"{where}: {error}")
            return self._result(None)
        if descriptor.arity > method.max_locals:
            self.issue(
                "structure",
                f"{where}: {descriptor.arity} parameters exceed "
                f"max_locals {method.max_locals}",
            )
            return self._result(None)
        cfg = self.facts.cfg
        if cfg is None:
            self.issue("cfg", f"{where}: {self.facts.error}")
            return self._result(None)

        self.descriptor = descriptor
        entry_state = AbstractState.method_entry(
            descriptor.parameters, method.max_locals
        )
        in_states: Dict[int, AbstractState] = {
            cfg.entry.block_id: entry_state
        }
        rpo = cfg.reverse_postorder()
        rpo_position = {bid: i for i, bid in enumerate(rpo)}
        worklist = [cfg.entry.block_id]
        queued = {cfg.entry.block_id}
        while worklist:
            worklist.sort(key=rpo_position.__getitem__, reverse=True)
            block_id = worklist.pop()
            queued.discard(block_id)
            out_state = self._flow_block(cfg, block_id, in_states[block_id])
            if out_state is None:
                continue  # path dead-ends (return, or unrecoverable)
            for successor in cfg.successors(block_id):
                known = in_states.get(successor)
                if known is None:
                    in_states[successor] = out_state
                elif known != out_state:
                    merged = merge_states(known, out_state)
                    if merged is None:
                        self.issue(
                            "stack",
                            f"{where}: inconsistent stack depth at "
                            f"block {successor} ({known.depth} vs "
                            f"{out_state.depth})",
                            cfg.block(successor).instruction_indexes[0],
                        )
                        continue
                    if merged == known:
                        continue
                    in_states[successor] = merged
                else:
                    continue
                if successor not in queued:
                    queued.add(successor)
                    worklist.append(successor)
        return self._result(cfg)

    def _result(self, cfg: Optional[ControlFlowGraph]) -> MethodDataflow:
        return MethodDataflow(
            class_name=self.classfile.name,
            method_name=self.method.name,
            cfg=cfg,
            entry_states=self.entry_states,
            issues=self.issues,
        )

    # -- per-block transfer ----------------------------------------------

    def _flow_block(
        self,
        cfg: ControlFlowGraph,
        block_id: int,
        state: AbstractState,
    ) -> Optional[AbstractState]:
        """Run each instruction's :data:`_TRANSFER` handler in turn.

        A handler returns the successor state, or ``None`` when control
        does not continue (returns) or the state is unrecoverable
        (underflow, malformed operand) — the path stops propagating,
        exactly like the old verifier stopped at its first error.
        """
        block = cfg.blocks[block_id]
        entry_states = self.entry_states
        transfer = _TRANSFER
        for instruction, index in zip(
            block.instructions, block.instruction_indexes
        ):
            entry_states[index] = state
            next_state = transfer[instruction.opcode](
                self, instruction, index, state
            )
            if next_state is None:
                return None
            state = next_state
        if block.terminates:
            return None
        return state

    # -- checks shared by the handlers -----------------------------------

    def underflow(
        self, state: AbstractState, pops: int, instruction: Instruction,
        index: int,
    ) -> bool:
        """Report, and return True, when ``state`` holds under ``pops``."""
        if len(state.stack) < pops:
            self.issue(
                "stack",
                f"{self.where}: stack underflow at instruction {index} "
                f"({_MNEMONICS[instruction.opcode]})",
                index,
            )
            return True
        return False

    def require(
        self, operand: ValType, needed: ValType, role: str,
        instruction: Instruction, index: int,
    ) -> None:
        """Report a definite type error unless ``operand`` may be
        ``needed`` (:func:`~repro.analyze.domain.compatible`, inlined)."""
        if operand is not needed and operand is not ValType.TOP:
            self.issue(
                "type",
                f"{self.where}: {_MNEMONICS[instruction.opcode]} at "
                f"instruction {index} needs {needed.value} for {role}, "
                f"got {operand.value}",
                index,
            )

    def overflow_check(
        self, result: AbstractState, index: int
    ) -> Optional[AbstractState]:
        """``result``, or ``None`` (reported) past ``max_stack``."""
        if len(result.stack) > self.max_stack:
            self.issue(
                "stack",
                f"{self.where}: stack depth {result.depth} exceeds "
                f"max_stack {self.max_stack} at instruction {index}",
                index,
            )
            return None
        return result

    def bad_slot(self, instruction: Instruction, index: int) -> bool:
        """Report, and return True, when a LOAD/STORE slot is out of
        ``max_locals``."""
        slot = instruction.operands[0]
        if slot >= self.max_locals:
            self.issue(
                "operand",
                f"{self.where}: local slot {slot} >= "
                f"max_locals {self.max_locals}",
                index,
            )
            return True
        return False

    # -- per-instruction handlers ------------------------------------------

    def _nop(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        return state

    def _iconst(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        return self.overflow_check(
            AbstractState(state.stack + _INT, state.locals), index
        )

    def _ldc(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        operand = instruction.operands[0]
        try:
            value = self.pool.constant_value(operand)
        except Exception:
            self.issue(
                "operand",
                f"{self.where}: LDC operand {operand} is "
                "not a loadable constant",
                index,
            )
            return None
        kind = _STR if isinstance(value, str) else _INT
        return self.overflow_check(
            AbstractState(state.stack + kind, state.locals), index
        )

    def _load(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.bad_slot(instruction, index):
            return None
        locals_ = state.locals
        return self.overflow_check(
            AbstractState(
                state.stack + (locals_[instruction.operands[0]],), locals_
            ),
            index,
        )

    def _store(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.bad_slot(instruction, index):
            return None
        if self.underflow(state, 1, instruction, index):
            return None
        stack, locals_ = state.stack, state.locals
        slot = instruction.operands[0]
        return AbstractState(
            stack[:-1], locals_[:slot] + stack[-1:] + locals_[slot + 1 :]
        )

    def _pool_entry(
        self, instruction: Instruction, index: int
    ) -> Optional[ConstantEntry]:
        """The pool entry an operand names, or ``None`` (reported) for
        an index past either end of the pool."""
        try:
            return self.pool.get(instruction.operands[0])
        except ConstantPoolError as error:
            self.issue("operand", f"{self.where}: {error}", index)
            return None

    def _field_descriptor(
        self, instruction: Instruction, index: int
    ) -> Optional[str]:
        """The descriptor of a GETSTATIC/PUTSTATIC's FieldRef, or
        ``None`` (reported) when the operand names none."""
        operand = instruction.operands[0]
        entry = self._pool_entry(instruction, index)
        if entry is None:
            return None
        if not isinstance(entry, FieldRefEntry):
            self.issue(
                "operand",
                f"{self.where}: GETSTATIC/PUTSTATIC operand "
                f"{operand} is not a FieldRef",
                index,
            )
            return None
        try:
            _, _, field_descriptor = self.pool.member_ref(operand)
        except Exception as error:
            self.issue("operand", f"{self.where}: {error}", index)
            return None
        return field_descriptor

    # An "I" field holds one untyped word (the compiler writes "I" for
    # every global); only "A" is a definite array.

    def _getstatic(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        field_descriptor = self._field_descriptor(instruction, index)
        if field_descriptor is None:
            return None
        kind = _ARR if field_descriptor == "A" else _TOP
        return self.overflow_check(
            AbstractState(state.stack + kind, state.locals), index
        )

    def _putstatic(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        field_descriptor = self._field_descriptor(instruction, index)
        if field_descriptor is None:
            return None
        if self.underflow(state, 1, instruction, index):
            return None
        stack = state.stack
        if field_descriptor == "A":
            self.require(
                stack[-1], ValType.ARR, "the stored field value",
                instruction, index,
            )
        return AbstractState(stack[:-1], state.locals)

    def _arith(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        """The binary operators, which the VM runs as 32-bit ints."""
        if self.underflow(state, 2, instruction, index):
            return None
        stack = state.stack
        self.require(
            stack[-2], ValType.INT, "the left operand", instruction, index
        )
        self.require(
            stack[-1], ValType.INT, "the right operand", instruction, index
        )
        return AbstractState(stack[:-2] + _INT, state.locals)

    def _neg(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 1, instruction, index):
            return None
        stack = state.stack
        self.require(stack[-1], ValType.INT, "the operand", instruction, index)
        return AbstractState(stack[:-1] + _INT, state.locals)

    def _dup(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 1, instruction, index):
            return None
        stack = state.stack
        return self.overflow_check(
            AbstractState(stack + stack[-1:], state.locals), index
        )

    def _pop(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 1, instruction, index):
            return None
        return AbstractState(state.stack[:-1], state.locals)

    def _swap(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 2, instruction, index):
            return None
        stack = state.stack
        return AbstractState(
            stack[:-2] + (stack[-1], stack[-2]), state.locals
        )

    def _newarray(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 1, instruction, index):
            return None
        stack = state.stack
        self.require(
            stack[-1], ValType.INT, "the array size", instruction, index
        )
        return AbstractState(stack[:-1] + _ARR, state.locals)

    def _aload(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 2, instruction, index):
            return None
        stack = state.stack
        self.require(stack[-2], ValType.ARR, "the array", instruction, index)
        self.require(stack[-1], ValType.INT, "the index", instruction, index)
        # ASTORE may legally store any value, so element loads are
        # statically unknowable.
        return AbstractState(stack[:-2] + _TOP, state.locals)

    def _astore(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 3, instruction, index):
            return None
        stack = state.stack
        self.require(stack[-3], ValType.ARR, "the array", instruction, index)
        self.require(stack[-2], ValType.INT, "the index", instruction, index)
        return AbstractState(stack[:-3], state.locals)

    def _arraylen(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        if self.underflow(state, 1, instruction, index):
            return None
        stack = state.stack
        self.require(stack[-1], ValType.ARR, "the array", instruction, index)
        return AbstractState(stack[:-1] + _INT, state.locals)

    def _call(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        operand = instruction.operands[0]
        entry = self._pool_entry(instruction, index)
        if entry is None:
            return None
        if not isinstance(entry, MethodRefEntry):
            self.issue(
                "operand",
                f"{self.where}: CALL operand {operand} is "
                f"{type(entry).__name__}, expected MethodRefEntry",
                index,
            )
            return None
        try:
            _, _, call_descriptor = self.pool.member_ref(operand)
            callee = parse_descriptor(call_descriptor)
        except Exception as error:
            self.issue("operand", f"{self.where}: {error}", index)
            return None
        arity = callee.arity
        if self.underflow(state, arity, instruction, index):
            return None
        # Compiled descriptors write "I" for every untyped word, so
        # only explicit "A" annotations constrain an argument.
        for position, parameter in enumerate(callee.parameters):
            if parameter != "A":
                continue
            self.require(
                state.peek(arity - 1 - position), ValType.ARR,
                f"argument {position}", instruction, index,
            )
        state = state.pop(arity)
        if callee.returns_value:
            returned = (
                ValType.ARR if callee.return_type == "A" else ValType.TOP
            )
            return self.overflow_check(state.push(returned), index)
        return state

    def _sys(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        code = instruction.operands[0]
        try:
            pops, pushes = SysCall.STACK_EFFECT[code]
        except KeyError:
            self.issue(
                "operand", f"{self.where}: unknown SYS code {code}", index
            )
            return None
        if self.underflow(state, pops, instruction, index):
            return None
        state = state.pop(pops)  # PRINT/BLACKHOLE accept any value
        if pushes:
            kind = ValType.INT if code in _SYS_PUSHES_INT else ValType.TOP
            return self.overflow_check(state.push(kind), index)
        return state

    def _branch(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        """``goto`` pops nothing; ``if*`` one int, ``if_icmp*`` two."""
        pops = _BRANCH_POPS[instruction.opcode]
        if self.underflow(state, pops, instruction, index):
            return None
        for operand_position in range(pops):
            self.require(
                state.peek(operand_position), ValType.INT,
                "the branch operand", instruction, index,
            )
        return state.pop(pops)

    def _return(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        descriptor = self.descriptor
        assert descriptor is not None
        if descriptor.returns_value:
            self.issue(
                "structure",
                f"{self.where}: RETURN in a value-returning method",
                index,
            )
        if state.depth != 0:
            self.issue(
                "stack",
                f"{self.where}: {state.depth} values left on the stack "
                "at return",
                index,
            )
        return None

    def _ireturn(
        self, instruction: Instruction, index: int, state: AbstractState
    ) -> Optional[AbstractState]:
        where = self.where
        descriptor = self.descriptor
        assert descriptor is not None
        if not descriptor.returns_value:
            self.issue(
                "structure",
                f"{where}: IRETURN in a void method",
                index,
            )
            return None
        if self.underflow(state, 1, instruction, index):
            return None
        # "I" returns are untyped words; only an "A" annotation pins
        # the returned kind down to something checkable.
        if descriptor.return_type == "A" and not compatible(
            state.peek(), ValType.ARR
        ):
            self.issue(
                "type",
                f"{where}: ireturn at instruction {index} returns "
                f"{state.peek().value}, descriptor says arr",
                index,
            )
        if state.depth != 1:
            self.issue(
                "stack",
                f"{where}: {state.depth - 1} extra values left on the "
                "stack at return",
                index,
            )
        return None


_Handler = Callable[
    [_Analysis, Instruction, int, AbstractState], Optional[AbstractState]
]

#: The transfer function: one handler per opcode, each abstractly
#: executing one instruction.
_TRANSFER: Dict[Opcode, _Handler] = {
    Opcode.NOP: _Analysis._nop,
    Opcode.ICONST: _Analysis._iconst,
    Opcode.LDC: _Analysis._ldc,
    Opcode.LOAD: _Analysis._load,
    Opcode.STORE: _Analysis._store,
    Opcode.GETSTATIC: _Analysis._getstatic,
    Opcode.PUTSTATIC: _Analysis._putstatic,
    Opcode.NEG: _Analysis._neg,
    Opcode.DUP: _Analysis._dup,
    Opcode.POP: _Analysis._pop,
    Opcode.SWAP: _Analysis._swap,
    Opcode.NEWARRAY: _Analysis._newarray,
    Opcode.ALOAD: _Analysis._aload,
    Opcode.ASTORE: _Analysis._astore,
    Opcode.ARRAYLEN: _Analysis._arraylen,
    Opcode.CALL: _Analysis._call,
    Opcode.SYS: _Analysis._sys,
    Opcode.RETURN: _Analysis._return,
    Opcode.IRETURN: _Analysis._ireturn,
    **{opcode: _Analysis._arith for opcode in _ARITH_BINARY},
    **{opcode: _Analysis._branch for opcode in BRANCHES},
}
assert set(_TRANSFER) == set(Opcode), "every opcode needs a handler"


def analyze_method(
    classfile: ClassFile, method: MethodInfo, facts: MethodFacts
) -> MethodDataflow:
    """Run the typed dataflow fixpoint over one method.

    ``facts`` are ``method``'s :class:`~repro.cfg.MethodFacts`.  Never
    raises for defects in the analyzed code — they come back as
    :attr:`MethodDataflow.issues`, a failed CFG as a ``"cfg"`` issue —
    but raises :class:`~repro.errors.CFGError` if ``facts`` were built
    from other code.
    """
    facts.check(MethodId(classfile.name, method.name), method)
    return _Analysis(classfile, method, facts).run()


def analyze_program(
    program: Program, facts: ProgramFacts
) -> Dict[MethodId, MethodDataflow]:
    """:func:`analyze_method` over every method, in program order."""
    dataflows: Dict[MethodId, MethodDataflow] = {}
    for classfile in program.classes:
        for method in classfile.methods:
            method_id = MethodId(classfile.name, method.name)
            dataflows[method_id] = analyze_method(
                classfile, method, facts.of(method_id, method)
            )
    return dataflows
