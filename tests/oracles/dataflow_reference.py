"""The dataflow engine that a per-opcode handler table replaced.

``ReferenceAnalysis`` is the fixpoint whose ``_transfer`` walks an
``if`` chain of opcode comparisons and builds its ``where`` string and
its ``underflow``/``require``/``overflow_check`` closures once per
instruction.  ``reference_analyze_method`` runs it over given facts,
which may be the reference CFG builders' (see :mod:`.cfg_reference`).
Like the engine, it reports a GETSTATIC, PUTSTATIC or CALL operand past
either end of the constant pool as an ``operand`` issue.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analyze.dataflow import DataflowIssue, MethodDataflow
from repro.analyze.domain import (
    AbstractState,
    ValType,
    compatible,
    merge_states,
)
from repro.bytecode import OPCODE_TABLE, Instruction, Opcode, SysCall
from repro.cfg import ControlFlowGraph, MethodFacts
from repro.classfile import (
    ClassFile,
    FieldRefEntry,
    MethodDescriptor,
    MethodInfo,
    MethodRefEntry,
    parse_descriptor,
)
from repro.errors import ClassFileError, ConstantPoolError

_ARITH_BINARY = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
)

_SYS_PUSHES_INT = (SysCall.TIME, SysCall.RAND)


class ReferenceAnalysis:
    """One fixpoint run, dispatching each instruction by an if-chain."""

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
        where = f"{self.classfile.name}.{method.name}"
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
        block = cfg.block(block_id)
        for instruction, index in zip(
            block.instructions, block.instruction_indexes
        ):
            self.entry_states[index] = state
            next_state = self._transfer(instruction, index, state)
            if next_state is None:
                return None
            state = next_state
        if block.terminates:
            return None
        return state

    # -- per-instruction transfer ------------------------------------------

    def _transfer(
        self,
        instruction: Instruction,
        index: int,
        state: AbstractState,
    ) -> Optional[AbstractState]:
        """Abstractly execute one instruction.

        Returns the successor state, or ``None`` when control does not
        continue (returns) or the state is unrecoverable (underflow,
        malformed operand) — the path stops propagating, exactly like
        the old verifier stopped at its first error.
        """
        opcode = instruction.opcode
        where = f"{self.classfile.name}.{self.method.name}"
        pool = self.classfile.constant_pool

        def underflow(pops: int) -> bool:
            if state.depth < pops:
                self.issue(
                    "stack",
                    f"{where}: stack underflow at instruction {index} "
                    f"({instruction.mnemonic})",
                    index,
                )
                return True
            return False

        def require(
            operand: ValType, needed: ValType, role: str
        ) -> None:
            if not compatible(operand, needed):
                self.issue(
                    "type",
                    f"{where}: {instruction.mnemonic} at instruction "
                    f"{index} needs {needed.value} for {role}, got "
                    f"{operand.value}",
                    index,
                )

        def overflow_check(result: AbstractState) -> Optional[AbstractState]:
            if result.depth > self.method.max_stack:
                self.issue(
                    "stack",
                    f"{where}: stack depth {result.depth} exceeds "
                    f"max_stack {self.method.max_stack} at instruction "
                    f"{index}",
                    index,
                )
                return None
            return result

        if opcode == Opcode.NOP:
            return state
        if opcode == Opcode.ICONST:
            return overflow_check(state.push(ValType.INT))
        if opcode == Opcode.LDC:
            try:
                value = pool.constant_value(instruction.operand)
            except Exception:
                self.issue(
                    "operand",
                    f"{where}: LDC operand {instruction.operand} is "
                    "not a loadable constant",
                    index,
                )
                return None
            kind = ValType.STR if isinstance(value, str) else ValType.INT
            return overflow_check(state.push(kind))
        if opcode == Opcode.LOAD:
            if instruction.operand >= self.method.max_locals:
                self.issue(
                    "operand",
                    f"{where}: local slot {instruction.operand} >= "
                    f"max_locals {self.method.max_locals}",
                    index,
                )
                return None
            return overflow_check(
                state.push(state.locals[instruction.operand])
            )
        if opcode == Opcode.STORE:
            if instruction.operand >= self.method.max_locals:
                self.issue(
                    "operand",
                    f"{where}: local slot {instruction.operand} >= "
                    f"max_locals {self.method.max_locals}",
                    index,
                )
                return None
            if underflow(1):
                return None
            value = state.peek()
            return state.pop(1).store_local(instruction.operand, value)
        if opcode in (Opcode.GETSTATIC, Opcode.PUTSTATIC):
            try:
                entry = pool.get(instruction.operand)
            except ConstantPoolError as error:
                self.issue("operand", f"{where}: {error}", index)
                return None
            if not isinstance(entry, FieldRefEntry):
                self.issue(
                    "operand",
                    f"{where}: GETSTATIC/PUTSTATIC operand "
                    f"{instruction.operand} is not a FieldRef",
                    index,
                )
                return None
            try:
                _, _, field_descriptor = pool.member_ref(
                    instruction.operand
                )
            except Exception as error:
                self.issue("operand", f"{where}: {error}", index)
                return None
            # An "I" field holds one untyped word (the compiler writes
            # "I" for every global); only "A" is a definite array.
            field_is_array = field_descriptor == "A"
            if opcode == Opcode.GETSTATIC:
                return overflow_check(
                    state.push(
                        ValType.ARR if field_is_array else ValType.TOP
                    )
                )
            if underflow(1):
                return None
            if field_is_array:
                require(
                    state.peek(), ValType.ARR, "the stored field value"
                )
            return state.pop(1)
        if opcode in _ARITH_BINARY:
            if underflow(2):
                return None
            require(state.peek(1), ValType.INT, "the left operand")
            require(state.peek(0), ValType.INT, "the right operand")
            return state.pop(2).push(ValType.INT)
        if opcode == Opcode.NEG:
            if underflow(1):
                return None
            require(state.peek(), ValType.INT, "the operand")
            return state.pop(1).push(ValType.INT)
        if opcode == Opcode.DUP:
            if underflow(1):
                return None
            return overflow_check(state.push(state.peek()))
        if opcode == Opcode.POP:
            if underflow(1):
                return None
            return state.pop(1)
        if opcode == Opcode.SWAP:
            if underflow(2):
                return None
            top, below = state.peek(0), state.peek(1)
            return state.pop(2).push(top, below)
        if opcode == Opcode.NEWARRAY:
            if underflow(1):
                return None
            require(state.peek(), ValType.INT, "the array size")
            return state.pop(1).push(ValType.ARR)
        if opcode == Opcode.ALOAD:
            if underflow(2):
                return None
            require(state.peek(1), ValType.ARR, "the array")
            require(state.peek(0), ValType.INT, "the index")
            # ASTORE may legally store any value, so element loads are
            # statically unknowable.
            return state.pop(2).push(ValType.TOP)
        if opcode == Opcode.ASTORE:
            if underflow(3):
                return None
            require(state.peek(2), ValType.ARR, "the array")
            require(state.peek(1), ValType.INT, "the index")
            return state.pop(3)
        if opcode == Opcode.ARRAYLEN:
            if underflow(1):
                return None
            require(state.peek(), ValType.ARR, "the array")
            return state.pop(1).push(ValType.INT)
        if opcode == Opcode.CALL:
            try:
                entry = pool.get(instruction.operand)
            except ConstantPoolError as error:
                self.issue("operand", f"{where}: {error}", index)
                return None
            if not isinstance(entry, MethodRefEntry):
                self.issue(
                    "operand",
                    f"{where}: CALL operand {instruction.operand} is "
                    f"{type(entry).__name__}, expected MethodRefEntry",
                    index,
                )
                return None
            try:
                _, _, call_descriptor = pool.member_ref(
                    instruction.operand
                )
                callee = parse_descriptor(call_descriptor)
            except Exception as error:
                self.issue("operand", f"{where}: {error}", index)
                return None
            if underflow(callee.arity):
                return None
            # Compiled descriptors write "I" for every untyped word, so
            # only explicit "A" annotations constrain an argument.
            for position, parameter in enumerate(callee.parameters):
                if parameter != "A":
                    continue
                operand = state.peek(callee.arity - 1 - position)
                require(operand, ValType.ARR, f"argument {position}")
            state = state.pop(callee.arity)
            if callee.returns_value:
                returned = (
                    ValType.ARR
                    if callee.return_type == "A"
                    else ValType.TOP
                )
                return overflow_check(state.push(returned))
            return state
        if opcode == Opcode.SYS:
            try:
                pops, pushes = SysCall.STACK_EFFECT[instruction.operand]
            except KeyError:
                self.issue(
                    "operand",
                    f"{where}: unknown SYS code {instruction.operand}",
                    index,
                )
                return None
            if underflow(pops):
                return None
            state = state.pop(pops)  # PRINT/BLACKHOLE accept any value
            if pushes:
                kind = (
                    ValType.INT
                    if instruction.operand in _SYS_PUSHES_INT
                    else ValType.TOP
                )
                return overflow_check(state.push(kind))
            return state
        info = OPCODE_TABLE[opcode]
        if info.is_return:
            return self._transfer_return(instruction, index, state)
        if info.is_branch:
            if underflow(info.pops):
                return None
            for operand_position in range(info.pops):
                require(
                    state.peek(operand_position),
                    ValType.INT,
                    "the branch operand",
                )
            return state.pop(info.pops)
        raise AssertionError(  # pragma: no cover - ISA is closed
            f"unhandled opcode {opcode!r}"
        )

    def _transfer_return(
        self,
        instruction: Instruction,
        index: int,
        state: AbstractState,
    ) -> Optional[AbstractState]:
        where = f"{self.classfile.name}.{self.method.name}"
        descriptor = self.descriptor
        assert descriptor is not None
        if instruction.opcode == Opcode.RETURN:
            if descriptor.returns_value:
                self.issue(
                    "structure",
                    f"{where}: RETURN in a value-returning method",
                    index,
                )
            if state.depth != 0:
                self.issue(
                    "stack",
                    f"{where}: {state.depth} values left on the stack "
                    "at return",
                    index,
                )
            return None
        # IRETURN
        if not descriptor.returns_value:
            self.issue(
                "structure",
                f"{where}: IRETURN in a void method",
                index,
            )
            return None
        if state.depth < 1:
            self.issue(
                "stack",
                f"{where}: stack underflow at instruction {index} "
                f"({instruction.mnemonic})",
                index,
            )
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


def reference_analyze_method(
    classfile: ClassFile, method: MethodInfo, facts: MethodFacts
) -> MethodDataflow:
    """Run the if-chain fixpoint over one method's ``facts``."""
    return ReferenceAnalysis(classfile, method, facts).run()
