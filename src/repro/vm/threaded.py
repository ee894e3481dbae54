"""Closure-threaded bytecode dispatch (the VM's uninstrumented runs).

The reference interpreter decodes every dynamic instruction through an
opcode if-chain plus dict lookups (:meth:`VirtualMachine._execute`).
This module *precompiles* each method's bytecode once into a list of
bound handler closures — one per instruction, with operands, constant
pool values, static field keys, call targets, and branch target
*indices* resolved at compile time — so the inner loop is a single
indirect call per instruction:

    handlers[frame.pc](vm, frame)

Semantics contract: threaded execution is **observably identical** to
the reference dispatch — same :class:`ExecutionResult`, same error
types, messages, and timing (a bad branch target or constant-pool
index still raises only when the instruction actually executes: any
instruction whose compile-time resolution fails gets a *deferred*
handler that re-enters the reference ``_execute`` at runtime).  The
instruction counter advances before each handler runs, so ``SYS TIME``
reads the same values.

Instrumented runs (``TraceRecorder`` etc.) need per-instruction
callbacks, which this loop deliberately has no seam for; the VM runs
them on the reference dispatch.

Compiled handler tables are cached on the :class:`Program` object, so
repeated VM runs over one program (profile estimation, workload
generation, sweeps) compile each method once.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NoReturn,
    Tuple,
)

from ..bytecode import Instruction, Opcode, SysCall, offsets_of
from ..classfile import parse_descriptor
from ..errors import StackUnderflowError, VMError
from ..program import MethodId, Program
from .frame import MAX_LOCAL_SLOTS
from .interpreter import (
    _ARITHMETIC,
    _BINARY_BRANCHES,
    _UNARY_BRANCHES,
    _int32,
)

if TYPE_CHECKING:  # pragma: no cover
    from .frame import Frame
    from .interpreter import VirtualMachine

__all__ = ["dispatch_threaded", "compiled_method_count"]

#: A compiled instruction.  Returns truthy when the top frame may have
#: changed (call/return/halt), telling the inner loop to re-fetch it.
Handler = Callable[["VirtualMachine", "Frame"], Any]


def _underflow(frame: "Frame") -> NoReturn:
    raise StackUnderflowError(
        f"{frame.method_id}: operand stack underflow at pc={frame.pc}"
    )


def _deferred(instruction: Instruction, offset: int) -> Handler:
    """Fallback: run one instruction through the reference dispatch.

    Used when compile-time resolution fails (bad constant-pool index,
    branch to a non-boundary offset, unknown SYS code...) so the error
    — or, for exotic-but-valid cases, the behaviour — surfaces exactly
    when and how the reference interpreter would surface it.
    """

    def handler(vm: "VirtualMachine", frame: "Frame") -> bool:
        vm._execute(frame, instruction, offset)
        return True  # conservative: _execute may push/pop frames

    return handler


def _compile_instruction(
    program: Program,
    pool: Any,
    method_id: MethodId,
    instruction: Instruction,
    offset: int,
    next_index: int,
    offset_to_index: Dict[int, int],
) -> Handler:
    """Build the bound handler closure for one instruction.

    Raises on failed resolution — the caller converts that into a
    :func:`_deferred` handler.
    """
    opcode = instruction.opcode

    if opcode == Opcode.NOP:

        def nop(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index

        return nop

    if opcode == Opcode.ICONST:
        constant = instruction.operand

        def iconst(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            frame.stack.append(constant)

        return iconst

    if opcode == Opcode.LDC:
        value = pool.constant_value(instruction.operand)

        def ldc(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            frame.stack.append(value)

        return ldc

    if opcode == Opcode.LOAD:
        slot = instruction.operand

        def load(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            frame_locals = frame.locals
            if slot >= len(frame_locals):
                raise VMError(
                    f"{frame.method_id}: load from unallocated "
                    f"local {slot}"
                )
            frame.stack.append(frame_locals[slot])

        return load

    if opcode == Opcode.STORE:
        slot = instruction.operand

        def store(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            value = stack.pop()
            if slot >= MAX_LOCAL_SLOTS:
                raise VMError(
                    f"{frame.method_id}: store to local {slot} "
                    "beyond limit"
                )
            frame_locals = frame.locals
            if slot >= len(frame_locals):
                frame_locals.extend(
                    [0] * (slot + 1 - len(frame_locals))
                )
            frame_locals[slot] = value

        return store

    if opcode in (Opcode.GETSTATIC, Opcode.PUTSTATIC):
        class_name, field_name, _ = pool.member_ref(
            instruction.operand
        )
        key: Tuple[str, str] = (class_name, field_name)
        if opcode == Opcode.GETSTATIC:

            def getstatic(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                frame.stack.append(vm.globals.get(key, 0))

            return getstatic

        def putstatic(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            vm.globals[key] = stack.pop()

        return putstatic

    if opcode in _ARITHMETIC:
        operation = _ARITHMETIC[opcode]

        def binary_op(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            right = stack.pop()
            if not stack:
                _underflow(frame)
            left = stack.pop()
            stack.append(operation(left, right))

        return binary_op

    if opcode == Opcode.NEG:

        def neg(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            stack.append(_int32(-stack.pop()))

        return neg

    if opcode == Opcode.DUP:

        def dup(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            value = stack.pop()
            stack.append(value)
            stack.append(value)

        return dup

    if opcode == Opcode.POP:

        def pop_op(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            stack.pop()

        return pop_op

    if opcode == Opcode.SWAP:

        def swap(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            first = stack.pop()
            if not stack:
                _underflow(frame)
            second = stack.pop()
            stack.append(first)
            stack.append(second)

        return swap

    if (
        opcode in _UNARY_BRANCHES
        or opcode in _BINARY_BRANCHES
        or opcode == Opcode.GOTO
    ):
        target_offset = instruction.branch_target(offset)
        target_index = offset_to_index.get(target_offset)
        if opcode == Opcode.GOTO:
            if target_index is None:
                # Invalid target: raise only when executed, exactly
                # like frame.jump_to_offset would.
                def goto_bad(
                    vm: "VirtualMachine", frame: "Frame"
                ) -> None:
                    frame.pc = next_index
                    frame.jump_to_offset(target_offset)

                return goto_bad
            resolved_goto = target_index

            def goto(vm: "VirtualMachine", frame: "Frame") -> None:
                frame.pc = resolved_goto

            return goto

        if opcode in _UNARY_BRANCHES:
            unary_test = _UNARY_BRANCHES[opcode]

            def unary_branch(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                stack = frame.stack
                if not stack:
                    _underflow(frame)
                if unary_test(stack.pop()):
                    if target_index is None:
                        frame.jump_to_offset(target_offset)
                    else:
                        frame.pc = target_index

            return unary_branch

        binary_test = _BINARY_BRANCHES[opcode]

        def binary_branch(
            vm: "VirtualMachine", frame: "Frame"
        ) -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            right = stack.pop()
            if not stack:
                _underflow(frame)
            left = stack.pop()
            if binary_test(left, right):
                if target_index is None:
                    frame.jump_to_offset(target_offset)
                else:
                    frame.pc = target_index

        return binary_branch

    if opcode == Opcode.CALL:
        class_name, method_name, descriptor = pool.member_ref(
            instruction.operand
        )
        callee = MethodId(class_name, method_name)
        parsed = parse_descriptor(descriptor)
        arity = parsed.arity
        if program.has_method(callee):

            def call_internal(
                vm: "VirtualMachine", frame: "Frame"
            ) -> bool:
                frame.pc = next_index
                stack = frame.stack
                args: List[Any] = []
                for _ in range(arity):
                    if not stack:
                        _underflow(frame)
                    args.append(stack.pop())
                args.reverse()
                vm._push_frame(callee, args)
                return True

            return call_internal

        returns_value = parsed.returns_value

        def call_external(
            vm: "VirtualMachine", frame: "Frame"
        ) -> None:
            frame.pc = next_index
            stack = frame.stack
            for _ in range(arity):
                if not stack:
                    _underflow(frame)
                stack.pop()
            for instrument in vm.instruments:
                instrument.on_external_call(frame.method_id, callee)
            if returns_value:
                stack.append(0)

        return call_external

    if opcode == Opcode.RETURN:

        def return_void(vm: "VirtualMachine", frame: "Frame") -> bool:
            frame.pc = next_index
            vm._pop_frame(None)
            return True

        return return_void

    if opcode == Opcode.IRETURN:

        def return_value(
            vm: "VirtualMachine", frame: "Frame"
        ) -> bool:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            vm._pop_frame(stack.pop())
            return True

        return return_value

    if opcode == Opcode.NEWARRAY:

        def newarray(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            size = stack.pop()
            if not 0 <= size <= 10_000_000:
                raise VMError(f"bad array size {size}")
            stack.append([0] * size)

        return newarray

    if opcode == Opcode.ALOAD:

        def aload(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            index = stack.pop()
            if not stack:
                _underflow(frame)
            array = stack.pop()
            vm._check_array(array, index)
            stack.append(array[index])

        return aload

    if opcode == Opcode.ASTORE:

        def astore(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            value = stack.pop()
            if not stack:
                _underflow(frame)
            index = stack.pop()
            if not stack:
                _underflow(frame)
            array = stack.pop()
            vm._check_array(array, index)
            array[index] = value

        return astore

    if opcode == Opcode.ARRAYLEN:

        def arraylen(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            stack = frame.stack
            if not stack:
                _underflow(frame)
            array = stack.pop()
            if not isinstance(array, list):
                raise VMError("arraylen on non-array")
            stack.append(len(array))

        return arraylen

    if opcode == Opcode.SYS:
        code = instruction.operand
        if code == SysCall.PRINT:

            def sys_print(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                stack = frame.stack
                if not stack:
                    _underflow(frame)
                vm.output.append(stack.pop())

            return sys_print
        if code == SysCall.TIME:

            def sys_time(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                frame.stack.append(vm._instructions_executed)

            return sys_time
        if code == SysCall.RAND:

            def sys_rand(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                frame.stack.append(vm._rng.randrange(0, 2**31))

            return sys_rand
        if code == SysCall.HALT:

            def sys_halt(
                vm: "VirtualMachine", frame: "Frame"
            ) -> bool:
                frame.pc = next_index
                vm._halted = True
                return True

            return sys_halt
        if code == SysCall.BLACKHOLE:

            def sys_blackhole(
                vm: "VirtualMachine", frame: "Frame"
            ) -> None:
                frame.pc = next_index
                stack = frame.stack
                if not stack:
                    _underflow(frame)
                stack.pop()

            return sys_blackhole

        def sys_unknown(vm: "VirtualMachine", frame: "Frame") -> None:
            frame.pc = next_index
            raise VMError(f"unknown SYS code {code}")

        return sys_unknown

    def unimplemented(vm: "VirtualMachine", frame: "Frame") -> None:
        frame.pc = next_index
        raise VMError(f"unimplemented opcode {opcode!r}")

    return unimplemented


def _compile_method(
    program: Program, method_id: MethodId
) -> List[Handler]:
    """Compile one method into its handler table (plus sentinel)."""
    method = program.method(method_id)
    instructions = method.instructions
    offsets = offsets_of(instructions)
    offset_to_index = {
        byte_offset: index
        for index, byte_offset in enumerate(offsets)
    }
    pool = program.class_named(method_id.class_name).constant_pool
    handlers: List[Handler] = []
    for index, instruction in enumerate(instructions):
        try:
            handler = _compile_instruction(
                program,
                pool,
                method_id,
                instruction,
                offsets[index],
                index + 1,
                offset_to_index,
            )
        except Exception:
            handler = _deferred(instruction, offsets[index])
        handlers.append(handler)
    return handlers


def _code_cache(program: Program) -> Dict[MethodId, List[Handler]]:
    cache: Dict[MethodId, List[Handler]]
    cache = program.__dict__.setdefault("_threaded_code", {})
    return cache


def compiled_method_count(program: Program) -> int:
    """How many of a program's methods have compiled handler tables."""
    return len(_code_cache(program))


def dispatch_threaded(vm: "VirtualMachine") -> None:
    """The threaded dispatch loop (replaces ``_dispatch_loop``).

    Check order per instruction matches the reference loop exactly:
    fell-off-the-end first (before the count), then the counter
    increment, then the instruction limit, then execution.  The counter
    is written through to the VM before each handler so ``SYS TIME``
    and error paths observe the same values as the reference.
    """
    frames = vm._frames
    program = vm.program
    max_instructions = vm.max_instructions
    cache = _code_cache(program)
    while frames and not vm._halted:
        frame = frames[-1]
        handlers = cache.get(frame.method_id)
        if handlers is None:
            handlers = _compile_method(program, frame.method_id)
            cache[frame.method_id] = handlers
        end = len(handlers)
        executed = vm._instructions_executed
        while True:
            pc = frame.pc
            if pc >= end:
                raise VMError(
                    f"{frame.method_id}: fell off the end of the code"
                )
            executed += 1
            vm._instructions_executed = executed
            if executed > max_instructions:
                raise VMError(
                    f"instruction limit {max_instructions} exceeded"
                )
            if handlers[pc](vm, frame):
                executed = vm._instructions_executed
                break
