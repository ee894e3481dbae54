"""Threaded dispatch is observably identical to the reference loop."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.bytecode import CodeBuilder, Opcode, SysCall, assemble
from repro.classfile import ClassFileBuilder
from repro.errors import StackUnderflowError, VMError
from repro.program import MethodId, Program
from repro.vm import InstructionCounter, VirtualMachine
from repro.vm.threaded import compiled_method_count
from repro.workloads import (
    fibonacci_program,
    figure1_program,
    mutual_recursion_program,
)


def _result_key(result):
    return (
        result.instructions_executed,
        result.output,
        result.globals,
        result.halted,
    )


def _machines(program, **kwargs):
    """A reference-loop VM and a threaded one over ``program``.

    An attached instrument selects the reference loop, exactly as in
    production; without one the VM takes threaded dispatch.
    """
    return (
        VirtualMachine(program, instruments=[InstructionCounter()], **kwargs),
        VirtualMachine(program, **kwargs),
    )


def _run_both(program, entry=None, args=(), max_instructions=50_000_000):
    """Run under both dispatchers; return the pair of outcomes.

    Each outcome is either ("ok", result key) or ("err", type, message,
    instruction count at the raise) — errors must match exactly too.
    """
    outcomes = []
    for machine in _machines(program, max_instructions=max_instructions):
        try:
            result = machine.run(entry=entry, args=args)
        except (VMError, StackUnderflowError) as error:
            outcomes.append(
                (
                    "err",
                    type(error),
                    str(error),
                    machine.instructions_executed,
                )
            )
        else:
            outcomes.append(("ok", _result_key(result)))
    return outcomes


def _assemble_main(source):
    builder = ClassFileBuilder("T")
    builder.add_method("main", "()V", assemble(source))
    return Program(classes=[builder.build()])


@pytest.mark.parametrize(
    "factory",
    [figure1_program, fibonacci_program, mutual_recursion_program],
)
def test_workload_programs_identical(factory):
    program = factory()
    reference, threaded = _run_both(program)
    assert reference == threaded
    assert reference[0] == "ok"


def test_compiled_code_is_cached_per_program():
    program = figure1_program()
    VirtualMachine(program).run()
    compiled = compiled_method_count(program)
    assert compiled > 0
    VirtualMachine(program).run()
    assert compiled_method_count(program) == compiled


@pytest.mark.parametrize(
    "source",
    [
        # Fell off the end (no return).
        "iconst 1\npop",
        # Operand stack underflow.
        "add\nreturn",
        # Division by zero.
        "iconst 1\niconst 0\ndiv\nreturn",
        # Load from an unallocated local.
        "load 200\nreturn",
        # Bad array size.
        "iconst -1\nnewarray\nreturn",
        # Array index out of bounds.
        "iconst 3\nnewarray\niconst 9\naload\nreturn",
        # arraylen on a non-array.
        "iconst 5\narraylen\nreturn",
        # Unknown SYS code.
        "iconst 1\nsys 99\nreturn",
    ],
)
def test_error_paths_identical(source):
    program = _assemble_main(source)
    reference, threaded = _run_both(program)
    assert reference == threaded
    assert reference[0] == "err"


def test_instruction_limit_identical():
    # Infinite loop: both dispatchers must stop at the same count
    # with the same message.
    program = _assemble_main("goto 0")
    reference, threaded = _run_both(program, max_instructions=10_000)
    assert reference == threaded
    assert reference[0] == "err"
    assert "instruction limit" in reference[2]
    assert reference[3] == 10_001  # counted, then raised


def test_sys_time_reads_same_counter():
    source = (
        f"sys {SysCall.TIME}\nsys {SysCall.PRINT}\n"
        f"sys {SysCall.TIME}\nsys {SysCall.PRINT}\nreturn"
    )
    program = _assemble_main(source)
    reference, threaded = _run_both(program)
    assert reference == threaded
    assert reference[0] == "ok"


def test_halt_identical():
    source = (
        f"iconst 7\nsys {SysCall.PRINT}\nsys {SysCall.HALT}\n"
        f"iconst 8\nsys {SysCall.PRINT}\nreturn"
    )
    program = _assemble_main(source)
    reference, threaded = _run_both(program)
    assert reference == threaded
    assert reference[1][3] is True  # halted


def test_external_call_identical():
    # CALL to a method the program does not define: args consumed,
    # a zero pushed because the descriptor returns a value.
    builder = ClassFileBuilder("T")
    index = builder.constant_pool.add_method_ref(
        "Native", "mystery", "(II)I"
    )
    code = CodeBuilder()
    code.emit(Opcode.ICONST, 1)
    code.emit(Opcode.ICONST, 2)
    code.emit(Opcode.CALL, index)
    code.emit(Opcode.SYS, SysCall.PRINT)
    code.emit(Opcode.RETURN)
    builder.add_method("main", "()V", code.build())
    program = Program(classes=[builder.build()])
    reference, threaded = _run_both(program)
    assert reference == threaded
    assert reference[1][1] == [0]


def test_entry_args_identical():
    builder = ClassFileBuilder("T")
    builder.add_method(
        "main",
        "(II)I",
        assemble("load 0\nload 1\nmul\nireturn"),
    )
    program = Program(classes=[builder.build()])
    reference, threaded = _run_both(
        program, entry=MethodId("T", "main"), args=(6, 7)
    )
    assert reference == threaded
    assert reference[1][1] == [42]


def test_auto_with_instruments_uses_reference_loop():
    counter = InstructionCounter()
    program = figure1_program()
    machine = VirtualMachine(program, instruments=[counter])
    result = machine.run()
    # The reference loop drove the instrument for every instruction.
    assert counter.total == result.instructions_executed


_SNIPPETS = st.sampled_from(
    [
        "var x = 0; while (x < 10) { x = x + 2; } print(x);",
        "print(1 - 3); print(0 - 7 % 4);",
        "G.x = 5; if (G.x >= 5) { print(G.x * G.x); }",
        "var a = 3; var b = 4; print(a * a + b * b);",
        "var i = 0; while (i < 5) { print(i); i = i + 1; }",
    ]
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=_SNIPPETS, seed=st.integers(0, 2**16))
def test_property_random_programs_identical(body, seed):
    source = (
        f"class Main {{ func main() {{ {body} }} }} "
        "class G { global x = 3; }"
    )
    program = compile_source(source)
    expected = None
    for machine in _machines(program, rng_seed=seed):
        key = _result_key(machine.run())
        if expected is None:
            expected = key
        else:
            assert key == expected
