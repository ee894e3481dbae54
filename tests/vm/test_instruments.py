"""BIT-style instruments: counters over real executions."""

from repro.bytecode import assemble
from repro.classfile import ClassFileBuilder
from repro.program import MethodId, Program
from repro.vm import (
    BasicBlockCounter,
    CallCounter,
    InstructionCounter,
    VirtualMachine,
)
from repro.workloads import fibonacci_program


def looped_program(iterations=5):
    builder = ClassFileBuilder("L")
    builder.add_method(
        "main",
        "()V",
        assemble(
            f"""
            iconst {iterations}
            store 0
        loop:
            load 0
            ifle done
            load 0
            iconst 1
            sub
            store 0
            goto loop
        done:
            return
            """
        ),
    )
    return Program(classes=[builder.build()])


def test_basic_block_counter_counts_loop_iterations():
    counter = BasicBlockCounter()
    VirtualMachine(looped_program(5), instruments=[counter]).run()
    main = MethodId("L", "main")
    blocks = counter.block_entries[main]
    # Block 0 (prologue) once; loop header 6 times (5 taken + exit);
    # loop body 5 times; exit block once.
    assert blocks[0] == 1
    assert blocks[1] == 6
    assert blocks[2] == 5
    assert blocks[3] == 1
    assert counter.total_block_entries() == 13


def test_block_entries_bounded_by_instructions():
    blocks = BasicBlockCounter()
    instructions = InstructionCounter()
    result = VirtualMachine(
        fibonacci_program(10), instruments=[blocks, instructions]
    ).run()
    assert instructions.total == result.instructions_executed
    assert 0 < blocks.total_block_entries() <= instructions.total


def test_instrument_composition_is_order_independent():
    a = [InstructionCounter(), CallCounter(), BasicBlockCounter()]
    b = [BasicBlockCounter(), InstructionCounter(), CallCounter()]
    VirtualMachine(fibonacci_program(8), instruments=a).run()
    VirtualMachine(fibonacci_program(8), instruments=b).run()
    assert a[0].total == b[1].total
    assert a[1].invocations == b[2].invocations
    assert (
        a[2].total_block_entries() == b[0].total_block_entries()
    )
