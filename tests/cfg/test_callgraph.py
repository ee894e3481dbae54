"""Program-level call graph construction."""

import pytest

from repro.bytecode import CodeBuilder, Instruction, Opcode
from repro.cfg import build_call_graph, program_facts
from repro.classfile import ClassFileBuilder
from repro.errors import CFGError
from repro.program import MethodId, Program
from repro.workloads import figure1_program, mutual_recursion_program


def call_graph_of(program):
    return build_call_graph(program, program_facts(program))


def test_figure1_call_edges():
    graph = call_graph_of(figure1_program())
    assert graph.callees(MethodId("A", "main")) == [MethodId("B", "Bar_B")]
    assert graph.callees(MethodId("B", "Bar_B")) == [MethodId("A", "Bar_A")]
    assert graph.callees(MethodId("A", "Bar_A")) == [MethodId("A", "Foo_A")]
    assert graph.callees(MethodId("A", "Foo_A")) == [MethodId("B", "Foo_B")]
    assert graph.callees(MethodId("B", "Foo_B")) == []


def test_reachable_from_entry_is_first_use_like():
    program = figure1_program()
    graph = call_graph_of(program)
    order = graph.reachable_from(MethodId("A", "main"))
    assert order == [
        MethodId("A", "main"),
        MethodId("B", "Bar_B"),
        MethodId("A", "Bar_A"),
        MethodId("A", "Foo_A"),
        MethodId("B", "Foo_B"),
    ]


def test_every_method_has_a_cfg():
    program = figure1_program()
    graph = call_graph_of(program)
    assert set(graph.methods) == set(program.method_ids())


def test_calls_to():
    graph = call_graph_of(figure1_program())
    callers = [
        edge.caller for edge in graph.calls_to(MethodId("A", "Bar_A"))
    ]
    assert callers == [MethodId("B", "Bar_B")]


def test_mutual_recursion_cycle():
    graph = call_graph_of(mutual_recursion_program())
    assert graph.callees(MethodId("Even", "is_even")) == [
        MethodId("Odd", "is_odd")
    ]
    assert graph.callees(MethodId("Odd", "is_odd")) == [
        MethodId("Even", "is_even")
    ]
    order = graph.reachable_from(MethodId("Even", "main"))
    assert len(order) == 3


def test_external_call_marked():
    builder = ClassFileBuilder("Solo")
    code = CodeBuilder()
    code.emit(
        Opcode.CALL, builder.method_ref("java/System", "exit", "(I)V")
    )
    code.emit(Opcode.RETURN)
    builder.add_method("main", "()V", code.build())
    program = Program(classes=[builder.build()])
    graph = call_graph_of(program)
    main = MethodId("Solo", "main")
    assert graph.callees(main) == []
    assert graph.external_callees(main) == [
        MethodId("java/System", "exit")
    ]
    assert not graph.calls_from(main)[0].internal


def test_callees_deduplicated_in_order():
    builder = ClassFileBuilder("C")
    helper_ref = builder.method_ref("C", "helper", "()V")
    other_ref = builder.method_ref("C", "other", "()V")
    code = CodeBuilder()
    code.emit(Opcode.CALL, helper_ref)
    code.emit(Opcode.CALL, other_ref)
    code.emit(Opcode.CALL, helper_ref)
    code.emit(Opcode.RETURN)
    builder.add_method("main", "()V", code.build())
    builder.add_method("helper", "()V", [Instruction(Opcode.RETURN)])
    builder.add_method("other", "()V", [Instruction(Opcode.RETURN)])
    program = Program(classes=[builder.build()])
    graph = call_graph_of(program)
    assert graph.callees(MethodId("C", "main")) == [
        MethodId("C", "helper"),
        MethodId("C", "other"),
    ]
    assert len(graph.calls_from(MethodId("C", "main"))) == 3


def test_duplicate_call_sites_keep_distinct_edges():
    """Dedup applies to ``callees`` only: every call *site* keeps its
    own edge with its own instruction index (the interprocedural
    analysis keys per-site frequencies off them)."""
    builder = ClassFileBuilder("C")
    helper_ref = builder.method_ref("C", "helper", "()V")
    code = CodeBuilder()
    code.emit(Opcode.CALL, helper_ref)
    code.emit(Opcode.ICONST, 1)
    code.emit(Opcode.POP)
    code.emit(Opcode.CALL, helper_ref)
    code.emit(Opcode.RETURN)
    builder.add_method("main", "()V", code.build())
    builder.add_method("helper", "()V", [Instruction(Opcode.RETURN)])
    program = Program(classes=[builder.build()])
    graph = call_graph_of(program)
    main = MethodId("C", "main")
    assert graph.callees(main) == [MethodId("C", "helper")]
    edges = graph.calls_from(main)
    assert [edge.instruction_index for edge in edges] == [0, 3]
    assert all(edge.callee == MethodId("C", "helper") for edge in edges)
    # Both sites land in the method's code at a CALL instruction.
    method = program.method(main)
    for edge in edges:
        assert method.instructions[edge.instruction_index].opcode is (
            Opcode.CALL
        )


def test_reachable_from_unknown_method_raises():
    graph = call_graph_of(figure1_program())
    with pytest.raises(CFGError):
        graph.reachable_from(MethodId("A", "missing"))


def test_to_networkx_export():
    graph = call_graph_of(figure1_program())
    nx_graph = graph.to_networkx()
    assert nx_graph.number_of_nodes() == 5
    assert nx_graph.number_of_edges() == len(graph.edges)
