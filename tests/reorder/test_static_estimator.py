"""Static first-use estimation (§4.1), including its heuristics."""

import pytest

from repro.bytecode import CodeBuilder, Opcode, assemble
from repro.classfile import ClassFileBuilder
from repro.errors import ReorderError
from repro.program import MethodId, Program
from repro.reorder import estimate_first_use
from repro.workloads import figure1_program, mutual_recursion_program


def test_figure1_static_order():
    order = estimate_first_use(figure1_program())
    assert order.order == [
        MethodId("A", "main"),
        MethodId("B", "Bar_B"),
        MethodId("A", "Bar_A"),
        MethodId("A", "Foo_A"),
        MethodId("B", "Foo_B"),
    ]
    assert order.source == "static"


def test_bytes_before_accumulates_static_sizes():
    program = figure1_program()
    order = estimate_first_use(program)
    cumulative = 0
    for entry in order.entries:
        assert entry.bytes_before == cumulative
        cumulative += program.method(entry.method).size
        assert entry.estimated


def test_unreachable_methods_appended_in_file_order():
    builder = ClassFileBuilder("M")
    builder.add_method("main", "()V", assemble("return"))
    builder.add_method("dead_b", "()V", assemble("return"))
    builder.add_method("dead_a", "()V", assemble("return"))
    program = Program(classes=[builder.build()])
    order = estimate_first_use(program)
    assert order.order == [
        MethodId("M", "main"),
        MethodId("M", "dead_b"),
        MethodId("M", "dead_a"),
    ]


def test_loop_priority_heuristic_prefers_loop_path():
    """At a forward branch, the path with more static loops wins (§4.1),
    even when textual order says otherwise."""
    builder = ClassFileBuilder("H")
    plain_ref = builder.method_ref("H", "plain", "()V")
    loopy_ref = builder.method_ref("H", "loopy", "()V")
    main = CodeBuilder()
    else_branch = main.new_label("else")
    join = main.new_label("join")
    main.emit(Opcode.LOAD, 0)
    main.branch(Opcode.IFEQ, else_branch)
    # Fallthrough path: a plain call, no loops ahead.
    main.emit(Opcode.CALL, plain_ref)
    main.branch(Opcode.GOTO, join)
    # Taken path: contains a loop, then a call.
    main.bind(else_branch)
    main.emit(Opcode.ICONST, 3)
    main.emit(Opcode.STORE, 1)
    loop = main.new_label("loop")
    main.bind(loop)
    main.emit(Opcode.LOAD, 1)
    main.emit(Opcode.ICONST, 1)
    main.emit(Opcode.SUB)
    main.emit(Opcode.STORE, 1)
    main.emit(Opcode.CALL, loopy_ref)
    main.emit(Opcode.LOAD, 1)
    main.branch(Opcode.IFGT, loop)
    main.bind(join)
    main.emit(Opcode.RETURN)

    builder.add_method("main", "()V", main.build())
    builder.add_method("plain", "()V", assemble("return"))
    builder.add_method("loopy", "()V", assemble("return"))
    program = Program(classes=[builder.build()])
    order = estimate_first_use(program)
    # 'loopy' sits on the loop-bearing path, so it is predicted first.
    assert order.position(MethodId("H", "loopy")) < order.position(
        MethodId("H", "plain")
    )


def test_loop_body_calls_precede_loop_exit_calls():
    """Calls inside a loop are encountered before calls after it."""
    builder = ClassFileBuilder("L")
    inner_ref = builder.method_ref("L", "inner", "()V")
    after_ref = builder.method_ref("L", "after", "()V")
    source = f"""
        iconst 3
        store 0
    loop:
        load 0
        ifle done
        call {inner_ref}
        load 0
        iconst 1
        sub
        store 0
        goto loop
    done:
        call {after_ref}
        return
    """
    builder.add_method("main", "()V", assemble(source))
    builder.add_method("inner", "()V", assemble("return"))
    builder.add_method("after", "()V", assemble("return"))
    program = Program(classes=[builder.build()])
    order = estimate_first_use(program)
    assert order.position(MethodId("L", "inner")) < order.position(
        MethodId("L", "after")
    )


def test_recursive_program_terminates():
    order = estimate_first_use(mutual_recursion_program())
    assert len(order) == 3
    assert order.order[0] == MethodId("Even", "main")


def test_class_order_and_method_orders():
    order = estimate_first_use(figure1_program())
    assert order.class_order() == ["A", "B"]
    method_orders = order.method_orders()
    assert method_orders["A"] == ["main", "Bar_A", "Foo_A"]
    assert method_orders["B"] == ["Bar_B", "Foo_B"]


def test_position_of_unknown_method_raises():
    order = estimate_first_use(figure1_program())
    with pytest.raises(ReorderError):
        order.position(MethodId("A", "nope"))


def test_validate_against_rejects_other_program():
    order = estimate_first_use(figure1_program())
    with pytest.raises(ReorderError):
        order.validate_against(mutual_recursion_program())


# -- permutation invariance (property) ----------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_METHODS_PER_CLASS = 2


def _build_call_program(num_classes, calls, class_order):
    """One program from an adjacency map, declaring classes in
    ``class_order``.  Method index 0 of class 0 is the entry."""
    classes = []
    for class_index in class_order:
        builder = ClassFileBuilder(f"K{class_index}")
        for method_index in range(_METHODS_PER_CLASS):
            flat = class_index * _METHODS_PER_CLASS + method_index
            lines = []
            for callee in calls.get(flat, ()):
                callee_class, callee_method = divmod(
                    callee, _METHODS_PER_CLASS
                )
                callee_name = (
                    "main" if callee == 0 else f"m{callee_method}"
                )
                ref = builder.method_ref(
                    f"K{callee_class}", callee_name, "()V"
                )
                lines.append(f"call {ref}")
            lines.append("return")
            name = "main" if flat == 0 else f"m{method_index}"
            builder.add_method(name, "()V", assemble("\n".join(lines)))
        classes.append(builder.build())
    return Program(
        classes=classes, entry_point=MethodId("K0", "main")
    )


@st.composite
def _call_structures(draw):
    num_classes = draw(st.integers(min_value=2, max_value=4))
    total = num_classes * _METHODS_PER_CLASS
    calls = {}
    for flat in range(total):
        calls[flat] = draw(
            st.lists(
                st.integers(min_value=0, max_value=total - 1),
                max_size=3,
            )
        )
    permutation = draw(st.permutations(list(range(num_classes))))
    return num_classes, calls, permutation


@settings(max_examples=30, deadline=None)
@given(_call_structures())
def test_scg_order_invariant_under_class_permutation(structure):
    """The SCG prediction depends on the call structure, never on the
    order classes happen to be declared in: the reachable prefix of
    the order is identical under any permutation of the class list.
    (The unreachable tail is appended in file order by design, so it
    is excluded.)"""
    num_classes, calls, permutation = structure
    baseline = _build_call_program(
        num_classes, calls, list(range(num_classes))
    )
    permuted = _build_call_program(num_classes, calls, permutation)

    from repro.cfg import build_call_graph, program_facts

    reachable = set(
        build_call_graph(baseline, program_facts(baseline)).reachable_from(
            MethodId("K0", "main")
        )
    )
    baseline_order = [
        method
        for method in estimate_first_use(baseline).order
        if method in reachable
    ]
    permuted_order = [
        method
        for method in estimate_first_use(permuted).order
        if method in reachable
    ]
    assert baseline_order == permuted_order
