"""The typed dataflow engine: verifier parity plus definite type errors."""

import pytest

from repro.analyze import ValType, analyze_method, run_lint
from repro.bytecode import assemble
from repro.cfg import method_facts
from repro.classfile import ClassFileBuilder
from repro.errors import VerificationError
from repro.linker import verify_method
from repro.program import MethodId, Program
from repro.workloads import (
    fibonacci_program,
    figure1_program,
    mutual_recursion_program,
)


def build_method(source, descriptor="()V", max_stack=16, max_locals=8):
    builder = ClassFileBuilder("T")
    builder.add_method(
        "m",
        descriptor,
        assemble(source),
        max_stack=max_stack,
        max_locals=max_locals,
    )
    classfile = builder.build()
    return classfile, classfile.method("m")


def facts_of(classfile, method):
    return method_facts(MethodId(classfile.name, method.name), method)


def issues_of(source, **kwargs):
    classfile, method = build_method(source, **kwargs)
    return analyze_method(classfile, method, facts_of(classfile, method)).issues


def test_example_programs_are_clean():
    for program in (
        figure1_program(),
        fibonacci_program(),
        mutual_recursion_program(),
    ):
        for classfile in program.classes:
            for method in classfile.methods:
                result = analyze_method(classfile, method, facts_of(classfile, method))
                assert result.ok, result.issues


def test_entry_states_expose_types():
    classfile, method = build_method(
        """
        iconst 3
        newarray
        store 0
        load 0
        arraylen
        pop
        return
        """
    )
    result = analyze_method(classfile, method, facts_of(classfile, method))
    assert result.ok
    # Before `load 0` the array is in local slot 0.
    assert result.state_before(3).locals[0] is ValType.ARR
    # Before `arraylen` the array is on the stack.
    assert result.state_before(4).stack[-1] is ValType.ARR
    assert result.reachable_indexes == list(range(7))


def test_unreachable_instructions_have_no_state():
    classfile, method = build_method(
        """
        return
        iconst 1
        pop
        return
        """
    )
    result = analyze_method(classfile, method, facts_of(classfile, method))
    assert result.ok
    assert result.reachable_indexes == [0]


# -- parity with the historical depth-only verifier ---------------------


def test_stack_underflow_detected():
    issues = issues_of("pop\nreturn")
    assert [issue.kind for issue in issues] == ["stack"]
    assert "T.m: stack underflow" in issues[0].message
    assert issues[0].instruction_index == 0


def test_stack_overflow_detected():
    issues = issues_of(
        "iconst 1\niconst 2\niconst 3\npop\npop\npop\nreturn",
        max_stack=2,
    )
    assert any(issue.kind == "stack" for issue in issues)


def test_inconsistent_join_depth_detected():
    issues = issues_of(
        """
        load 0
        ifeq skip
        iconst 9
        skip:
        return
        """
    )
    assert any(
        issue.kind == "stack" and "inconsistent" in issue.message
        for issue in issues
    )


def test_values_left_at_return_detected():
    issues = issues_of("iconst 1\nreturn")
    assert any(
        "left on the stack" in issue.message for issue in issues
    )


def test_unknown_sys_code_detected():
    issues = issues_of("sys 99\nreturn")
    assert [issue.kind for issue in issues] == ["operand"]


def test_bad_local_slot_detected():
    issues = issues_of("load 7\npop\nreturn", max_locals=4)
    assert [issue.kind for issue in issues] == ["operand"]


def test_return_kind_must_match_descriptor():
    assert any(
        issue.kind == "structure"
        for issue in issues_of("iconst 1\nireturn")  # ()V
    )
    assert any(
        issue.kind == "structure"
        for issue in issues_of("return", descriptor="()I")
    )


# -- new: definite type errors the old walk accepted --------------------


def test_arith_on_string_rejected():
    builder = ClassFileBuilder("T")
    index = builder.add_string_constant("mobile")
    builder.add_method(
        "bad", "()V", assemble(f"ldc {index}\niconst 1\nadd\npop\nreturn")
    )
    classfile = builder.build()
    bad = classfile.method("bad")
    result = analyze_method(classfile, bad, facts_of(classfile, bad))
    assert [issue.kind for issue in result.issues] == ["type"]
    assert "T.bad" in result.issues[0].message
    with pytest.raises(VerificationError):
        verify_method(classfile, classfile.method("bad"))


def test_arraylen_of_int_rejected():
    issues = issues_of("iconst 5\narraylen\npop\nreturn")
    assert [issue.kind for issue in issues] == ["type"]


def test_store_into_array_field_requires_array():
    builder = ClassFileBuilder("T")
    builder.add_field("slots", "A")
    field_ref = builder.field_ref("T", "slots", "A")
    builder.add_method(
        "bad",
        "()V",
        assemble(f"iconst 1\nputstatic {field_ref}\nreturn"),
    )
    classfile = builder.build()
    bad = classfile.method("bad")
    result = analyze_method(classfile, bad, facts_of(classfile, bad))
    assert [issue.kind for issue in result.issues] == ["type"]


def test_untyped_word_parameters_accept_arrays():
    # The surface compiler writes "I" for every parameter, even ones
    # that carry arrays at runtime (`Fold.sum(blocks)`); an "I" slot
    # is an untyped word, so indexing it must not be flagged.
    builder = ClassFileBuilder("T")
    builder.add_method(
        "sum",
        "(I)I",
        assemble("load 0\narraylen\nireturn"),
        max_locals=1,
    )
    ref = builder.method_ref("T", "sum", "(I)I")
    builder.add_method(
        "m",
        "()V",
        assemble(f"iconst 2\nnewarray\ncall {ref}\npop\nreturn"),
    )
    classfile = builder.build()
    for name in ("sum", "m"):
        method = classfile.method(name)
        result = analyze_method(classfile, method, facts_of(classfile, method))
        assert result.ok, result.issues
    # A call's "I" return is likewise an unknown word, not an int.
    m = classfile.method("m")
    main = analyze_method(classfile, m, facts_of(classfile, m))
    assert main.state_before(3).stack[-1] is ValType.TOP


def test_top_values_are_tolerated():
    # ALOAD results are statically unknown (TOP): using one as an int
    # must NOT be flagged — only *definite* mismatches are errors.
    issues = issues_of(
        """
        iconst 1
        newarray
        iconst 0
        aload
        iconst 1
        add
        pop
        return
        """
    )
    assert issues == []


# -- the refactored verifier delegates here -----------------------------


def test_verify_method_reports_first_issue_message():
    classfile, method = build_method("pop\nreturn")
    with pytest.raises(VerificationError) as excinfo:
        verify_method(classfile, method)
    assert "T.m: stack underflow" in str(excinfo.value)


@pytest.mark.parametrize(
    "source", ["getstatic 900\npop\nreturn", "call 900\nreturn", "call 0\nreturn"]
)
def test_pool_index_past_the_pool_is_an_operand_issue(source):
    """An operand past either end of the constant pool is a defect of
    the analyzed code: an ``operand`` issue, a ``VerificationError``
    and a lint finding, never a ``ConstantPoolError``."""
    classfile, method = build_method(source)
    (issue,) = analyze_method(classfile, method, facts_of(classfile, method)).issues
    assert issue.kind == "operand"
    assert "out of range" in issue.message
    with pytest.raises(VerificationError, match="T.m: constant pool index"):
        verify_method(classfile, method)
    builder = ClassFileBuilder("T")
    builder.add_method("main", "()V", assemble(source), max_stack=16, max_locals=8)
    report = run_lint(Program(classes=[builder.build()]))
    assert any("out of range" in finding.message for finding in report.findings)


def test_verify_method_accepts_clean_code():
    classfile, method = build_method("iconst 1\npop\nreturn")
    verify_method(classfile, method)  # must not raise
