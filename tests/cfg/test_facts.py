"""Per-method facts: built once, checked against the code they describe."""

import copy

import pytest

from repro.bytecode import assemble
from repro.cfg import build_call_graph, method_facts, program_facts
from repro.classfile import ClassFileBuilder
from repro.errors import CFGError
from repro.program import MethodId, Program
from repro.reorder import estimate_first_use, restructure
from repro.workloads import figure1_program


def _fall_off_program():
    """``main`` is fine; ``broken`` lets control fall off its end."""
    builder = ClassFileBuilder("C")
    builder.add_method("main", "()V", assemble("return"))
    builder.add_method("broken", "()V", assemble("iconst 1\npop"))
    return Program(classes=[builder.build()])


def test_program_facts_cover_every_method_in_order():
    program = figure1_program()
    facts = program_facts(program)
    assert list(facts.methods) == list(program.method_ids())
    for method_id, method in program.methods():
        entry = facts.of(method_id, method)
        assert entry.error is None
        cfg, loops = entry.require()
        assert cfg.instruction_count == len(method.instructions)
        assert set(loops.loop_depth) == {block.block_id for block in cfg.blocks}


def test_failed_cfg_is_kept_not_raised():
    program = _fall_off_program()
    facts = program_facts(program)
    broken = facts.methods[MethodId("C", "broken")]
    assert broken.cfg is None and broken.loops is None
    assert "falls off the end" in str(broken.error)
    with pytest.raises(CFGError, match="C.broken: control falls off"):
        broken.require()
    assert facts.failures(program) == [broken]
    with pytest.raises(CFGError, match="C.broken"):
        build_call_graph(program, facts)


def test_facts_of_other_code_are_refused():
    program = figure1_program()
    facts = program_facts(program)
    copied = copy.deepcopy(program)
    with pytest.raises(CFGError, match="facts of"):
        build_call_graph(copied, facts)
    main = MethodId("A", "main")
    with pytest.raises(CFGError, match="facts of A.main passed for"):
        method_facts(main, program.method(main)).check(
            MethodId("B", "Foo_B"), program.method(MethodId("B", "Foo_B"))
        )


def test_restructured_program_shares_the_original_facts():
    program = figure1_program()
    facts = program_facts(program)
    target = restructure(program, estimate_first_use(program))
    graph = build_call_graph(target, facts)
    assert graph.methods == list(target.method_ids())
    assert set(graph.edges) == set(build_call_graph(program, facts).edges)
