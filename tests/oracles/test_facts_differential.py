"""CFG facts and the typed dataflow against the code they replaced.

The library partitions blocks and builds CFG edges from per-opcode
tables, keeps each block's end offset from the partition, answers
loop-exit and innermost-loop questions from per-block indexes built
with the loops, and runs the dataflow through one handler per opcode.
The oracles in :mod:`.cfg_reference` and :mod:`.dataflow_reference` are
the code that did the same by reading :attr:`Instruction.info`,
re-summing block sizes, scanning every loop per edge, and walking an
``if`` chain per instruction.

For each drawn method body (see :mod:`.bodies`), each hand-written
corner case, and every method of the six workloads, both must build
the same blocks, edges, loops and ``forward_*`` counts, or raise the
same :class:`~repro.errors.CFGError`; and both dataflows must give the
same ``entry_states`` and issues (kind, message, index, in order), or
raise the same error.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.analyze import analyze_method
from repro.bytecode import (
    BRANCHES,
    OPCODE_SIZES,
    OPCODE_TABLE,
    Instruction,
    Opcode,
    assemble,
)
from repro.cfg import MethodFacts, method_facts, reverse_postorder
from repro.classfile import ClassFileBuilder
from repro.errors import CFGError, ReproError
from repro.harness import BENCHMARK_NAMES, bundle
from repro.program import MethodId

from .bodies import method_bodies
from .cfg_reference import (
    reference_analyze_loops,
    reference_build_cfg,
    reference_innermost_loop_header,
)
from .dataflow_reference import reference_analyze_method

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=400, deadline=None, derandomize=True, database=None
)


def reference_facts(method_id, method):
    try:
        cfg = reference_build_cfg(method.instructions)
    except CFGError as error:
        return MethodFacts(method_id, method.instructions, None, None, error)
    loops = reference_analyze_loops(cfg)
    return MethodFacts(method_id, method.instructions, cfg, loops, None)


def assert_same_cfg(cfg, expected):
    assert len(cfg.blocks) == len(expected.blocks)
    for block, reference in zip(cfg.blocks, expected.blocks):
        assert block.block_id == reference.block_id
        assert block.start_offset == reference.start_offset
        assert block.end_offset == reference.end_offset
        assert block.size_bytes == reference.size_bytes
        assert block.instructions == reference.instructions
        assert block.instruction_indexes == reference.instruction_indexes
        assert block.call_sites == reference.call_sites
        assert block.terminates == reference.terminates
        assert len(block) == len(reference)
    assert cfg.edges == expected.edges
    successors = {
        block.block_id: [edge.target for edge in expected.successor_edges(
            block.block_id
        )]
        for block in expected.blocks
    }
    assert cfg.successor_map() == successors
    for block in cfg.blocks:
        assert cfg.successors(block.block_id) == successors[block.block_id]
        assert cfg.successor_edges(block.block_id) == (
            expected.successor_edges(block.block_id)
        )
        assert cfg.predecessors(block.block_id) == (
            expected.predecessors(block.block_id)
        )
    assert cfg.reverse_postorder() == reverse_postorder(0, successors)


def assert_same_loops(cfg, loops, expected):
    assert loops.loops == expected.loops
    assert loops.back_edges == expected.back_edges
    assert loops.loop_headers == expected.loop_headers
    assert loops.loop_depth == expected.loop_depth
    assert loops.forward_loop_count == expected.forward_loop_count
    assert (
        loops.forward_instruction_count == expected.forward_instruction_count
    )
    for edge in cfg.edges:
        assert loops.is_back_edge(edge.source, edge.target) == (
            expected.is_back_edge(edge.source, edge.target)
        )
        assert loops.is_loop_exit_edge(edge) == expected.is_loop_exit_edge(
            edge
        )
    for block in cfg.blocks:
        assert loops.innermost_header.get(block.block_id) == (
            reference_innermost_loop_header(expected, block.block_id)
        )


def dataflow_outcome(analyze, classfile, method, facts):
    try:
        result = analyze(classfile, method, facts)
    except ReproError as error:
        return ("raised", type(error), str(error))
    return ("ok", result.cfg is None, result.entry_states, result.issues)


def assert_same_facts_and_dataflow(classfile, method):
    method_id = MethodId(classfile.name, method.name)
    facts = method_facts(method_id, method)
    expected = reference_facts(method_id, method)
    if expected.error is not None:
        assert facts.cfg is None and facts.loops is None
        assert type(facts.error) is type(expected.error)
        assert str(facts.error) == str(expected.error)
    else:
        assert facts.error is None
        assert_same_cfg(facts.cfg, expected.cfg)
        assert_same_loops(facts.cfg, facts.loops, expected.loops)
    actual = dataflow_outcome(analyze_method, classfile, method, facts)
    assert actual == dataflow_outcome(
        reference_analyze_method, classfile, method, expected
    )
    return facts, actual


@TIER1
@given(method_bodies())
def test_drawn_bodies_match_the_reference(body):
    assert_same_facts_and_dataflow(*body)


def _class_with(source, descriptor="()V", max_stack=4, max_locals=2):
    builder = ClassFileBuilder("T")
    builder.add_string_constant("s")
    builder.method_ref("T", "k", "(IA)A")
    builder.add_method(
        "m",
        descriptor,
        assemble(source),
        max_stack=max_stack,
        max_locals=max_locals,
    )
    classfile = builder.build()
    return classfile, classfile.method("m")


#: One body per corner the drawn bodies must reach, each named by what
#: it shows; the assertions check the case really is that corner.
CORNERS = {
    # Two entries into the b1/b2 cycle: no dominance back edge, so the
    # cycle survives in the forward graph as a non-trivial SCC.
    "irreducible-loop": (
        """
        load 0
        ifeq b2
    b1: load 1
        ifeq b2
        goto out
    b2: load 1
        ifne b1
    out: return
        """,
        {},
    ),
    "nested-loops": (
        """
    outer: load 0
        ifle done
    inner: load 1
        ifle step
        load 1
        iconst 1
        sub
        store 1
        goto inner
    step: load 0
        iconst 1
        sub
        store 0
        goto outer
    done: return
        """,
        {},
    ),
    # Block x is unreachable and reaches both loop tails, so both
    # natural loops take it in and have five blocks: its innermost
    # loop is a tie, which goes to the first loop in header order.
    "loops-tie-on-an-unreachable-block": (
        """
        goto h1
    h1: load 0
        ifeq e1
        goto m1
    m1: goto t1
    t1: goto h1
    e1: goto h2
    h2: load 0
        ifeq e2
        goto t2
    t2: goto h2
    e2: return
    x:  load 0
        ifeq t1
        goto t2
        """,
        {},
    ),
    "falls-off-end": ("iconst 1\npop", {}),
    "conditional-off-end": ("load 0\nifeq top\ntop: load 0\nifeq top", {}),
    "underflow": ("pop\nreturn", {}),
    "max-stack-overflow": ("iconst 1\niconst 2\niconst 3\nreturn", {
        "max_stack": 2
    }),
    "max-locals-overflow": ("load 5\nreturn", {}),
    "bad-ldc": ("ldc 1\npop\nreturn", {}),
    "call-through-bad-pool-index": ("call 1\nreturn", {}),
    "getstatic-past-the-pool": ("getstatic 900\npop\nreturn", {}),
    "definite-type-error": ("ldc 3\niconst 1\nadd\npop\nreturn", {}),
    "ireturn-in-void": ("iconst 1\nireturn", {}),
    "array-return-mismatch": (
        "iconst 1\nireturn",
        {"descriptor": "()A"},
    ),
}


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_corner_bodies_match_the_reference(name):
    source, options = CORNERS[name]
    facts, (status, *result) = assert_same_facts_and_dataflow(
        *_class_with(source, **options)
    )
    if name == "irreducible-loop":
        assert facts.loops.back_edges == set()
        assert facts.loops.forward_loop_count == {b: 0 for b in range(5)}
        # Blocks 1 and 3 form the cycle; one SCC shares one count.
        counts = facts.loops.forward_instruction_count
        assert 3 in facts.cfg.successors(1) and 1 in facts.cfg.successors(3)
        assert counts[1] == counts[3]
    elif name == "nested-loops":
        assert len(facts.loops.loops) == 2
    elif name == "loops-tie-on-an-unreachable-block":
        first, second = facts.loops.loops
        shared = first.body & second.body
        assert len(first.body) == len(second.body) == 5 and len(shared) == 1
        (block,) = shared
        assert facts.loops.innermost_header[block] == first.header
    elif name in ("falls-off-end", "conditional-off-end"):
        assert facts.error is not None
    elif name == "getstatic-past-the-pool":
        assert status == "ok"
        assert [issue.kind for issue in result[-1]] == ["operand"]
    else:
        assert status == "ok" and result[-1], "the corner reports issues"


def test_branch_into_an_instruction_matches_the_reference():
    # ``iconst`` is five bytes: offset 1 is inside it.
    builder = ClassFileBuilder("T")
    builder.add_method(
        "m",
        "()V",
        [
            Instruction(Opcode.ICONST, (0,)),
            Instruction(Opcode.GOTO, (-4,)),
        ],
    )
    classfile = builder.build()
    facts, _ = assert_same_facts_and_dataflow(
        classfile, classfile.method("m")
    )
    assert "not an instruction boundary" in str(facts.error)


#: Instructions that push one value of each abstract kind: an int, a
#: string (``ldc`` of a String), an array and a word of unknown kind
#: (``getstatic`` of an ``I`` field).
def _kind_pushes(string, word_field):
    return {
        "int": [Instruction(Opcode.ICONST, (1,))],
        "str": [Instruction(Opcode.LDC, (string,))],
        "arr": [
            Instruction(Opcode.ICONST, (2,)),
            Instruction(Opcode.NEWARRAY),
        ],
        "top": [Instruction(Opcode.GETSTATIC, (word_field,))],
    }


def _typed_operand_bodies(opcode):
    """For each way to fill ``opcode``'s popped operands with the four
    kinds, a body that pushes them, runs it and returns."""
    builder = ClassFileBuilder("T")
    string = builder.add_string_constant("s")
    word_field = builder.field_ref("T", "g", "I")
    array_field = builder.field_ref("T", "a", "A")
    callee = builder.method_ref("T", "k", "(IA)A")
    pushes = _kind_pushes(string, word_field)
    operand = {
        Opcode.LOAD: 0,
        Opcode.STORE: 0,
        Opcode.PUTSTATIC: array_field,
        Opcode.GETSTATIC: array_field,
        Opcode.LDC: string,
        Opcode.CALL: callee,
        Opcode.SYS: 0,
        Opcode.ICONST: 5,
    }
    pops = {Opcode.CALL: 2, Opcode.SYS: 1}.get(
        opcode, max(OPCODE_TABLE[opcode].pops, 0)
    )
    for kinds in itertools.product(sorted(pushes), repeat=pops):
        code = [push for kind in kinds for push in pushes[kind]]
        if opcode in BRANCHES:
            # Either way lands on the return after the branch.
            code.append(Instruction(opcode, (OPCODE_SIZES[opcode],)))
        elif OPCODE_TABLE[opcode].operands:
            code.append(Instruction(opcode, (operand[opcode],)))
        else:
            code.append(Instruction(opcode))
        code.append(Instruction(Opcode.RETURN))
        yield kinds, code, builder


@pytest.mark.parametrize("opcode", sorted(Opcode), ids=lambda op: op.name)
def test_every_operand_kind_matches_the_reference(opcode):
    """Every handler sees every kind in every operand it pops, so each
    type check it makes (or skips) is compared with the if-chain."""
    seen_issue_kinds = set()
    for number, (kinds, code, builder) in enumerate(
        _typed_operand_bodies(opcode)
    ):
        name = f"m{number}"
        descriptor = "()A" if opcode == Opcode.IRETURN else "()V"
        builder.add_method(name, descriptor, code, max_stack=4)
        classfile = builder.build()
        _, (status, *result) = assert_same_facts_and_dataflow(
            classfile, classfile.method(name)
        )
        assert status == "ok", (kinds, result)
        seen_issue_kinds.update(issue.kind for issue in result[-1])
    if OPCODE_TABLE[opcode].pops > 0 and opcode not in (
        Opcode.POP, Opcode.DUP, Opcode.SWAP, Opcode.STORE, Opcode.SYS
    ):
        assert "type" in seen_issue_kinds, "some kind is a type error"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_workload_method_matches_the_reference(name):
    for classfile in bundle(name).workload.program.classes:
        for method in classfile.methods:
            assert_same_facts_and_dataflow(classfile, method)
