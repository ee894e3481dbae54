"""Interprocedural analysis: branch probabilities, RTA, pruning.

The pruning soundness check is the load-bearing half: for every
bundled workload a variant with injected dead methods must simulate
*identically* (per-method first-invocation latencies of surviving
methods, pure execution cycles) before and after
:func:`repro.analyze.prune_dead_methods`, under both transfer
methodologies.
"""

import hashlib
import math

import pytest

from repro.analyze import (
    analyze_interproc,
    analyze_program,
    block_frequencies,
    branch_probabilities,
    prune_dead_methods,
    run_lint,
    sarif_dumps,
)
from repro.analyze.interproc import BACK_EDGE_PROBABILITY
from repro.bytecode import assemble
from repro.cfg import analyze_loops, build_cfg, program_facts
from repro.classfile import ClassFileBuilder
from repro.core import run_nonstrict
from repro.errors import AnalysisError
from repro.harness.experiments import BENCHMARK_NAMES, bundle
from repro.program import MethodId, Program
from repro.reorder import estimate_first_use, textual_first_use
from repro.transfer import T1_LINK

SIMPLE_LOOP = """
    iconst 10
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


def _interproc(program):
    facts = program_facts(program)
    return analyze_interproc(program, facts, analyze_program(program, facts))


def _loop_cfg():
    cfg = build_cfg(assemble(SIMPLE_LOOP))
    return cfg, analyze_loops(cfg)


def _two_way_blocks(cfg):
    return [
        block.block_id
        for block in cfg.blocks
        if len(cfg.successors(block.block_id)) == 2
    ]


def test_branch_probabilities_sum_to_one():
    cfg, loops = _loop_cfg()
    probabilities = branch_probabilities(cfg, loops=loops)
    branches = _two_way_blocks(cfg)
    assert branches
    for block_id in branches:
        total = sum(
            probabilities[(block_id, successor)]
            for successor in cfg.successors(block_id)
        )
        assert total == pytest.approx(1.0)


def test_loop_back_path_dominates_exit():
    cfg, loops = _loop_cfg()
    probabilities = branch_probabilities(cfg, loops=loops)
    (branch,) = _two_way_blocks(cfg)
    in_loop, exit_block = None, None
    loop = loops.loops[0]
    for successor in cfg.successors(branch):
        if successor in loop.body:
            in_loop = successor
        else:
            exit_block = successor
    assert in_loop is not None and exit_block is not None
    # The loop heuristic anchors the back path at 0.88; further
    # Dempster-Shafer evidence (the exit block returns) only pushes it
    # higher.
    assert probabilities[(branch, in_loop)] >= BACK_EDGE_PROBABILITY
    assert (
        probabilities[(branch, in_loop)]
        > probabilities[(branch, exit_block)]
    )


def test_block_frequencies_scale_loop_bodies():
    cfg, loops = _loop_cfg()
    probabilities = branch_probabilities(cfg, loops=loops)
    frequencies = block_frequencies(cfg, probabilities, loops=loops)
    loop = loops.loops[0]
    body_frequency = max(
        frequencies[block_id] for block_id in loop.body
    )
    assert frequencies[cfg.entry.block_id] == pytest.approx(1.0)
    # The geometric trip-count multiplier makes loop blocks hotter
    # than any straight-line block.
    assert body_frequency > 1.5


def _diamond_program(dead=False, torn=False):
    """main -> a -> b, plus optional dead/torn additions."""
    builder = ClassFileBuilder("C")
    a_ref = builder.method_ref("C", "a", "()V")
    b_ref = builder.method_ref("C", "b", "()V")
    builder.add_method("main", "()V", assemble(f"call {a_ref}\nreturn"))
    body = f"call {b_ref}\nreturn"
    if torn:
        ghost_ref = builder.method_ref("C", "ghost", "()V")
        body = f"call {ghost_ref}\n" + body
    builder.add_method("a", "()V", assemble(body))
    builder.add_method("b", "()V", assemble("return"))
    if dead:
        builder.add_method("unused", "()V", assemble("return"))
    return Program(
        classes=[builder.build()],
        entry_point=MethodId("C", "main"),
    )


def test_reachability_and_dead_methods():
    analysis = _interproc(_diamond_program(dead=True))
    assert MethodId("C", "main") in analysis.reachable
    assert MethodId("C", "a") in analysis.reachable
    assert MethodId("C", "b") in analysis.reachable
    assert analysis.dead == (MethodId("C", "unused"),)
    assert math.isinf(
        analysis.expected_first_use(MethodId("C", "unused"))
    )


def test_monomorphic_and_torn_sites():
    analysis = _interproc(_diamond_program(torn=True))
    monomorphic = {
        (site.caller, site.targets[0])
        for site in analysis.monomorphic_sites
    }
    assert (MethodId("C", "main"), MethodId("C", "a")) in monomorphic
    assert (MethodId("C", "a"), MethodId("C", "b")) in monomorphic
    (torn,) = analysis.torn_sites
    assert torn.caller == MethodId("C", "a")
    assert torn.external_class == "C"
    assert not torn.targets


def test_call_graph_dominators():
    analysis = _interproc(_diamond_program())
    main = MethodId("C", "main")
    a = MethodId("C", "a")
    b = MethodId("C", "b")
    assert analysis.immediate_dominators[main] is None
    assert analysis.immediate_dominators[a] == main
    assert analysis.immediate_dominators[b] == a
    assert analysis.dominates(main, b)
    assert analysis.dominates(a, b)
    assert not analysis.dominates(b, a)


def test_edge_weights_discount_conditional_calls():
    builder = ClassFileBuilder("C")
    hot_ref = builder.method_ref("C", "hot", "()V")
    cold_ref = builder.method_ref("C", "cold", "()V")
    builder.add_method(
        "main",
        "()V",
        assemble(
            f"""
            call {hot_ref}
            load 0
            ifeq skip
            call {cold_ref}
        skip:
            return
            """
        ),
        max_locals=1,
    )
    builder.add_method("hot", "()V", assemble("return"))
    builder.add_method("cold", "()V", assemble("return"))
    program = Program(
        classes=[builder.build()],
        entry_point=MethodId("C", "main"),
    )
    analysis = _interproc(program)
    weights = {
        (edge.caller.method_name, edge.callee.method_name): weight
        for edge, weight in analysis.edge_weights.items()
    }
    assert weights[("main", "hot")] == pytest.approx(1.0)
    assert weights[("main", "cold")] < weights[("main", "hot")]


def test_prune_removes_only_dead_methods():
    program = _diamond_program(dead=True)
    result = prune_dead_methods(program, _interproc(program))
    assert result.pruned == (MethodId("C", "unused"),)
    assert result.bytes_saved > 0
    (classfile,) = result.program.classes
    assert [method.name for method in classfile.methods] == [
        "main",
        "a",
        "b",
    ]
    # Constant pool untouched: surviving call operands stay valid.
    (original,) = program.classes
    assert classfile.constant_pool == original.constant_pool


def test_analysis_inputs_are_checked():
    program = _diamond_program(dead=True)
    facts = program_facts(program)
    other = _diamond_program(dead=True)
    # Dataflows over another program's CFGs are refused, and so is
    # pruning with another program's analysis.
    with pytest.raises(AnalysisError, match="no dataflow of C.main"):
        analyze_interproc(
            program, facts, analyze_program(other, program_facts(other))
        )
    with pytest.raises(AnalysisError):
        prune_dead_methods(program, _interproc(other))


def test_prune_is_identity_without_dead_methods():
    program = _diamond_program()
    result = prune_dead_methods(program, _interproc(program))
    assert result.pruned == ()
    assert result.bytes_saved == 0
    assert result.program is program


# -- lint rules ---------------------------------------------------------


def test_lint_dead_method_shipped_and_not_at_tail():
    builder = ClassFileBuilder("C")
    a_ref = builder.method_ref("C", "a", "()V")
    builder.add_method("unused", "()V", assemble("return"))
    builder.add_method("main", "()V", assemble(f"call {a_ref}\nreturn"))
    builder.add_method("a", "()V", assemble("return"))
    program = Program(
        classes=[builder.build()],
        entry_point=MethodId("C", "main"),
    )
    # Textual order ships "unused" first: the rule must fire.
    report = run_lint(program, order=textual_first_use(program))
    assert report.by_rule().get("dead-method-shipped", 0) == 1
    # The static order puts dead methods behind every live one: quiet.
    report = run_lint(program, order=estimate_first_use(program))
    assert report.by_rule().get("dead-method-shipped", 0) == 0


def test_lint_guaranteed_mispredict_order():
    builder = ClassFileBuilder("C")
    helper_ref = builder.method_ref("C", "helper", "()V")
    builder.add_method("helper", "()V", assemble("return"))
    builder.add_method(
        "main", "()V", assemble(f"call {helper_ref}\nreturn")
    )
    program = Program(
        classes=[builder.build()],
        entry_point=MethodId("C", "main"),
    )
    # Textual order places helper before main, its dominator.
    report = run_lint(program, order=textual_first_use(program))
    findings = [
        finding
        for finding in report.findings
        if finding.rule_id == "guaranteed-mispredict-order"
    ]
    assert [f.span.method_name for f in findings] == ["helper"]
    report = run_lint(program, order=estimate_first_use(program))
    assert report.by_rule().get("guaranteed-mispredict-order", 0) == 0


def test_lint_unreachable_call_target_is_error():
    report = run_lint(_diamond_program(torn=True))
    findings = [
        finding
        for finding in report.findings
        if finding.rule_id == "unreachable-call-target"
    ]
    assert len(findings) == 1
    assert findings[0].severity.value == "error"
    assert report.has_errors


#: SHA-256 of ``sarif_dumps`` for the static-model lint of each paper
#: workload.  All six produce the same document: every rule listed,
#: no results.
WORKLOAD_SARIF_DIGEST = (
    "62f3381d3f3bc47e4a73a651089226ac584e023e72e649d6de15c49002430128"
)


def test_workloads_are_clean_under_new_rules():
    for name in BENCHMARK_NAMES:
        report = run_lint(bundle(name).workload.program)
        by_rule = report.by_rule()
        assert by_rule.get("dead-method-shipped", 0) == 0
        assert by_rule.get("unreachable-call-target", 0) == 0
        sarif = sarif_dumps(report).encode()
        assert hashlib.sha256(sarif).hexdigest() == WORKLOAD_SARIF_DIGEST, name


# -- pruning soundness, cross-checked on the simulator ------------------


def _inject_dead_class(program):
    builder = ClassFileBuilder("Deadwood")
    sink_ref = builder.method_ref("Deadwood", "sink", "()V")
    builder.add_method(
        "lump", "()V", assemble(f"call {sink_ref}\nreturn")
    )
    builder.add_method("sink", "()V", assemble("iconst 7\npop\nreturn"))
    import dataclasses

    return dataclasses.replace(
        program, classes=list(program.classes) + [builder.build()]
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("methodology", ["parallel", "interleaved"])
def test_prune_soundness_on_workloads(name, methodology):
    item = bundle(name)
    variant = _inject_dead_class(item.workload.program)
    analysis = _interproc(variant)
    injected = {
        MethodId("Deadwood", "lump"),
        MethodId("Deadwood", "sink"),
    }
    assert injected <= set(analysis.dead)

    pruned = prune_dead_methods(variant, analysis=analysis)
    assert injected == set(pruned.pruned)

    trace = item.workload.test_trace
    cpi = item.workload.cpi
    unpruned_run = run_nonstrict(
        variant,
        trace,
        estimate_first_use(variant),
        T1_LINK,
        cpi,
        method=methodology,
    )
    pruned_run = run_nonstrict(
        pruned.program,
        trace,
        estimate_first_use(pruned.program),
        T1_LINK,
        cpi,
        method=methodology,
    )
    # Identical VM work: the trace replay never touches dead code.
    assert pruned_run.execution_cycles == pytest.approx(
        unpruned_run.execution_cycles
    )
    # Identical first-invocation latency for every surviving method.
    unpruned_latencies = {
        entry.method: entry.latency
        for entry in unpruned_run.latencies.entries
    }
    for entry in pruned_run.latencies.entries:
        assert entry.latency == pytest.approx(
            unpruned_latencies[entry.method]
        ), entry.method
    # Pruning only ever removes wire bytes.
    assert pruned_run.total_cycles <= unpruned_run.total_cycles
