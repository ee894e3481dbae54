"""The lint framework, its exporters, and the repro-inspect lint CLI."""

import json

import pytest

from repro import record_run, save_program, save_trace
from repro.analyze import (
    Severity,
    all_rules,
    run_lint,
    sarif_dumps,
    to_json,
    to_sarif,
    validate_sarif,
)
from repro.analyze import dataflow, interproc
from repro.bytecode import assemble
from repro.cfg import ControlFlowGraph, LoopAnalysis
from repro.classfile import ClassFileBuilder
from repro.errors import AnalysisError
from repro.harness.experiments import bundle
from repro.observe import MetricsRegistry, TraceRecorder
from repro.program import Program
from repro.tools import main
from repro.workloads import figure1_program

EXPECTED_RULE_IDS = {
    "type-error",
    "schedule-deadlock",
    "guaranteed-mispredict",
    "dead-method",
    "proven-stall",
    "dead-method-shipped",
    "guaranteed-mispredict-order",
    "unreachable-call-target",
}


def broken_program():
    """A runnable program whose helper has a definite type error."""
    builder = ClassFileBuilder("Bad")
    index = builder.add_string_constant("oops")
    builder.add_method("main", "()V", assemble("return"))
    builder.add_method(
        "helper", "()V", assemble(f"ldc {index}\niconst 1\nadd\npop\nreturn")
    )
    return Program(classes=[builder.build()])


def fall_off_program():
    """The only method lets control fall off the end of its code."""
    builder = ClassFileBuilder("C")
    builder.add_method("main", "()V", assemble("iconst 1\npop"))
    return Program(classes=[builder.build()])


def test_registry_contains_the_documented_rules():
    assert {rule.rule_id for rule in all_rules()} == EXPECTED_RULE_IDS


def test_lint_clean_program_with_trace():
    program = figure1_program()
    _, recorder = record_run(program)
    report = run_lint(program, trace=recorder.trace)
    assert not report.has_errors
    assert report.methods_analyzed == 5
    assert report.runtime_seconds > 0
    # Figure 1's textual layout provably stalls on a T1 line.
    assert report.by_rule().get("proven-stall", 0) >= 1
    assert all(
        finding.severity is not Severity.ERROR
        for finding in report.findings
    )


def test_lint_flags_type_errors():
    report = run_lint(broken_program())
    assert report.has_errors
    errors = [
        finding
        for finding in report.findings
        if finding.rule_id == "type-error"
    ]
    assert errors and errors[0].span.qualified_name == "Bad.helper"


def test_lint_reports_a_malformed_body_instead_of_raising():
    report = run_lint(fall_off_program())
    assert report.has_errors
    assert [
        (finding.rule_id, finding.span.qualified_name, finding.message)
        for finding in report.findings
    ] == [
        ("type-error", "C.main", "cfg: control falls off the end of the code")
    ]
    # The static order, both transfer plans and the interprocedural
    # pass need the CFG: each is skipped with a note naming the method.
    assert len(report.notes) == 4
    for note in report.notes:
        assert "C.main: control falls off the end of the code" in note


def test_lint_builds_each_method_fact_once(monkeypatch):
    program = bundle("Hanoi").workload.program
    counts = {"cfg": 0, "loops": 0, "dataflow": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ControlFlowGraph, "__init__", "cfg")
    counting(LoopAnalysis, "__init__", "loops")
    counting(dataflow._Analysis, "run", "dataflow")
    run_lint(program)
    methods = program.method_count
    assert counts == {"cfg": methods, "loops": methods, "dataflow": methods}


def test_lint_lets_an_interprocedural_bug_escape(monkeypatch):
    def bug(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(interproc, "block_frequencies", bug)
    with pytest.raises(KeyError):
        run_lint(figure1_program())


def test_lint_notes_a_typed_interprocedural_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AnalysisError("refused")

    monkeypatch.setattr(interproc, "block_frequencies", refuse)
    report = run_lint(figure1_program())
    assert report.notes == ["interprocedural analysis skipped: refused"]


def test_lint_publishes_metrics_and_events():
    metrics = MetricsRegistry()
    recorder = TraceRecorder(clock="seconds")
    report = run_lint(
        broken_program(), metrics=metrics, recorder=recorder
    )
    assert metrics.counter_total("analyze_findings_total") == len(
        report.findings
    )
    events = recorder.named("analysis_finding")
    assert len(events) == len(report.findings)
    assert any(
        event.args["rule"] == "type-error" for event in events
    )


def test_sarif_export_is_valid():
    program = figure1_program()
    _, recorder = record_run(program)
    report = run_lint(program, trace=recorder.trace)
    document = to_sarif(report)
    validate_sarif(document)  # must not raise
    reparsed = json.loads(sarif_dumps(report))
    validate_sarif(reparsed)
    run = reparsed["runs"][0]
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} == (
        EXPECTED_RULE_IDS
    )
    assert len(run["results"]) == len(report.findings)
    for result in run["results"]:
        assert result["level"] in ("note", "warning", "error")


def test_json_export_counts():
    report = run_lint(broken_program())
    payload = to_json(report)
    assert len(payload["findings"]) == len(report.findings)
    assert payload["counts"]["error"] >= 1
    assert payload["methods_analyzed"] == report.methods_analyzed


@pytest.mark.parametrize(
    "mutate, message_part",
    [
        (lambda d: d.update(version="2.0.0"), "version"),
        (lambda d: d.update(runs=[]), "runs"),
        (
            lambda d: d["runs"][0]["tool"]["driver"].pop("name"),
            "driver.name",
        ),
        (
            lambda d: d["runs"][0]["results"][0].update(level="fatal"),
            "level",
        ),
        (
            lambda d: d["runs"][0]["results"][0].update(ruleIndex=99),
            "ruleIndex",
        ),
        (
            lambda d: d["runs"][0]["results"][0]["locations"][0][
                "physicalLocation"
            ]["region"].update(startLine=0),
            "startLine",
        ),
    ],
)
def test_malformed_sarif_rejected(mutate, message_part):
    report = run_lint(broken_program())
    document = to_sarif(report)
    mutate(document)
    with pytest.raises(AnalysisError) as excinfo:
        validate_sarif(document)
    assert message_part in str(excinfo.value)


# -- the CLI gate -------------------------------------------------------


def test_cli_lint_clean_program_exits_zero(tmp_path, capsys):
    program = figure1_program()
    directory = save_program(program, tmp_path / "prog")
    _, recorder = record_run(program)
    trace = save_trace(recorder.trace, tmp_path / "trace.json")
    sarif_path = tmp_path / "out.sarif"
    json_path = tmp_path / "out.json"
    code = main(
        [
            "lint",
            str(directory),
            "--trace",
            str(trace),
            "--sarif",
            str(sarif_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "(trace model)" in out
    validate_sarif(json.loads(sarif_path.read_text()))
    assert json.loads(json_path.read_text())["counts"].get("error", 0) == 0


def test_cli_lint_broken_program_exits_nonzero(tmp_path, capsys):
    directory = save_program(broken_program(), tmp_path / "bad")
    code = main(["lint", str(directory)])
    assert code == 1
    assert "type-error" in capsys.readouterr().out


def test_cli_lint_malformed_body_exits_one(tmp_path, capsys):
    directory = save_program(fall_off_program(), tmp_path / "falloff")
    assert main(["lint", str(directory), "--fail-on", "error"]) == 1
    out = capsys.readouterr().out
    assert "type-error" in out
    assert "note: interprocedural analysis skipped: C.main:" in out


def test_cli_lint_workload_mode(tmp_path, capsys):
    sarif_path = tmp_path / "hanoi.sarif"
    code = main(["lint", "--workload", "Hanoi", "--sarif", str(sarif_path)])
    assert code == 0
    validate_sarif(json.loads(sarif_path.read_text()))


def test_cli_lint_requires_exactly_one_input(capsys):
    assert main(["lint"]) == 2
