"""Ablation: method-level vs basic-block-level non-strictness.

Paper §4: "checking for a delimiter at the conclusion of each basic
block incurs additional overhead with little added benefit."  We model
block-level delimiters as one delimiter per basic block: since execution
still requires whole methods, finer granularity is pure wire overhead.
"""

from repro.core import Simulator, strict_baseline
from repro.harness import bundle
from repro.harness.results import ResultTable
from repro.reorder import restructure
from repro.sched import StripedController
from repro.transfer import MODEM_LINK


def granularity_table() -> ResultTable:
    table = ResultTable(
        key="ablation_granularity",
        title=(
            "Ablation: delimiter granularity (normalized time, "
            "interleaved, modem, Test ordering)"
        ),
        columns=["Program", "Method-level", "Block-level", "Overhead KB"],
    )
    for name in ("Hanoi", "JHLZip", "TestDes"):
        item = bundle(name)
        workload = item.workload
        target = restructure(workload.program, item.test)
        base = strict_baseline(
            workload.program, workload.test_trace, MODEM_LINK, workload.cpi
        )
        results = {}
        overhead = {}
        for label, block_level in (
            ("Method-level", False),
            ("Block-level", True),
        ):
            controller = StripedController(
                target,
                item.test,
                (MODEM_LINK,),
                policy="interleaved",
                block_delimiters=block_level,
            )
            overhead[label] = sum(
                unit.size for unit in controller.sequence
            )
            result = Simulator(
                target, workload.test_trace, controller, workload.cpi
            ).run()
            results[label] = result.normalized_to(base.total_cycles)
        table.add_row(
            name,
            results["Method-level"],
            results["Block-level"],
            (overhead["Block-level"] - overhead["Method-level"]) / 1024,
        )
    return table


def test_block_delimiters_are_pure_overhead(benchmark, show):
    table = benchmark.pedantic(granularity_table, rounds=1, iterations=1)
    show(table)
    for row in table.rows:
        method_level, block_level, overhead_kb = row[1], row[2], row[3]
        assert block_level >= method_level  # never better
        assert overhead_kb > 0  # and strictly more bytes on the wire
