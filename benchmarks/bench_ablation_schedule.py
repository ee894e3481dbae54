"""Ablation: the greedy byte-triggered transfer schedule (§5.1).

Compares the paper's dependency-triggered class starts against an
eager policy that requests every class up front, with no
concurrency limit — the regime where scheduling matters: eager starts
dilute the bandwidth across every class at once, while the schedule
keeps classes predicted to be needed late (or never) off the wire
until transfer progress warrants them.
"""

from repro.core import Simulator, strict_baseline
from repro.harness import BENCHMARK_NAMES, bundle
from repro.harness.results import ResultTable
from repro.reorder import restructure
from repro.sched import StripedController
from repro.transfer import MODEM_LINK


def schedule_table() -> ResultTable:
    table = ResultTable(
        key="ablation_schedule",
        title=(
            "Ablation: greedy transfer schedule vs eager starts "
            "(normalized time, parallel, unlimited streams, modem, "
            "SCG ordering)"
        ),
        columns=["Program", "Greedy schedule", "Eager starts"],
    )
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        target = restructure(workload.program, item.scg)
        base = strict_baseline(
            workload.program, workload.test_trace, MODEM_LINK, workload.cpi
        )
        cells = []
        for eager in (False, True):
            controller = StripedController(
                target,
                item.scg,
                (MODEM_LINK,),
                policy="parallel",
                max_streams=None,
                eager_start=eager,
            )
            result = Simulator(
                target, workload.test_trace, controller, workload.cpi
            ).run()
            cells.append(result.normalized_to(base.total_cycles))
        table.add_row(name, *cells)
    table.add_average_row()
    return table


def test_schedule_beats_eager_starts(benchmark, show):
    table = benchmark.pedantic(schedule_table, rounds=1, iterations=1)
    show(table)
    assert table.cell("AVG", "Greedy schedule") < table.cell(
        "AVG", "Eager starts"
    )
