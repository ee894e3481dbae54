"""Extension: wire compression composed with non-strict execution.

The paper (§2.1) positions compression as latency *avoidance*,
complementary to non-strict execution's latency *tolerance*, and
predicts the two compose.  This bench measures it: real zlib ratios on
each class's serialized image, applied per transfer unit, under
interleaved transfer on the modem.
"""

from repro.core import Simulator, strict_baseline
from repro.harness import BENCHMARK_NAMES, bundle
from repro.harness.results import ResultTable
from repro.reorder import restructure
from repro.sched import StripedController
from repro.transfer import (
    MODEM_LINK,
    TransferPolicy,
    program_compression_ratios,
    transfer_layout,
)


def compression_table() -> ResultTable:
    table = ResultTable(
        key="extension_compression",
        title=(
            "Extension: zlib compression x non-strict transfer "
            "(normalized time, interleaved, modem, Test ordering)"
        ),
        columns=[
            "Program",
            "Non-strict",
            "Non-strict + zlib",
            "Avg ratio",
        ],
    )
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        target = restructure(workload.program, item.test)
        base = strict_baseline(
            workload.program, workload.test_trace, MODEM_LINK, workload.cpi
        )
        ratios = program_compression_ratios(target)
        plain, compressed = (
            Simulator(
                workload.test_trace,
                StripedController(
                    transfer_layout(
                        target,
                        TransferPolicy.NON_STRICT,
                        item.test,
                        ratios=plan_ratios,
                    ),
                    (MODEM_LINK,),
                    policy="interleaved",
                ),
                workload.cpi,
            ).run()
            for plan_ratios in (None, ratios)
        )
        table.add_row(
            name,
            plain.normalized_to(base.total_cycles),
            compressed.normalized_to(base.total_cycles),
            sum(ratios.values()) / len(ratios),
        )
    table.add_average_row()
    return table


def test_compression_composes_with_nonstrict(benchmark, show):
    table = benchmark.pedantic(
        compression_table, rounds=1, iterations=1
    )
    show(table)
    for row in table.rows:
        plain, compressed, ratio = row[1], row[2], row[3]
        assert compressed < plain  # the techniques compose
        assert 0 < ratio < 1
