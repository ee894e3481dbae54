"""The committed ``BENCH_sim.json`` rows are what the library computes.

Every row of the Figure 6 grid in the committed baseline must equal
what :func:`repro.core.run_nonstrict` gives on its grid point, on the
integer-rounded cycle fields the benchmark writes
(``benchmarks/bench_sim.py``'s ``_row`` does the rounding).  The perf
gate compares the same rows, but only in its own CI job; this keeps
any drift in simulated behaviour inside the tier-1 suite.
"""

import json
import sys
from pathlib import Path

from repro.core import run_nonstrict, strict_baseline
from repro.harness import BENCHMARK_NAMES, bundle

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import bench_sim  # noqa: E402


def test_committed_rows_match_run_nonstrict():
    committed = json.loads(bench_sim.BENCH_PATH.read_text())["rows"]
    rows = []
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        for link_name, link in bench_sim.LINKS:
            base = strict_baseline(
                workload.program, workload.test_trace, link, workload.cpi
            )
            for ordering in bench_sim.ORDERINGS:
                for label, method, max_streams, partitioned in bench_sim.CONFIGS:
                    result = run_nonstrict(
                        workload.program,
                        workload.test_trace,
                        item.order(ordering),
                        link,
                        workload.cpi,
                        method=method,
                        max_streams=max_streams,
                        data_partitioning=partitioned,
                    )
                    labels = {
                        "workload": name,
                        "link": link_name,
                        "ordering": ordering,
                        "config": label,
                    }
                    rows.append(bench_sim._row(labels, result, base))
    assert len(rows) == len(committed) == 144
    assert rows == committed
