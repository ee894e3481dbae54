"""The committed ``BENCH_analyze.json`` striped rows are what the
library computes.

``benchmarks/bench_interproc.py`` writes one ``"method": "striped"``
row per workload and order (SCG, Train, weighted): a two-link
57.6k+28.8k stripe through :func:`repro.sched.run_striped`.  Each
committed row must equal a fresh run on the exact integer fields the
benchmark writes, so a change to the striping engine that moves a
cycle fails in the tier-1 suite, not only when the benchmark is
regenerated.
"""

import json
import sys
from pathlib import Path

from repro.harness import BENCHMARK_NAMES, bundle
from repro.sched import run_striped
from repro.transfer import links_from_bandwidths

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import bench_interproc  # noqa: E402


def test_committed_striped_rows_match_run_striped():
    committed = [
        row
        for row in json.loads(bench_interproc.BENCH_PATH.read_text())["rows"]
        if row["method"] == "striped"
    ]
    links = links_from_bandwidths(bench_interproc.STRIPE_BANDWIDTHS)
    rows = []
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        for order_label in bench_interproc.ORDERS:
            result = run_striped(
                workload.program,
                workload.test_trace,
                item.order(order_label),
                links,
                workload.cpi,
                policy="interleaved",
            )
            rows.append(
                {
                    "workload": name,
                    "order": order_label,
                    "method": "striped",
                    "link": "+".join(link.name for link in links),
                    "total_cycles": round(result.total_cycles),
                    "stalls": result.stall_count,
                    "mean_first_invocation_cycles": round(
                        bench_interproc._mean_latency(result)
                    ),
                }
            )
    assert len(rows) == len(committed) == 18
    assert rows == committed
