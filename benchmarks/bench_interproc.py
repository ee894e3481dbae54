"""Weighted (optimized-layout) order vs SCG/Train across the suite.

The interprocedural pass (:mod:`repro.analyze.interproc`) feeds the
third first-use strategy, ``weighted`` (:mod:`repro.reorder.weighted`):
a measured spine from the training profile, affinity-anchor placement
of unprofiled methods, an economic insertion gate, and a
balanced-partitioning dead tail.  This sweep runs all three orders
over every paper workload through both transfer methodologies and the
2-link striped scheduler, and persists the run table to
``BENCH_analyze.json`` so the layout trajectory is tracked across PRs
like the other ``BENCH_*`` files.

The headline claim checked here: on the interleaved methodology over
T1 — the configuration where a mispredicted method stalls execution
until its stream position arrives — ``weighted`` strictly reduces
mean first-invocation latency below the *better* of SCG and Train on
at least 3 of the 6 workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import run_nonstrict
from repro.harness import BENCHMARK_NAMES, bundle
from repro.harness.results import ResultTable
from repro.sched import run_striped
from repro.transfer import T1_LINK, links_from_bandwidths

ORDERS = ("SCG", "Train", "weighted")
METHODS = ("interleaved", "parallel")
STRIPE_BANDWIDTHS = (57_600, 28_800)
WINS_REQUIRED = 3

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_analyze.json"


def _mean_latency(result) -> float:
    entries = result.latencies.entries
    return sum(entry.latency for entry in entries) / len(entries)


def interproc_sweep():
    """Run the sweep; return (table, json_payload)."""
    table = ResultTable(
        key="interproc_orders",
        title=(
            "First-use orders: mean first-invocation latency "
            "(Mcycles, interleaved, T1)"
        ),
        columns=["Program", *ORDERS, "weighted wins"],
    )
    rows = []
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        interleaved_means = {}
        for order_label in ORDERS:
            order = item.order(order_label)
            for method in METHODS:
                result = run_nonstrict(
                    workload.program,
                    workload.test_trace,
                    order,
                    T1_LINK,
                    workload.cpi,
                    method=method,
                )
                mean = _mean_latency(result)
                if method == "interleaved":
                    interleaved_means[order_label] = mean
                rows.append(
                    {
                        "workload": name,
                        "order": order_label,
                        "method": method,
                        "link": "T1",
                        # Rounded at the serialization boundary so
                        # baseline diffs never depend on float printing.
                        "total_cycles": round(result.total_cycles),
                        "stalls": len(result.stalls),
                        "mean_first_invocation_cycles": round(mean),
                    }
                )
            links = links_from_bandwidths(STRIPE_BANDWIDTHS)
            striped = run_striped(
                workload.program,
                workload.test_trace,
                order,
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
                    "total_cycles": round(striped.total_cycles),
                    "stalls": striped.stall_count,
                    "mean_first_invocation_cycles": round(
                        _mean_latency(striped)
                    ),
                }
            )
        best_baseline = min(
            interleaved_means["SCG"], interleaved_means["Train"]
        )
        win = interleaved_means["weighted"] < best_baseline
        table.add_row(
            name,
            interleaved_means["SCG"] / 1e6,
            interleaved_means["Train"] / 1e6,
            interleaved_means["weighted"] / 1e6,
            "yes" if win else "no",
        )
    payload = {"schema": "repro.analyze.interproc.bench/1", "rows": rows}
    return table, payload


def _interleaved_wins(rows) -> int:
    wins = 0
    for name in BENCHMARK_NAMES:
        means = {
            row["order"]: row["mean_first_invocation_cycles"]
            for row in rows
            if row["workload"] == name and row["method"] == "interleaved"
        }
        if means["weighted"] < min(means["SCG"], means["Train"]):
            wins += 1
    return wins


def test_weighted_order_beats_best_baseline(benchmark, show):
    table, payload = benchmark.pedantic(
        interproc_sweep, rounds=1, iterations=1
    )
    show(table)
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    wins = _interleaved_wins(payload["rows"])
    # The acceptance bar: the optimized layout strictly beats the
    # better of SCG/Train on mean first-invocation latency for at
    # least half the suite (the remainder are already execution-bound
    # or have no unprofiled methods to place better).
    assert wins >= WINS_REQUIRED, (
        f"weighted order won on {wins} workloads, "
        f"needs >= {WINS_REQUIRED}"
    )
