"""Multi-link striping sweep: 1/2/4 heterogeneous links × orderings.

The paper's transfer methodologies assume one link; :mod:`repro.sched`
stripes transfer units out of order across several.  This sweep runs
every paper workload under both static orderings (SCG and Train) over
four link configurations — two single links (28.8k and 57.6k modems)
and two heterogeneous stripes (2-link 57.6k+28.8k, 4-link
57.6k+2×28.8k+14.4k) — and persists the whole run table to
``BENCH_sched.json`` so the striping trajectory is tracked across PRs
like the other ``BENCH_*`` files.

The single links run ``round_robin``: on one link that issues the
virtual interleaved file a unit at a time, so a stall escalates the
missing unit past the rest of the queue.  The stripes run
``interleaved``, the same sequence spread over the links.  (One-link
``interleaved`` is the paper's single stream with no demand
correction, a weaker baseline for the claim below.)

The headline claim checked here: striping across 2+ links improves
first-invocation latency and total time over the *best* single-link
configuration of the sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import strict_baseline
from repro.harness import BENCHMARK_NAMES, bundle
from repro.harness.results import ResultTable
from repro.sched import run_striped
from repro.transfer import links_from_bandwidths

#: label -> heterogeneous link set (bits/second per link).
LINK_CONFIGS = (
    ("1x28.8k", (28_800,)),
    ("1x57.6k", (57_600,)),
    ("2-link 57.6+28.8", (57_600, 28_800)),
    ("4-link 57.6+2x28.8+14.4", (57_600, 28_800, 28_800, 14_400)),
)

ORDERS = ("SCG", "Train")


def _policy(links) -> str:
    return "round_robin" if len(links) == 1 else "interleaved"

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sched.json"


def _mean_latency(result) -> float:
    entries = result.latencies.entries
    return sum(entry.latency for entry in entries) / len(entries)


def sched_sweep():
    """Run the sweep; return (table, json_payload)."""
    table = ResultTable(
        key="sched_striping",
        title=(
            "Multi-link striping (normalized time %; one link "
            "round_robin, stripes interleaved)"
        ),
        columns=["Program", "Order"]
        + [label for label, _ in LINK_CONFIGS],
    )
    rows = []
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        workload = item.workload
        for order_label in ORDERS:
            order = item.order(order_label)
            cells = []
            for config_label, bandwidths in LINK_CONFIGS:
                links = links_from_bandwidths(bandwidths)
                base = strict_baseline(
                    workload.program,
                    workload.test_trace,
                    links[0],
                    workload.cpi,
                )
                result = run_striped(
                    workload.program,
                    workload.test_trace,
                    order,
                    links,
                    workload.cpi,
                    policy=_policy(links),
                )
                normalized = result.normalized_to(base.total_cycles)
                cells.append(normalized)
                rows.append(
                    {
                        "workload": name,
                        "order": order_label,
                        "config": config_label,
                        "links": [link.name for link in links],
                        "policy": _policy(links),
                        # Cycle counts are rounded to integers at the
                        # serialization boundary: the simulator's float
                        # cycle values (e.g. 276527777.77777773) would
                        # make baseline diffs depend on float printing,
                        # and sub-cycle precision is meaningless.
                        "total_cycles": round(result.total_cycles),
                        "normalized_percent": round(normalized, 2),
                        "stalls": result.stall_count,
                        "entry_latency_cycles": round(
                            result.latencies.entries[0].latency
                        ),
                        "mean_first_invocation_cycles": round(
                            _mean_latency(result)
                        ),
                    }
                )
            table.add_row(name, order_label, *cells)
    payload = {"schema": "repro.sched.bench/1", "rows": rows}
    return table, payload


def _best(rows, workload, order, multi):
    def is_multi(row):
        return len(row["links"]) > 1

    candidates = [
        row
        for row in rows
        if row["workload"] == workload
        and row["order"] == order
        and is_multi(row) == multi
    ]
    return min(
        candidates, key=lambda row: row["total_cycles"]
    ), min(
        candidates,
        key=lambda row: row["mean_first_invocation_cycles"],
    )


def test_striping_beats_best_single_link(benchmark, show):
    table, payload = benchmark.pedantic(
        sched_sweep, rounds=1, iterations=1
    )
    show(table)
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    rows = payload["rows"]
    latency_wins = 0
    for name in BENCHMARK_NAMES:
        for order_label in ORDERS:
            single_total, single_latency = _best(
                rows, name, order_label, multi=False
            )
            multi_total, multi_latency = _best(
                rows, name, order_label, multi=True
            )
            # Striping must never lose on total time: the 2-link
            # stripe strictly out-bandwidths the best single link.
            assert (
                multi_total["total_cycles"]
                < single_total["total_cycles"]
            ), f"{name}/{order_label}: striping lost on total cycles"
            if (
                multi_latency["mean_first_invocation_cycles"]
                < 0.95
                * single_latency["mean_first_invocation_cycles"]
            ):
                latency_wins += 1
    # The acceptance bar: a measurable (>5%) mean first-invocation
    # latency improvement for at least one workload/order pair.
    assert latency_wins >= 1, (
        "no workload improved mean first-invocation latency by >5% "
        "when striping across 2+ links"
    )
