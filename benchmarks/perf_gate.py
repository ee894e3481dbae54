"""CI perf-regression gate for the simulator.

Re-runs the ``bench_sim`` sweep and compares it against the committed
``BENCH_sim.json`` baseline:

* **Cycle drift** — every row (integer cycle counts, stall counts,
  first-invocation latencies) must match the baseline exactly.  The
  simulator is deterministic, so *any* difference means simulated
  behaviour changed and the gate fails.
* **Speedup regression** — wall-clock seconds do not transfer between
  machines, so the gate compares the ``run_reference()``/``run()``
  speedup *ratio* (the oracle loop lives in
  ``tests/oracles/simulation_reference.py``): if the current ratio
  falls more than ``--tolerance`` (default 12%) below the committed
  one, the core got relatively slower and the gate fails.  Over seven runs on
  a loaded 2-vCPU host the ratio spread ±5%, so 12% leaves room on
  both sides: clean runs pass and the 20% self-test below fails.

A markdown delta table is appended to ``--summary`` (defaulting to
``$GITHUB_STEP_SUMMARY`` when set, else stdout).

Re-baselining (after a deliberate behaviour or performance change)::

    python benchmarks/perf_gate.py --update-baseline
    git add BENCH_sim.json   # commit the new baseline

Gate self-test (prove a slowdown is caught)::

    REPRO_PERF_HANDICAP=0.2 python benchmarks/perf_gate.py  # must fail
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sim import BENCH_PATH, sim_sweep  # noqa: E402

_ROW_KEY = ("workload", "link", "ordering", "config")

_CYCLE_FIELDS = (
    "total_cycles",
    "stalls",
    "entry_latency_cycles",
    "mean_first_invocation_cycles",
    "normalized_percent",
)


def _row_key(row: Dict[str, object]) -> Tuple[object, ...]:
    return tuple(row[field] for field in _ROW_KEY)


def _index(rows: List[Dict[str, object]]):
    return {_row_key(row): row for row in rows}


def compare(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float,
) -> Tuple[List[str], List[List[str]]]:
    """Return (failures, markdown delta rows)."""
    failures: List[str] = []
    deltas: List[List[str]] = []

    base_rows = _index(baseline["rows"])
    current_rows = _index(current["rows"])
    for key in sorted(base_rows.keys() | current_rows.keys(), key=repr):
        base_row = base_rows.get(key)
        current_row = current_rows.get(key)
        label = "/".join(str(part) for part in key)
        if base_row is None or current_row is None:
            failures.append(
                f"grid point {label} "
                + ("appeared" if base_row is None else "disappeared")
            )
            continue
        for field in _CYCLE_FIELDS:
            if base_row[field] != current_row[field]:
                failures.append(
                    f"{label}: {field} {base_row[field]} -> "
                    f"{current_row[field]}"
                )
                deltas.append(
                    [
                        label,
                        field,
                        str(base_row[field]),
                        str(current_row[field]),
                    ]
                )

    base_speedup = float(baseline["speedup"])
    current_speedup = float(current["speedup"])
    floor = base_speedup / (1.0 + tolerance)
    deltas.append(
        [
            "Figure 6 grid",
            "speedup (reference wall / batched wall)",
            f"{base_speedup:.2f}x",
            f"{current_speedup:.2f}x (floor {floor:.2f}x)",
        ]
    )
    if current_speedup < floor:
        failures.append(
            f"speedup regression: {current_speedup:.2f}x is more than "
            f"{tolerance:.0%} below the {base_speedup:.2f}x baseline"
        )
    return failures, deltas


def render_summary(
    failures: List[str],
    deltas: List[List[str]],
    current: Dict[str, object],
) -> str:
    engines = current["engines"]
    lines = [
        "## Simulation perf gate",
        "",
        "| Metric | Baseline | Current |",
        "| --- | --- | --- |",
    ]
    for label, field, base_value, current_value in deltas:
        lines.append(
            f"| {label} — {field} | {base_value} | {current_value} |"
        )
    lines += [
        "",
        f"Reference wall: {engines['reference']['grid_wall_s']}s — "
        f"batched wall: {engines['batched']['grid_wall_s']}s",
        "",
    ]
    if failures:
        lines.append(f"**FAIL** — {len(failures)} problem(s):")
        lines += [f"- {failure}" for failure in failures]
        lines += [
            "",
            "If this change is intentional, re-baseline with "
            "`python benchmarks/perf_gate.py --update-baseline` "
            "and commit `BENCH_sim.json`.",
        ]
    else:
        lines.append(
            "**PASS** — cycle counts byte-identical, speedup within "
            "tolerance."
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BENCH_PATH,
        help="committed baseline JSON (default: BENCH_sim.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.12,
        help="allowed relative speedup drop (default 0.12 = 12%%)",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="markdown summary target "
        "(default: $GITHUB_STEP_SUMMARY or stdout)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run and exit 0",
    )
    options = parser.parse_args(argv)

    current = sim_sweep()

    if options.update_baseline:
        options.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(
            f"baseline updated: {options.baseline} "
            f"(speedup {current['speedup']}x)"
        )
        return 0

    if not options.baseline.exists():
        print(
            f"no baseline at {options.baseline}; create one with "
            "--update-baseline",
            file=sys.stderr,
        )
        return 2

    baseline = json.loads(options.baseline.read_text())
    failures, deltas = compare(baseline, current, options.tolerance)
    summary = render_summary(failures, deltas, current)

    summary_path = options.summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with summary_path.open("a") as handle:
            handle.write(summary)
    print(summary)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
