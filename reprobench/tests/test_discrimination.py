"""Discrimination self-test: slow one layer, see only its workloads move.

Each case makes one layer function 20% slower through the benchmark's
own wrapper (a busy-wait of 0.2 times the call's duration, added
inside the call) and runs short, small versions of the workloads.

* On every predicted workload the slowed layer must run inside the
  measured window.  Where the layer is a large enough share of the
  journey for 20% of it to show (``resolvable``), the predicted
  end-to-end metric must rise by at least half of the added time per
  op.  Restructuring is under 1% of a sweep and of a cold fetch, and
  ``Scoreboard.mark_landed`` about 2% of a striped fetch, so 20% more
  of either is below what a short run resolves; for those only the
  wiring is checked.
* On every bypassing workload the layer must not run inside the
  measured window, and the metric must stay within the benchmark's
  bound.

Run with ``python3 -m pytest reprobench/tests -q`` (about two minutes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

import pytest

import report
from journeys import Outcome
from tracing import Tracer

SECONDS = 2.0
FRACTION = 0.2
#: Added time per op, as a share of the metric, that a run resolves.
RESOLVABLE = 0.03

#: Small versions of the workloads, so a case takes seconds.
OPTIONS = {
    "sweep": {"names": ("Hanoi", "TestDes", "JHLZip")},
    "serve-warm": {"names": ("BIT", "JavaCup")},
    "serve-cold": {"names": ("Hanoi", "TestDes")},
    "serve-striped": {},
}

#: layer -> (metric, predicted, bypassing, resolvable) workloads.
CASES = {
    "reorder.restructure": (
        "complete_p50_ms",
        ("sweep", "serve-cold"),
        ("serve-warm",),
        (),
    ),
    "protocol.decode": (
        "complete_p50_ms",
        ("serve-warm",),
        ("sweep",),
        ("serve-warm",),
    ),
    "sched.scoreboard.mark_landed": (
        "complete_p50_ms",
        ("serve-striped",),
        ("serve-warm", "serve-cold", "sweep"),
        (),
    ),
}

BENCH = Path(__file__).resolve().parents[1]
BOUNDS = {
    metric["name"]: metric["bound"]
    for metric in json.loads((BENCH.parent / "BENCHMARK.json").read_text())[
        "end_to_end"
    ]
}

Run = Tuple[Outcome, Tracer, Dict[str, float]]


def _run(workload: str, handicap: Dict[str, float]) -> Run:
    tracer = Tracer(record=False, handicap=handicap)
    outcome = report.measure(workload, 7, SECONDS, tracer, **OPTIONS[workload])
    assert outcome.failed == 0, outcome.errors
    values, _ = report.end_to_end(outcome)
    return outcome, tracer, values


@pytest.fixture(scope="module")
def clean() -> Dict[str, Run]:
    return {workload: _run(workload, {}) for workload in OPTIONS}


@pytest.mark.parametrize("layer", sorted(CASES))
def test_slowed_layer_moves_only_its_workloads(layer: str, clean: Dict[str, Run]) -> None:
    metric, predicted, bypassing, resolvable = CASES[layer]
    for workload in predicted:
        outcome, tracer, values = _run(workload, {layer: FRACTION})
        injected_ms = (
            tracer.injected_since(outcome.measure_start)
            * 1e3
            * outcome.probe.scale_over(outcome.measure_start, outcome.measure_end)
            / max(len(outcome.samples), 1)
        )
        assert injected_ms > 0, f"{layer} never ran on {workload}"
        if outcome.journeys_ms:  # the sweep's journey holds every row
            injected_ms *= len(outcome.samples) / len(outcome.journeys_ms)
        before = clean[workload][2][metric]
        if workload in resolvable:
            assert injected_ms >= RESOLVABLE * before, (
                f"{layer} is too small a share of {workload} to resolve"
            )
            assert values[metric] - before >= 0.5 * injected_ms, (
                f"{workload} {metric}: {before:.3f} -> {values[metric]:.3f} "
                f"with {injected_ms:.3f} ms added per op"
            )
    for workload in bypassing:
        outcome, tracer, values = _run(workload, {layer: FRACTION})
        assert tracer.injected_since(outcome.measure_start) == 0.0, (
            f"{layer} ran on bypassing workload {workload}"
        )
        before = clean[workload][2][metric]
        assert abs(values[metric] - before) <= BOUNDS[metric] * before, (
            f"{workload} {metric}: {before:.3f} -> {values[metric]:.3f}"
        )
