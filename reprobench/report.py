"""Derive metrics from one workload run, print them, keep a run table.

End-to-end metrics come from untraced runs only; per-layer metrics
from a separate traced run.  Both are defined in README.md.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import statistics
from typing import Any, Dict, Optional, Tuple

from repro.netserve.loadgen import percentile

import journeys
from journeys import Outcome
from tracing import Tracer

#: (name, unit) of every end-to-end metric; all are reported on every
#: workload.  An "op" is one fetch, or one grid row of the sweep.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("complete_p50_ms", "ms"),
    ("complete_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
)

#: (name, unit) of every per-layer metric, printed by a traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate_s", "s"),
    ("reorder.first_use_s", "s"),
    ("vm.synthesize_profile_s", "s"),
    ("reorder.restructure_s", "s"),
    ("reorder.restructure_calls", "count"),
    ("transfer.controller_build_s", "s"),
    ("core.simulate_s", "s"),
    ("core.segments_per_s", "1/s"),
    ("core.compile_trace_s", "s"),
    ("core.strict_baseline_s", "s"),
    ("netserve.fingerprint_ms", "ms"),
    ("reorder.order_ms", "ms"),
    ("reorder.restructure_ms", "ms"),
    ("transfer.plans_ms", "ms"),
    ("netserve.payloads_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("protocol.encode_MBps", "MB/s"),
    ("netserve.artifact_build_ms", "ms"),
    ("netserve.artifact_build_self_ms", "ms"),
    ("client.connect_ms", "ms"),
    ("client.entry_wait_ms", "ms"),
    ("client.entry_arrival_ms", "ms"),
    ("client.drain_ms", "ms"),
    ("client.close_ms", "ms"),
    ("protocol.decode_frames", "count"),
    ("protocol.decode_ms_per_fetch", "ms"),
    ("protocol.decode_MBps", "MB/s"),
    ("server.session_ms", "ms"),
    ("server.frames_per_fetch", "count"),
    ("server.wire_bytes_per_fetch", "B"),
    ("server.wire_overhead_ratio", "ratio"),
    ("striped.connect_ms", "ms"),
    ("striped.entry_wait_ms", "ms"),
    ("striped.drain_ms", "ms"),
    ("server.demand_frames_per_fetch", "count"),
    ("server.ms_per_demand", "ms"),
    ("server.rescan_units_per_demand", "count"),
    ("striped.useful_unit_ratio", "ratio"),
    ("sched.scoreboard_ms", "ms"),
    ("sched.scoreboard_calls", "count"),
    ("netserve.cache_hit_ratio", "ratio"),
    ("server.teardown_errors", "count"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.complete_p50_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.spans", "count"),
)

_SCOREBOARD = tuple(
    f"sched.scoreboard.{method}"
    for method in ("ready_items", "mark_issued", "mark_landed", "requeue")
)

#: Per-op span metrics: name -> (span names, field, scale).
_PER_OP = {
    "netserve.fingerprint_ms": (("netserve.fingerprint",), "self_seconds", 1e3),
    "reorder.order_ms": (("reorder.order",), "self_seconds", 1e3),
    "reorder.restructure_ms": (("reorder.restructure",), "self_seconds", 1e3),
    "transfer.plans_ms": (("transfer.plans",), "self_seconds", 1e3),
    "netserve.payloads_ms": (("netserve.payloads",), "self_seconds", 1e3),
    "protocol.encode_ms": (("protocol.encode",), "self_seconds", 1e3),
    "netserve.artifact_build_ms": (("netserve.artifact_build",), "seconds", 1e3),
    "netserve.artifact_build_self_ms": (("netserve.artifact_build",), "self_seconds", 1e3),
    "protocol.decode_frames": (("protocol.decode",), "calls", 1.0),
    "protocol.decode_ms_per_fetch": (("protocol.decode",), "self_seconds", 1e3),
    "sched.scoreboard_ms": (_SCOREBOARD, "self_seconds", 1e3),
    "sched.scoreboard_calls": (_SCOREBOARD, "calls", 1.0),
}

#: Per-journey span metrics (a journey is one sweep; a serving run
#: counts as one journey): name -> (span name, field).
_PER_JOURNEY = {
    "reorder.restructure_s": ("reorder.restructure", "self_seconds"),
    "reorder.restructure_calls": ("reorder.restructure", "calls"),
    "transfer.controller_build_s": ("transfer.controller_build", "self_seconds"),
    "core.simulate_s": ("core.simulate", "self_seconds"),
    "core.compile_trace_s": ("core.compile_trace", "self_seconds"),
    "core.strict_baseline_s": ("core.strict_baseline", "self_seconds"),
}

#: Set-up span metrics, per set-up repetition.
_PER_SETUP = {
    "workloads.generate_s": "workloads.generate",
    "reorder.first_use_s": "reorder.first_use",
    "vm.synthesize_profile_s": "vm.synthesize_profile",
}


def end_to_end(
    outcome: Outcome, scaled: bool = True
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end values plus the sample count behind each.

    With ``scaled`` every time is converted to reference-host time: an
    op's times by the speed probes taken around it, set-up times by
    those around the set-ups, totals over the measured window by the
    window's probes.  ``scaled=False`` gives the raw readings.
    """
    probe = outcome.probe
    window = (outcome.measure_start, outcome.measure_end)
    scale = probe.scale_over(*window) if scaled else 1.0
    setup_scale = probe.scale_over(*outcome.setup_window) if scaled else 1.0
    local = [
        probe.scale_over(s["t0"], s["t1"]) if scaled else 1.0
        for s in outcome.samples
    ]
    latency = [s["latency_ms"] * k for s, k in zip(outcome.samples, local)]
    if outcome.journeys_ms:
        complete = [ms * scale for ms in outcome.journeys_ms]
    else:
        complete = [s["complete_ms"] * k for s, k in zip(outcome.samples, local)]
    ops = len(outcome.samples)
    values = {
        "setup_s": statistics.median(outcome.setup_s) * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": percentile(latency, 50.0),
        "latency_p90_ms": percentile(latency, 90.0),
        "complete_p50_ms": percentile(complete, 50.0),
        "complete_p90_ms": percentile(complete, 90.0),
        "ops_per_s": ops / (outcome.wall_s * scale) if outcome.wall_s > 0 else 0.0,
        "cpu_ms_per_op": outcome.cpu_s * scale * 1e3 / ops if ops else 0.0,
    }
    counts = {
        "setup_s": len(outcome.setup_s),
        "latency_p50_ms": len(latency),
        "latency_p90_ms": len(latency),
        "complete_p50_ms": len(complete),
        "complete_p90_ms": len(complete),
        "ops_per_s": ops,
        "cpu_ms_per_op": ops,
    }
    return values, counts


def per_layer(outcome: Outcome, tracer: Tracer, e2e: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer value; 0 for layers the workload never calls."""
    setup = tracer.totals(until=outcome.measure_start)
    measured = tracer.totals(since=outcome.measure_start)
    reps = max(len(outcome.setup_s), 1)
    ops = max(len(outcome.samples), 1)
    journeys_done = max(len(outcome.journeys_ms), 1)

    def total(names: Tuple[str, ...], key: str) -> float:
        return sum(measured.get(name, {}).get(key, 0.0) for name in names)

    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, span in _PER_SETUP.items():
        values[name] = setup.get(span, {}).get("self_seconds", 0.0) / reps
    for name, (span, key) in _PER_JOURNEY.items():
        values[name] = total((span,), key) / journeys_done
    for name, (spans, key, scale) in _PER_OP.items():
        values[name] = total(spans, key) * scale / ops
    simulate = total(("core.simulate",), "self_seconds")
    if simulate:
        values["core.segments_per_s"] = total(("core.simulate",), "amount") / simulate
    for name, span in (("protocol.encode_MBps", "protocol.encode"), ("protocol.decode_MBps", "protocol.decode")):
        seconds = total((span,), "self_seconds")
        if seconds:
            values[name] = total((span,), "amount") / 1e6 / seconds
    demands = outcome.layer.get("server.demand_frames", 0.0)
    if demands:
        values["server.rescan_units_per_demand"] = tracer.counts.get("server.unit_wire_key", 0) / demands
    for name, value in outcome.layer.items():
        if name in values:
            values[name] = value
    values["server.teardown_errors"] = float(len(outcome.teardown_errors))
    values["trace.latency_p50_ms"] = e2e["latency_p50_ms"]
    values["trace.complete_p50_ms"] = e2e["complete_p50_ms"]
    values["trace.ops_per_s"] = e2e["ops_per_s"]
    values["trace.spans"] = float(len(tracer.spans))
    return values


def git_commit() -> Optional[str]:
    """The checkout's commit, read from .git without running git."""
    git = journeys.FINGERPRINT_PATH.parent.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def write_run_table(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    outcome: Outcome,
    tracer: Tracer,
    result: Dict[str, Any],
    counts: Dict[str, int],
) -> str:
    """One folder per run under reprobench/runs/<workload>/."""
    base = journeys.FINGERPRINT_PATH.parent / "runs" / workload
    base.mkdir(parents=True, exist_ok=True)
    index = len(list(base.iterdir()))
    while True:
        folder = base / f"{index:04d}-seed{seed}-trace{int(traced)}"
        try:
            folder.mkdir()
            break
        except FileExistsError:
            index += 1
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "engine": outcome.engine,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        # The speed probe is the fixed calibration loop; a slow median
        # marks a noisy-neighbour run.
        "calibration_s": statistics.median(outcome.probe.times),
        "setup_s": outcome.setup_s,
        "probe_s": outcome.probe.times,
        "probe_at": outcome.probe.stamps,
        "measure_window": [outcome.measure_start, outcome.measure_end],
        "raw_end_to_end": end_to_end(outcome, scaled=False)[0],
        "journeys_ms": outcome.journeys_ms,
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "teardown_errors": outcome.teardown_errors[:50],
        "sample_counts": counts,
        "injected_s": tracer.injected_since(outcome.measure_start),
        "result": result,
    }
    (folder / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    (folder / "samples.json").write_text(json.dumps(outcome.samples) + "\n")
    if traced:
        with gzip.open(folder / "spans.csv.gz", "wt") as out:
            out.write("name,start,end,parent,session,amount\n")
            for span in tracer.spans:
                out.write(",".join("" if v is None else str(v) for v in span) + "\n")
    return str(folder)


def measure(
    workload: str, seed: int, seconds: float, tracer: Tracer, **options: Any
) -> Outcome:
    """Run one workload with ``tracer`` installed for the whole run."""
    with tracer:
        return journeys.WORKLOADS[workload](seed, seconds, tracer, **options)


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Measure one workload; print the table; return the result object."""
    tracer = Tracer(record=traced)
    outcome = measure(workload, seed, seconds, tracer)
    e2e, counts = end_to_end(outcome)
    units = dict(END_TO_END)
    values = e2e
    if traced:
        values = per_layer(outcome, tracer, e2e)
        units = dict(PER_LAYER)
    correct = outcome.failed == 0 and bool(outcome.samples)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    folder = write_run_table(
        workload, seed, seconds, traced, outcome, tracer, result, counts
    )
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(
        f"workload={workload} seed={seed} engine={outcome.engine} "
        f"traced={int(traced)} probe_scale={outcome.probe.scale_over(outcome.measure_start, outcome.measure_end):.4f} "
        f"run_table={folder}"
    )
    print(f"  error_rate = {error_rate:.6f} ({outcome.failed}/{outcome.attempted})")
    for message in outcome.errors[:5]:
        print(f"  error: {message}")
    for name, unit in units.items():
        count = counts.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name} = {values[name]:.6g} {unit}{suffix}")
    return result


def write_fingerprint() -> None:
    """Recompute sweep_expected.json from one full sweep."""
    bundles = journeys._sweep_setup(Tracer(record=False), journeys.ALL_PROGRAMS)
    results = {
        row: journeys._run_row(row, bundles)
        for row in journeys.sweep_rows(journeys.ALL_PROGRAMS)
    }
    rows = journeys.sweep_fingerprint(results)
    payload = {
        "about": "Figure 6 grid rows: [total cycles, stalls, normalized %] "
        "(strict rows: [total cycles]); paper-calibrated programs.",
        "rows": dict(sorted(rows.items())),
    }
    journeys.FINGERPRINT_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {journeys.FINGERPRINT_PATH}")
