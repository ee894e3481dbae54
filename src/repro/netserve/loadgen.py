"""Fleet-scale load generation: a run-table sweep over the server.

Modelled on experiment-runner-style replication packages: a *run
table* of cells — each a ``clients × bandwidth × fault-plan``
configuration — is executed against an in-process
:class:`~.server.ClassFileServer`, and every cell reports the measured
first-invocation latency distribution (p50/p99/p999), the plan-cache
hit rate, aggregate egress, and failure/rejection counts.  The whole
sweep serializes to ``BENCH_serve.json`` so the serving performance
trajectory is tracked across PRs, the same way the simulator's
``BENCH_*`` files track modelled performance.

The measured latency is the entry method's availability time (seconds
from session start until the entry point could first execute) — the
paper's *invocation latency*, observed on a real socket.  Latencies
are recorded both as raw samples (exact percentiles) and into a
``netserve_first_invoke_seconds`` histogram in a
:class:`~repro.observe.MetricsRegistry`, labeled per cell.

A cell may also stripe its clients across several *links* (one paced
server endpoint per bandwidth, clients assigned round-robin, mirroring
:mod:`repro.sched`'s multi-link transfer in the real-socket harness).
Every cell result carries a per-link and a per-worker latency
breakdown into ``BENCH_serve.json``, so a slow link or a straggler
worker is attributable instead of being averaged away.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ServerBusyError, TransferError
from ..observe.metrics import MetricsRegistry
from ..program import MethodId, Program
from .cache import ArtifactCache
from .client import NonStrictFetcher
from .server import ClassFileServer

__all__ = [
    "LoadCell",
    "CellResult",
    "SweepReport",
    "percentile",
    "sweep_cells",
    "run_cell",
    "run_sweep",
    "write_bench_json",
]

#: Latency histogram bounds in seconds (localhost to paced-modem).
FIRST_INVOKE_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Imported lazily by type only to avoid a hard dependency cycle.
FaultPlanLike = Any


@dataclass(frozen=True)
class LoadCell:
    """One row of the run table.

    Attributes:
        clients: Number of concurrent fetch sessions.
        bandwidth: Server-side shared-link pacing in bytes/second
            (``None`` = unpaced).
        policy: Transfer policy every client negotiates.
        strategy: Reorder strategy every client negotiates.
        fault_plan: Optional :class:`repro.faults.FaultPlan` applied to
            the server for this cell; gives every client a reconnect
            budget.
        links: Optional per-link bandwidths (bytes/second, ``None`` =
            unpaced).  When set, one server endpoint is started per
            link and workers are striped round-robin across them
            (worker ``i`` fetches over link ``i % len(links)``);
            ``bandwidth`` is ignored.
        striped: With ``links`` set, make every worker one pull-mode
            fetch over *all* endpoints at once (true multi-socket
            transfer) instead of the round-robin single-link
            assignment.
        link_fault_plans: Optional per-link fault plans, one entry per
            link (``None`` = that link is clean).  This is how a cell
            models *one* outage-prone link in an otherwise healthy
            stripe; ``fault_plan`` still applies to every link when
            set and this is not.
    """

    clients: int
    bandwidth: Optional[float] = None
    policy: str = "non_strict"
    strategy: str = "static"
    fault_plan: Optional[FaultPlanLike] = None
    links: Optional[Tuple[Optional[float], ...]] = None
    striped: bool = False
    link_fault_plans: Optional[
        Tuple[Optional[FaultPlanLike], ...]
    ] = None

    def __post_init__(self) -> None:
        if self.striped and not self.links:
            raise ValueError("a striped cell needs `links`")
        if self.link_fault_plans is not None and (
            not self.links
            or len(self.link_fault_plans) != len(self.links)
        ):
            raise ValueError(
                "link_fault_plans must match `links` one-to-one"
            )

    @property
    def faulted(self) -> bool:
        """True when any link of this cell injects faults."""
        if self.fault_plan is not None:
            return True
        return self.link_fault_plans is not None and any(
            plan is not None for plan in self.link_fault_plans
        )

    def plan_for_link(self, link: int) -> Optional[FaultPlanLike]:
        """The fault plan applied to one link's server."""
        if self.link_fault_plans is not None:
            return self.link_fault_plans[link]
        return self.fault_plan

    @property
    def link_bandwidths(self) -> Tuple[Optional[float], ...]:
        """The cell's link set (single ``bandwidth`` when unstriped)."""
        if self.links:
            return tuple(self.links)
        return (self.bandwidth,)

    @property
    def label(self) -> str:
        if self.links:
            paced = "+".join(
                "unpaced" if bw is None else f"{bw:g}"
                for bw in self.links
            )
            mode = "striped" if self.striped else "links"
            pacing = f"{mode}{len(self.links)}[{paced}]"
        elif self.bandwidth is None:
            pacing = "unpaced"
        else:
            pacing = f"bw{self.bandwidth:g}"
        parts = [
            f"c{self.clients}",
            pacing,
            self.policy,
            self.strategy,
        ]
        if self.faulted:
            parts.append("faults")
        return "-".join(parts)


@dataclass
class CellResult:
    """Measured outcome of one run-table cell."""

    label: str
    clients: int
    bandwidth: Optional[float]
    policy: str
    strategy: str
    faulted: bool
    completed: int
    failed: int
    busy_rejected: int
    wall_seconds: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    max_ms: float
    aggregate_bytes: int
    achieved_bytes_per_second: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    demand_fetches: int
    errors: List[str] = field(default_factory=list)
    per_link: List[Dict[str, Any]] = field(default_factory=list)
    per_worker: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "clients": self.clients,
            "bandwidth": self.bandwidth,
            "policy": self.policy,
            "strategy": self.strategy,
            "faulted": self.faulted,
            "completed": self.completed,
            "failed": self.failed,
            "busy_rejected": self.busy_rejected,
            "wall_seconds": round(self.wall_seconds, 6),
            "latency_ms": {
                "p50": round(self.p50_ms, 3),
                "p99": round(self.p99_ms, 3),
                "p999": round(self.p999_ms, 3),
                "mean": round(self.mean_ms, 3),
                "max": round(self.max_ms, 3),
            },
            "aggregate_bytes": self.aggregate_bytes,
            "achieved_bytes_per_second": round(
                self.achieved_bytes_per_second, 1
            ),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
            "demand_fetches": self.demand_fetches,
            "errors": self.errors[:10],
            "per_link": self.per_link,
            "per_worker": self.per_worker,
        }


@dataclass
class SweepReport:
    """Every cell of one sweep plus sweep-wide metadata."""

    cells: List[CellResult]
    wall_seconds: float
    metrics: MetricsRegistry

    @property
    def overall_cache_hit_rate(self) -> float:
        hits = sum(cell.cache_hits for cell in self.cells)
        misses = sum(cell.cache_misses for cell in self.cells)
        lookups = hits + misses
        return hits / lookups if lookups else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "repro.netserve.loadgen/1",
            "wall_seconds": round(self.wall_seconds, 3),
            "overall_cache_hit_rate": round(
                self.overall_cache_hit_rate, 4
            ),
            "cells": [cell.to_json() for cell in self.cells],
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-percentile (``0 <= q <= 100``), linear interpolation."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def sweep_cells(
    clients: Sequence[int],
    bandwidths: Sequence[Optional[float]] = (None,),
    policy: str = "non_strict",
    strategy: str = "static",
    fault_plans: Sequence[Optional[FaultPlanLike]] = (None,),
    link_sets: Sequence[
        Optional[Tuple[Optional[float], ...]]
    ] = (None,),
    striped: bool = False,
) -> List[LoadCell]:
    """The full cross product clients × bandwidth × fault plans.

    ``link_sets`` adds multi-link rows: each non-``None`` entry is a
    tuple of per-link bandwidths striped round-robin across workers
    (``bandwidths`` is ignored for those rows).  With ``striped`` the
    multi-link rows run every worker across all endpoints at once.
    """
    return [
        LoadCell(
            clients=count,
            bandwidth=bandwidth,
            policy=policy,
            strategy=strategy,
            fault_plan=plan,
            links=links,
            striped=striped and links is not None,
        )
        for count in clients
        for bandwidth in bandwidths
        for plan in fault_plans
        for links in link_sets
    ]


async def _one_session(
    endpoints: Sequence[Tuple[str, int]],
    cell: LoadCell,
    connect_timeout: float,
    worker: int,
) -> float:
    """One worker's fetch; returns first-invocation latency (seconds).

    Every worker derives its own backoff stream, so a faulted cell's
    clients never reconnect in lockstep.  A clean single-link cell
    measures admission control: with no reconnect budget a BUSY
    rejection ends the session at once and counts into
    ``busy_rejected``.  A striped worker keeps its budget even on a
    clean cell, so a link turned away while a sibling got in, or one
    the stall watchdog recycles, rejoins instead of dying.
    """
    (host, port), *links = endpoints
    fetcher = NonStrictFetcher(
        host,
        port,
        links=links,
        policy=cell.policy,
        strategy=cell.strategy,
        connect_timeout=connect_timeout,
        max_reconnects=4 if cell.faulted or cell.striped else 0,
        rng_scope=f"worker-{worker}",
    )
    manifest = await fetcher.connect()
    try:
        entry = manifest.get("entry")
        if not entry:
            raise TransferError("served program has no entry point")
        latency = await fetcher.wait_for_method(
            MethodId(str(entry[0]), str(entry[1])), demand=False
        )
        await fetcher.wait_until_complete()
    finally:
        await fetcher.aclose()
    return latency


async def run_cell(
    program: Program,
    cell: LoadCell,
    cache: Optional[ArtifactCache] = None,
    metrics: Optional[MetricsRegistry] = None,
    max_connections: Optional[int] = None,
    per_connection_bandwidth: Optional[float] = None,
    connect_timeout: float = 30.0,
) -> CellResult:
    """Run one cell: start a server, drive its clients, measure.

    Args:
        program: The program to serve.
        cell: The cell configuration.
        cache: Optional shared :class:`~.cache.ArtifactCache`; passing
            one across cells measures warm-cache serving (hit-rate
            deltas are still attributed per cell).
        metrics: Registry receiving the per-cell
            ``netserve_first_invoke_seconds`` histogram.
        max_connections: Optional server admission limit; rejected
            clients count into ``busy_rejected``.
        per_connection_bandwidth: Optional per-connection cap on top
            of the shared link.
        connect_timeout: Per-client handshake timeout in seconds.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    shared_cache = cache if cache is not None else ArtifactCache()
    hits_before = shared_cache.hits
    misses_before = shared_cache.misses
    bandwidths = cell.link_bandwidths
    servers = [
        ClassFileServer(
            program,
            bandwidth=link_bandwidth,
            per_connection_bandwidth=per_connection_bandwidth,
            max_connections=max_connections,
            cache=shared_cache,
            fault_plan=cell.plan_for_link(link),
        )
        for link, link_bandwidth in enumerate(bandwidths)
    ]
    endpoints = [await server.start() for server in servers]
    # Worker i fetches over link i % N — round-robin striping —
    # unless the cell is striped, in which case every worker spans
    # all endpoints at once and latency attributes to no single link.
    assignment: List[Optional[int]] = [
        None if cell.striped else worker % len(servers)
        for worker in range(cell.clients)
    ]
    sessions = [
        _one_session(
            endpoints if link is None else [endpoints[link]],
            cell,
            connect_timeout,
            worker,
        )
        for worker, link in enumerate(assignment)
    ]
    started = time.monotonic()
    try:
        outcomes = await asyncio.gather(
            *sessions,
            return_exceptions=True,
        )
    finally:
        elapsed = time.monotonic() - started
        for server in servers:
            await server.aclose()

    latencies: List[float] = []
    errors: List[str] = []
    busy = 0
    histogram = registry.histogram(
        "netserve_first_invoke_seconds",
        {"cell": cell.label},
        buckets=FIRST_INVOKE_BUCKETS,
    )
    per_worker: List[Dict[str, Any]] = []
    link_samples: List[List[float]] = [[] for _ in servers]
    link_counts = [
        {"completed": 0, "failed": 0, "busy_rejected": 0}
        for _ in servers
    ]
    for worker, (link, outcome) in enumerate(
        zip(assignment, outcomes)
    ):
        row: Dict[str, Any] = {
            "worker": worker,
            "link": "striped" if link is None else link,
        }
        if isinstance(outcome, ServerBusyError):
            busy += 1
            if link is not None:
                link_counts[link]["busy_rejected"] += 1
            row["status"] = "busy"
        elif isinstance(outcome, BaseException):
            errors.append(f"{type(outcome).__name__}: {outcome}")
            if link is not None:
                link_counts[link]["failed"] += 1
            row["status"] = "error"
        else:
            latencies.append(outcome)
            histogram.observe(outcome)
            if link is not None:
                link_samples[link].append(outcome * 1e3)
                link_counts[link]["completed"] += 1
            row["status"] = "ok"
            row["latency_ms"] = round(outcome * 1e3, 3)
        per_worker.append(row)

    per_link: List[Dict[str, Any]] = []
    for link, server in enumerate(servers):
        samples = link_samples[link]
        per_link.append(
            {
                "link": link,
                "bandwidth": bandwidths[link],
                "workers": (
                    cell.clients
                    if cell.striped
                    else assignment.count(link)
                ),
                **link_counts[link],
                "latency_ms": {
                    "p50": round(percentile(samples, 50.0), 3),
                    "p99": round(percentile(samples, 99.0), 3),
                    "mean": round(
                        sum(samples) / len(samples) if samples else 0.0,
                        3,
                    ),
                    "max": round(max(samples) if samples else 0.0, 3),
                },
                "bytes_sent": server.stats.bytes_sent,
                "demand_fetches": server.stats.demand_fetches,
            }
        )

    to_ms = [value * 1e3 for value in latencies]
    aggregate_bytes = sum(
        server.stats.bytes_sent for server in servers
    )
    return CellResult(
        label=cell.label,
        clients=cell.clients,
        bandwidth=cell.bandwidth,
        policy=cell.policy,
        strategy=cell.strategy,
        faulted=cell.faulted,
        completed=len(latencies),
        failed=len(errors),
        busy_rejected=busy,
        wall_seconds=elapsed,
        p50_ms=percentile(to_ms, 50.0),
        p99_ms=percentile(to_ms, 99.0),
        p999_ms=percentile(to_ms, 99.9),
        mean_ms=(sum(to_ms) / len(to_ms)) if to_ms else 0.0,
        max_ms=max(to_ms) if to_ms else 0.0,
        aggregate_bytes=aggregate_bytes,
        achieved_bytes_per_second=(
            aggregate_bytes / elapsed if elapsed > 0 else 0.0
        ),
        cache_hits=shared_cache.hits - hits_before,
        cache_misses=shared_cache.misses - misses_before,
        cache_hit_rate=_rate(
            shared_cache.hits - hits_before,
            shared_cache.misses - misses_before,
        ),
        demand_fetches=sum(
            server.stats.demand_fetches for server in servers
        ),
        errors=errors,
        per_link=per_link,
        per_worker=per_worker,
    )


def _rate(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


async def run_sweep(
    program: Program,
    cells: Sequence[LoadCell],
    max_connections: Optional[int] = None,
    per_connection_bandwidth: Optional[float] = None,
    connect_timeout: float = 30.0,
) -> SweepReport:
    """Run every cell in order over one shared artifact cache."""
    metrics = MetricsRegistry()
    cache = ArtifactCache(metrics=metrics)
    results: List[CellResult] = []
    started = time.monotonic()
    for cell in cells:
        results.append(
            await run_cell(
                program,
                cell,
                cache=cache,
                metrics=metrics,
                max_connections=max_connections,
                per_connection_bandwidth=per_connection_bandwidth,
                connect_timeout=connect_timeout,
            )
        )
    return SweepReport(
        cells=results,
        wall_seconds=time.monotonic() - started,
        metrics=metrics,
    )


def write_bench_json(
    report: SweepReport, path: Union[str, Path]
) -> Path:
    """Persist a sweep as ``BENCH_serve.json`` (stable, sorted keys)."""
    target = Path(path)
    target.write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return target


def format_report(report: SweepReport) -> str:
    """Human-readable run table for the CLI."""
    header = (
        f"{'cell':34} {'ok':>4} {'fail':>4} {'busy':>4} "
        f"{'p50ms':>8} {'p99ms':>8} {'p999ms':>8} "
        f"{'B/s':>10} {'hit%':>6}"
    )
    lines = [header, "-" * len(header)]
    for cell in report.cells:
        lines.append(
            f"{cell.label:34} {cell.completed:>4} {cell.failed:>4} "
            f"{cell.busy_rejected:>4} "
            f"{cell.p50_ms:>8.2f} {cell.p99_ms:>8.2f} "
            f"{cell.p999_ms:>8.2f} "
            f"{cell.achieved_bytes_per_second:>10.0f} "
            f"{cell.cache_hit_rate * 100:>5.1f}%"
        )
    lines.append(
        f"sweep: {len(report.cells)} cells in "
        f"{report.wall_seconds:.2f}s, overall cache hit rate "
        f"{report.overall_cache_hit_rate * 100:.1f}%"
    )
    return "\n".join(lines)
