"""Wall-clock statistics for the real server and fetcher.

Unlike :mod:`repro.core.metrics`, which accounts in simulated CPU
cycles, these structures count what actually happened on the wire.
Since PR 3 they are thin views over a
:class:`repro.observe.MetricsRegistry`: every counter is a labeled
series (``conn``/``peer`` on the server, ``policy`` on the client), so
one snapshot exposes all per-connection and per-session metrics, and
the legacy attribute names (``units_sent``, ``bytes_received``, …)
remain as read-only properties over the registry.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..observe.metrics import Counter, Histogram, MetricsRegistry
from ..program import MethodId

__all__ = [
    "ConnectionStats",
    "ServerStats",
    "FetchStats",
    "format_fetch_stats",
]

#: Stall-histogram bucket bounds, in seconds (localhost to modem-ish).
STALL_BUCKETS = (0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0)


class ConnectionStats:
    """One client connection, as seen by the server.

    Counters live in the owning :class:`ServerStats` registry under
    this connection's labels; identity fields stay plain attributes.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        labels: Mapping[str, str],
        peer: str = "",
    ) -> None:
        self._registry = registry
        self._labels = dict(labels)
        self.peer = peer
        self.policy = ""
        self.strategy = ""
        self.started_at = 0.0
        self.finished_at: Optional[float] = None
        self.aborted = False

    def _counter(self, name: str):
        return self._registry.counter(name, self._labels)

    # -- recording (server call sites) ------------------------------------

    def record_frame(self, wire_bytes: int, unit: bool = False) -> None:
        """Account one sent frame (and optionally its transfer unit)."""
        self._counter("netserve_frames_sent").inc()
        self._counter("netserve_bytes_sent").inc(wire_bytes)
        if unit:
            self._counter("netserve_units_sent").inc()

    def record_demand_fetch(self, promoted_units: int) -> None:
        self._counter("netserve_demand_fetches").inc()
        if promoted_units:
            self._counter("netserve_promoted_units").inc(promoted_units)

    def record_fault(self, kind: str) -> None:
        """Account one deliberately injected fault, labeled by kind."""
        self._registry.counter(
            "netserve_faults_injected",
            {**self._labels, "fault": kind},
        ).inc()

    def record_resume(self, skipped_units: int) -> None:
        """Account a RESUME negotiation and the units it skipped."""
        self._counter("netserve_resumes").inc()
        if skipped_units:
            self._counter("netserve_resume_skipped_units").inc(
                skipped_units
            )

    def record_pull_session(self) -> None:
        """Account a session negotiated in pull mode (striped link)."""
        self._counter("netserve_pull_sessions").inc()

    # -- legacy read interface --------------------------------------------

    @property
    def frames_sent(self) -> int:
        return int(self._counter("netserve_frames_sent").value)

    @property
    def units_sent(self) -> int:
        return int(self._counter("netserve_units_sent").value)

    @property
    def bytes_sent(self) -> int:
        return int(self._counter("netserve_bytes_sent").value)

    @property
    def demand_fetches(self) -> int:
        return int(self._counter("netserve_demand_fetches").value)

    @property
    def promoted_units(self) -> int:
        return int(self._counter("netserve_promoted_units").value)

    @property
    def resumes(self) -> int:
        return int(self._counter("netserve_resumes").value)

    @property
    def pull_sessions(self) -> int:
        return int(self._counter("netserve_pull_sessions").value)

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class ServerStats:
    """All connections a server has handled, over one registry."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.connections: List[ConnectionStats] = []

    def open_connection(
        self, peer: str, started_at: float
    ) -> ConnectionStats:
        """Create the labeled per-connection series and its view."""
        conn = ConnectionStats(
            self.metrics,
            labels={"conn": str(len(self.connections)), "peer": peer},
            peer=peer,
        )
        conn.started_at = started_at
        self.connections.append(conn)
        self.metrics.counter("netserve_connections_total").inc()
        return conn

    def record_rejected(self) -> None:
        """Account one connection turned away by admission control."""
        self.metrics.counter("netserve_rejected_connections").inc()

    def record_demand_loop_error(self) -> None:
        """Account one unexpected demand-loop failure at teardown."""
        self.metrics.counter("netserve_demand_loop_errors").inc()

    def set_active(self, count: int) -> None:
        """Publish the current live-connection count as a gauge."""
        self.metrics.gauge("netserve_active_connections").set(count)

    @property
    def rejected_connections(self) -> int:
        return int(
            self.metrics.counter("netserve_rejected_connections").value
        )

    @property
    def demand_loop_errors(self) -> int:
        return int(
            self.metrics.counter("netserve_demand_loop_errors").value
        )

    @property
    def active_connections(self) -> int:
        return int(
            self.metrics.gauge("netserve_active_connections").value
        )

    @property
    def bytes_sent(self) -> int:
        return int(self.metrics.counter_total("netserve_bytes_sent"))

    @property
    def units_sent(self) -> int:
        return int(self.metrics.counter_total("netserve_units_sent"))

    @property
    def demand_fetches(self) -> int:
        return int(
            self.metrics.counter_total("netserve_demand_fetches")
        )

    @property
    def faults_injected(self) -> int:
        return int(
            self.metrics.counter_total("netserve_faults_injected")
        )

    @property
    def resumes(self) -> int:
        return int(self.metrics.counter_total("netserve_resumes"))

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        return self.metrics.snapshot()


class FetchStats:
    """One fetch session, as seen by the client."""

    def __init__(self, policy: str = "", strategy: str = "") -> None:
        self.metrics = MetricsRegistry()
        self.policy = policy
        self.strategy = strategy
        self._labels = {"policy": policy}
        self.stall_seconds: Dict[MethodId, float] = {}
        self._series: Dict[Tuple[str, object], Counter] = {}

    def _counter(self, name: str, link: object = None) -> Counter:
        """The session's series of ``name`` (or one link's), looked up
        in the registry once per fetch.

        The receive loop bumps six series per unit, and each registry
        lookup sorts its labels: looking them up per unit made the
        medians of ``reprobench`` serve-warm's latency and completion
        percentiles 22-37% worse (six alternating runs on a 2-vCPU
        host).  The registry never replaces a series, so a held handle
        cannot go stale.
        """
        series = self._series.get((name, link))
        if series is None:
            labels = (
                self._labels
                if link is None
                else {**self._labels, "link": str(link)}
            )
            series = self.metrics.counter(name, labels)
            self._series[(name, link)] = series
        return series

    # -- recording (client call sites) ------------------------------------

    def record_frame(self, wire_bytes: int) -> None:
        self._counter("netserve_frames_received").inc()
        self._counter("netserve_bytes_received").inc(wire_bytes)

    def record_unit(self, payload_bytes: int) -> None:
        self._counter("netserve_units_received").inc()
        self._counter("netserve_payload_bytes").inc(payload_bytes)

    def record_demand_fetch(self) -> None:
        self._counter("netserve_demand_fetches").inc()

    def record_reconnect(self, link: object) -> None:
        """Account one reconnect attempt, in total and per link."""
        self._counter("netserve_reconnects_total").inc()
        self._counter("netserve_link_reconnects_total", link).inc()

    def record_degraded(self) -> None:
        self._counter("netserve_degraded_total").inc()

    def record_unit_retry(self) -> None:
        self._counter("netserve_unit_retries_total").inc()

    def record_duplicate_unit(self) -> None:
        self._counter("netserve_duplicate_units_total").inc()

    def record_busy_retry(self) -> None:
        """Account one BUSY rejection retried with backoff."""
        self._counter("netserve_busy_retries_total").inc()

    # -- per-link recording ------------------------------------------------

    def record_link_unit(self, link: object, payload_bytes: int) -> None:
        """Account one unit landed on a specific link."""
        self._counter("netserve_link_units_total", link).inc()
        self._counter("netserve_link_bytes_total", link).inc(payload_bytes)

    def record_link_outage(self, link: object) -> None:
        """Account one link declared dead (circuit opened)."""
        self._counter("netserve_link_outages_total", link).inc()

    def set_link_state(self, link: object, state: int) -> None:
        """Publish a link's health as a gauge (see ``LinkState``)."""
        self.metrics.gauge(
            "netserve_link_state", {**self._labels, "link": str(link)}
        ).set(state)

    def record_hedge(self) -> None:
        """Account one hedge fired (second issue of a demanded class)."""
        self._counter("netserve_hedges_total").inc()

    def record_hedge_win(self, role: str) -> None:
        """Account the winner of a hedge race, labeled by role."""
        self.metrics.counter(
            "netserve_hedge_wins_total", {**self._labels, "role": role}
        ).inc()

    def record_cancelled_tasks(self, count: int) -> None:
        """Account background tasks cancelled at teardown."""
        if count:
            self._counter("netserve_cancelled_tasks_total").inc(count)

    def record_stall(self, method: MethodId, seconds: float) -> None:
        self.stall_seconds[method] = (
            self.stall_seconds.get(method, 0.0) + seconds
        )
        self.stall_histogram.observe(seconds)

    # -- legacy read interface --------------------------------------------

    @property
    def frames_received(self) -> int:
        return int(self._counter("netserve_frames_received").value)

    @property
    def units_received(self) -> int:
        return int(self._counter("netserve_units_received").value)

    @property
    def bytes_received(self) -> int:
        """Wire bytes, frame overhead included."""
        return int(self._counter("netserve_bytes_received").value)

    @property
    def payload_bytes(self) -> int:
        return int(self._counter("netserve_payload_bytes").value)

    @property
    def demand_fetches(self) -> int:
        return int(self._counter("netserve_demand_fetches").value)

    @property
    def reconnects(self) -> int:
        return int(self._counter("netserve_reconnects_total").value)

    @property
    def degraded(self) -> int:
        return int(self._counter("netserve_degraded_total").value)

    @property
    def unit_retries(self) -> int:
        return int(self._counter("netserve_unit_retries_total").value)

    @property
    def duplicate_units(self) -> int:
        return int(
            self._counter("netserve_duplicate_units_total").value
        )

    @property
    def busy_retries(self) -> int:
        return int(self._counter("netserve_busy_retries_total").value)

    @property
    def link_outages(self) -> int:
        return int(
            self.metrics.counter_total("netserve_link_outages_total")
        )

    @property
    def link_reconnects(self) -> int:
        return int(
            self.metrics.counter_total(
                "netserve_link_reconnects_total"
            )
        )

    @property
    def hedges(self) -> int:
        return int(self._counter("netserve_hedges_total").value)

    @property
    def hedge_wins(self) -> int:
        return int(
            self.metrics.counter_total("netserve_hedge_wins_total")
        )

    @property
    def cancelled_tasks(self) -> int:
        return int(
            self._counter("netserve_cancelled_tasks_total").value
        )

    def link_units(self, link: object) -> int:
        """Units landed on one link (0 for a link that never landed)."""
        return int(self._counter("netserve_link_units_total", link).value)

    @property
    def stall_histogram(self) -> Histogram:
        return self.metrics.histogram(
            "netserve_stall_seconds",
            self._labels,
            buckets=STALL_BUCKETS,
        )

    @property
    def total_stall_seconds(self) -> float:
        return sum(self.stall_seconds.values())

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        return self.metrics.snapshot()


def format_fetch_stats(stats: FetchStats) -> str:
    """Human-readable multi-line summary for the CLI."""
    lines = [
        f"policy:            {stats.policy}",
        f"strategy:          {stats.strategy}",
        f"units received:    {stats.units_received}",
        f"bytes on wire:     {stats.bytes_received:,}",
        f"payload bytes:     {stats.payload_bytes:,}",
        f"demand fetches:    {stats.demand_fetches}",
        f"stall time total:  {stats.total_stall_seconds * 1e3:.1f} ms",
    ]
    if stats.reconnects or stats.unit_retries or stats.degraded:
        lines.extend(
            [
                f"reconnects:        {stats.reconnects}",
                f"unit retries:      {stats.unit_retries}",
                f"degraded:          "
                f"{'yes' if stats.degraded else 'no'}",
            ]
        )
    for method, seconds in sorted(
        stats.stall_seconds.items(), key=lambda item: -item[1]
    ):
        lines.append(f"  stall {method}: {seconds * 1e3:.1f} ms")
    return "\n".join(lines)
