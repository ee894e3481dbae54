"""Server statistics: per-connection ints, server-wide registry totals."""

import tracemalloc

from repro.netserve import ServerStats


def _serve_one(stats, index):
    conn = stats.open_connection(
        peer=f"('127.0.0.1', {40000 + index})", started_at=float(index)
    )
    conn.policy, conn.strategy = "non_strict", "static"
    conn.record_pull_session()
    for _ in range(8):
        conn.record_batch(frames=13, wire_bytes=16_000, units=13)
        conn.record_demand_fetch(promoted_units=2)
    conn.record_resume(skipped_units=3)
    conn.record_fault("drop")
    conn.finished_at = index + 0.25
    return conn


def test_connection_counts_and_server_totals():
    stats = ServerStats()
    first = _serve_one(stats, 0)
    _serve_one(stats, 1)
    assert (first.frames_sent, first.units_sent, first.bytes_sent) == (
        104,
        104,
        128_000,
    )
    assert (first.demand_fetches, first.promoted_units) == (8, 16)
    assert (first.resumes, first.pull_sessions) == (1, 1)
    assert first.duration == 0.25
    assert stats.bytes_sent == 256_000
    assert stats.units_sent == 208
    assert stats.demand_fetches == 16
    assert stats.resumes == 2
    assert stats.faults_injected == 2
    assert len(stats.connections) == 2


def test_registry_holds_no_per_connection_series():
    stats = ServerStats()
    for index in range(3):
        _serve_one(stats, index)
    snapshot = stats.snapshot()
    labels = {
        key
        for rows in snapshot.values()
        for row in rows
        for key in row["labels"]
    }
    assert labels <= {"fault"}
    totals = {
        row["name"]: row["value"]
        for row in snapshot["counters"]
        if not row["labels"]
    }
    assert totals["netserve_connections_total"] == 3
    assert totals["netserve_frames_sent"] == 3 * 104
    assert totals["netserve_promoted_units"] == 3 * 16
    assert totals["netserve_resume_skipped_units"] == 9
    assert totals["netserve_pull_sessions"] == 3


def test_finished_connections_keep_under_one_kilobyte_each():
    """A long-lived server keeps one small record per connection: the
    registry does not grow with the number of connections."""
    stats = ServerStats()
    _serve_one(stats, 0)  # creates the fault-kind series up front
    count = 1000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for index in range(1, count + 1):
            _serve_one(stats, index)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stats.connections) == count + 1
    assert (after - before) / count < 1024
