"""The load-generation harness and its BENCH_serve.json run table."""

import asyncio
import json

import pytest

from repro import figure1_program
from repro.faults import FaultPlan
from repro.netserve import (
    ArtifactCache,
    ClassFileServer,
    LoadCell,
    NonStrictFetcher,
    loadgen,
    run_cell,
    run_sweep,
    sweep_cells,
    write_bench_json,
)
from repro.netserve.loadgen import format_report, percentile


def run(coroutine):
    return asyncio.run(coroutine)


# -- percentiles -------------------------------------------------------


def test_percentile_exact_values():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 100.0) == 40.0
    assert percentile(values, 50.0) == pytest.approx(25.0)
    assert percentile([7.0], 99.0) == 7.0
    assert percentile([], 50.0) == 0.0


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)


# -- run table construction --------------------------------------------


def test_sweep_cells_is_full_cross_product():
    plan = FaultPlan(seed=1, drop_frames=(2,))
    cells = sweep_cells(
        [1, 4], bandwidths=[None, 8000.0], fault_plans=[None, plan]
    )
    assert len(cells) == 8
    labels = [cell.label for cell in cells]
    assert len(set(labels)) == 8
    assert "c1-unpaced-non_strict-static" in labels
    assert "c4-bw8000-non_strict-static-faults" in labels


# -- measured cells ----------------------------------------------------


def test_run_cell_measures_latency_and_cache():
    cell = LoadCell(clients=4)
    result = run(run_cell(figure1_program(), cell))
    assert result.completed == 4
    assert result.failed == 0
    assert result.busy_rejected == 0
    assert result.p50_ms > 0
    assert result.p50_ms <= result.p99_ms <= result.p999_ms
    assert result.max_ms >= result.p999_ms
    assert result.cache_misses == 1
    assert result.cache_hits == 3
    assert result.aggregate_bytes > 0
    assert result.achieved_bytes_per_second > 0


def test_run_cell_with_admission_limit_counts_rejections():
    cell = LoadCell(clients=6, bandwidth=8000.0)
    result = run(
        run_cell(figure1_program(), cell, max_connections=2)
    )
    assert result.busy_rejected > 0
    assert result.completed + result.busy_rejected == 6
    assert result.failed == 0


def test_run_cell_with_faults_uses_resilient_fetcher():
    cell = LoadCell(
        clients=2,
        fault_plan=FaultPlan(seed=7, drop_frames=(2,)),
    )
    result = run(run_cell(figure1_program(), cell))
    assert result.faulted
    assert result.completed == 2
    assert result.failed == 0


def test_faulted_cell_workers_draw_distinct_backoff_streams(monkeypatch):
    """Every worker of a faulted cell derives its own jitter stream, so
    clients cut at the same moment never reconnect in lockstep."""
    streams = []

    def recording_fetcher(*args, **kwargs):
        fetcher = NonStrictFetcher(*args, **kwargs)
        streams.append(fetcher._rngs[0].getstate())
        return fetcher

    monkeypatch.setattr(loadgen, "NonStrictFetcher", recording_fetcher)
    cell = LoadCell(
        clients=3,
        fault_plan=FaultPlan(seed=7, drop_frames=(2,)),
    )
    result = run(run_cell(figure1_program(), cell))
    assert result.completed == 3
    assert len(streams) == 3
    assert len(set(streams)) == 3


def test_warm_cache_carries_across_cells():
    cache = ArtifactCache()

    async def scenario():
        program = figure1_program()
        first = await run_cell(
            program, LoadCell(clients=1), cache=cache
        )
        second = await run_cell(
            program, LoadCell(clients=8), cache=cache
        )
        return first, second

    first, second = run(scenario())
    assert first.cache_misses == 1
    assert second.cache_misses == 0
    assert second.cache_hits == 8
    assert second.cache_hit_rate == 1.0


# -- the acceptance criterion ------------------------------------------


def test_hundred_client_sweep_hits_cache_after_warmup(tmp_path):
    """A 100-client sweep completes with >= 95% plan-cache hit rate
    after warmup and emits BENCH_serve.json with p50/p99/p999."""
    cells = [LoadCell(clients=1), LoadCell(clients=100)]
    report = run(run_sweep(figure1_program(), cells))
    warmup, fleet = report.cells
    assert warmup.completed == 1
    assert fleet.completed == 100
    assert fleet.failed == 0
    assert fleet.cache_hit_rate >= 0.95
    assert report.overall_cache_hit_rate >= 0.95

    target = write_bench_json(report, tmp_path / "BENCH_serve.json")
    data = json.loads(target.read_text())
    assert data["schema"] == "repro.netserve.loadgen/1"
    assert data["overall_cache_hit_rate"] >= 0.95
    assert len(data["cells"]) == 2
    fleet_row = data["cells"][1]
    assert fleet_row["clients"] == 100
    for quantile in ("p50", "p99", "p999"):
        assert fleet_row["latency_ms"][quantile] > 0
    assert (
        fleet_row["latency_ms"]["p50"]
        <= fleet_row["latency_ms"]["p99"]
        <= fleet_row["latency_ms"]["p999"]
    )


def test_sweep_populates_latency_histogram():
    report = run(run_sweep(figure1_program(), [LoadCell(clients=3)]))
    snapshot = report.metrics.snapshot()
    series = [
        row
        for row in snapshot["histograms"]
        if row["name"] == "netserve_first_invoke_seconds"
    ]
    assert len(series) == 1
    assert series[0]["count"] == 3


def test_format_report_renders_every_cell():
    report = run(run_sweep(figure1_program(), [LoadCell(clients=2)]))
    text = format_report(report)
    assert "c2-unpaced-non_strict-static" in text
    assert "overall cache hit rate" in text


# -- multi-link striping -----------------------------------------------


def test_multilink_cell_stripes_workers_round_robin(tmp_path):
    cell = LoadCell(clients=5, links=(None, 20_000.0))
    assert cell.label == "c5-links2[unpaced+20000]-non_strict-static"
    assert cell.link_bandwidths == (None, 20_000.0)
    result = run(run_cell(figure1_program(), cell))
    assert result.completed == 5
    assert [row["link"] for row in result.per_worker] == [0, 1, 0, 1, 0]
    assert all(row["status"] == "ok" for row in result.per_worker)
    assert len(result.per_link) == 2
    assert result.per_link[0]["workers"] == 3
    assert result.per_link[1]["workers"] == 2
    assert result.per_link[0]["bandwidth"] is None
    assert result.per_link[1]["bandwidth"] == 20_000.0
    # Aggregates are the sum over links.
    assert result.aggregate_bytes == sum(
        row["bytes_sent"] for row in result.per_link
    )
    # The paced link is measurably slower than the unpaced one.
    assert (
        result.per_link[1]["latency_ms"]["p50"]
        > result.per_link[0]["latency_ms"]["p50"]
    )
    # Breakdowns survive the BENCH_serve.json round trip.
    report = run(
        run_sweep(figure1_program(), [cell])
    )
    target = write_bench_json(report, tmp_path / "BENCH_serve.json")
    data = json.loads(target.read_text())
    row = data["cells"][0]
    assert len(row["per_link"]) == 2
    assert len(row["per_worker"]) == 5
    assert all("status" in worker for worker in row["per_worker"])


def test_single_link_cell_still_reports_breakdowns():
    result = run(run_cell(figure1_program(), LoadCell(clients=2)))
    assert len(result.per_link) == 1
    assert result.per_link[0]["workers"] == 2
    assert [row["worker"] for row in result.per_worker] == [0, 1]


def test_sweep_cells_link_sets_extend_run_table():
    cells = sweep_cells(
        [2], bandwidths=[None], link_sets=[None, (8000.0, 4000.0)]
    )
    assert len(cells) == 2
    assert cells[0].links is None
    assert cells[1].links == (8000.0, 4000.0)
    assert "links2[8000+4000]" in cells[1].label

# -- striped cells -----------------------------------------------------


def test_load_cell_validates_striped_configuration():
    with pytest.raises(ValueError):
        LoadCell(clients=2, striped=True)  # striped needs links
    with pytest.raises(ValueError):
        LoadCell(
            clients=2,
            links=(None, None),
            link_fault_plans=(None,),  # must match links one-to-one
        )
    cell = LoadCell(
        clients=2,
        links=(None, None),
        striped=True,
        link_fault_plans=(None, FaultPlan(seed=1, drop_frames=(2,))),
    )
    assert cell.faulted
    assert cell.plan_for_link(0) is None
    assert cell.plan_for_link(1) is not None
    assert "striped2" in cell.label
    assert cell.label.endswith("-faults")


def test_clean_striped_worker_rejoins_a_link_turned_away_busy(monkeypatch):
    """A clean striped cell keeps its reconnect budget: a link turned
    away with BUSY while its sibling got in backs off, rejoins with
    RESUME and carries units, instead of dying at once."""
    fetchers = []

    def recording_fetcher(*args, **kwargs):
        fetcher = NonStrictFetcher(*args, **kwargs)
        fetchers.append(fetcher)
        return fetcher

    monkeypatch.setattr(loadgen, "NonStrictFetcher", recording_fetcher)

    async def scenario():
        program = figure1_program()
        # Link 0 is slow, so the stripe still needs link 1 once its
        # backoff ends.
        slow = ClassFileServer(program, bandwidth=1000, burst=64)
        full = ClassFileServer(program, max_connections=1)
        endpoints = [await slow.start(), await full.start()]
        # Hold the second server's only slot for 0.1 s.
        _, holder = await asyncio.open_connection(*endpoints[1])
        await asyncio.sleep(0.05)
        asyncio.get_running_loop().call_later(0.1, holder.close)
        cell = LoadCell(clients=1, links=(None, None), striped=True)
        try:
            latency = await loadgen._one_session(endpoints, cell, 10.0, 0)
        finally:
            await slow.aclose()
            await full.aclose()
        return latency, full

    latency, full = run(scenario())
    assert latency > 0
    assert full.stats.rejected_connections >= 1
    assert full.stats.resumes >= 1
    (fetcher,) = fetchers
    assert fetcher.stats.link_units(1) > 0
    assert fetcher.stats.degraded == 0


def test_striped_cell_with_mid_run_link_outage(tmp_path):
    """The acceptance cell: two links, one of which keeps cutting out
    mid-transfer, still completes every worker and lands a measured
    p99 first-invocation latency in BENCH_serve.json."""
    cell = LoadCell(
        clients=4,
        links=(None, 30_000.0),
        striped=True,
        link_fault_plans=(
            None,
            FaultPlan(seed=23, cut_after_frames=(2, 2)),
        ),
    )
    report = run(run_sweep(figure1_program(), [cell]))
    result = report.cells[0]
    assert result.completed == 4
    assert result.failed == 0
    assert result.faulted
    assert result.p99_ms > 0
    assert result.p50_ms <= result.p99_ms
    # Striped workers attribute to the whole stripe, not one link.
    assert [row["link"] for row in result.per_worker] == [
        "striped"
    ] * 4
    assert all(row["status"] == "ok" for row in result.per_worker)
    # Both endpoints actually served bytes.
    assert all(
        row["bytes_sent"] > 0 for row in result.per_link
    )
    target = write_bench_json(report, tmp_path / "BENCH_serve.json")
    data = json.loads(target.read_text())
    row = data["cells"][0]
    assert row["faulted"] is True
    assert row["latency_ms"]["p99"] > 0
    assert row["per_worker"][0]["link"] == "striped"
