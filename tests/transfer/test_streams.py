"""The oracles' stream engine: bandwidth sharing, limits, queuing —
hand-computed."""

import pytest

from repro.errors import TransferError
from repro.transfer import NetworkLink, TransferUnit, UnitKind
from tests.oracles.streams import StreamEngine


def unit(name, size, method=None):
    return TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name=name, size=size
    )


#: 1 cycle per byte makes the arithmetic readable.
LINK = NetworkLink("unit-link", 1.0)


def test_single_stream_sequential_arrivals():
    engine = StreamEngine(LINK)
    first = unit("a", 100)
    second = unit("a2", 50)
    engine.request_stream("a", [first, second])
    engine.run_until(200)
    assert engine.arrival_time(first) == pytest.approx(100)
    assert engine.arrival_time(second) == pytest.approx(150)
    assert engine.total_delivered == pytest.approx(150)


def test_two_streams_share_bandwidth_equally():
    engine = StreamEngine(LINK)
    a = unit("a", 100)
    b = unit("b", 100)
    engine.request_stream("a", [a])
    engine.request_stream("b", [b])
    engine.run_until(500)
    # Each gets half the bandwidth: both finish at t=200.
    assert engine.arrival_time(a) == pytest.approx(200)
    assert engine.arrival_time(b) == pytest.approx(200)


def test_finisher_frees_bandwidth_for_the_other():
    engine = StreamEngine(LINK)
    small = unit("s", 50)
    large = unit("l", 150)
    engine.request_stream("s", [small])
    engine.request_stream("l", [large])
    engine.run_until(1000)
    # Shared until t=100 (small done, large has 100 left at full rate).
    assert engine.arrival_time(small) == pytest.approx(100)
    assert engine.arrival_time(large) == pytest.approx(200)


def test_stream_limit_queues_excess():
    engine = StreamEngine(LINK, max_streams=1)
    a = unit("a", 100)
    b = unit("b", 100)
    engine.request_stream("a", [a])
    engine.request_stream("b", [b])
    engine.run_until(1000)
    assert engine.arrival_time(a) == pytest.approx(100)
    assert engine.arrival_time(b) == pytest.approx(200)
    assert engine.stream_start_times["b"] == pytest.approx(100)


def test_front_request_jumps_queue():
    engine = StreamEngine(LINK, max_streams=1)
    engine.request_stream("a", [unit("a", 100)])
    b = unit("b", 100)
    c = unit("c", 100)
    engine.request_stream("b", [b])
    engine.request_stream("c", [c], front=True)
    engine.run_until(1000)
    assert engine.arrival_time(c) == pytest.approx(200)
    assert engine.arrival_time(b) == pytest.approx(300)


def test_demand_fetch_mid_run_jumps_whole_waiting_queue():
    """§5.1 regression: a demand-fetched stream admitted *while a
    queue already exists* starts ahead of every earlier-queued stream,
    not merely ahead of later arrivals."""
    engine = StreamEngine(LINK, max_streams=1)
    engine.request_stream("active", [unit("active", 100)])
    b = unit("b", 100)
    c = unit("c", 100)
    engine.request_stream("b", [b])
    engine.request_stream("c", [c])
    demanded = unit("d", 50)
    engine.run_until(40)
    engine.request_stream("d", [demanded], front=True)
    engine.run_until(1000)
    # The active stream is never preempted: it finishes at t=100.
    # The demand fetch then gets the slot before b and c.
    assert engine.stream_start_times["d"] == pytest.approx(100)
    assert engine.arrival_time(demanded) == pytest.approx(150)
    assert engine.arrival_time(b) == pytest.approx(250)
    assert engine.arrival_time(c) == pytest.approx(350)


def test_promote_moves_waiting_stream_forward():
    engine = StreamEngine(LINK, max_streams=1)
    engine.request_stream("a", [unit("a", 100)])
    engine.request_stream("b", [unit("b", 100)])
    c_stream = engine.request_stream("c", [unit("c", 100)])
    engine.promote(c_stream)
    engine.run_until(1000)
    assert engine.stream_start_times["c"] < engine.stream_start_times["b"]


def test_run_until_unit_returns_exact_time():
    engine = StreamEngine(LINK)
    target = unit("t", 75)
    engine.request_stream("t", [target])
    arrival = engine.run_until_unit(target)
    assert arrival == pytest.approx(75)
    assert engine.arrived(target)


def test_run_until_unit_idle_engine_raises():
    engine = StreamEngine(LINK)
    ghost = unit("ghost", 10)
    with pytest.raises(TransferError):
        engine.run_until_unit(ghost)


def test_arrival_time_of_unarrived_unit_raises():
    engine = StreamEngine(LINK)
    pending = unit("p", 1000)
    engine.request_stream("p", [pending])
    engine.run_until(10)
    with pytest.raises(TransferError):
        engine.arrival_time(pending)


def test_cannot_run_backwards():
    engine = StreamEngine(LINK)
    engine.run_until(100)
    with pytest.raises(TransferError):
        engine.run_until(50)


def test_remaining_bytes_accounting():
    engine = StreamEngine(LINK)
    engine.request_stream("a", [unit("a", 100), unit("a2", 100)])
    engine.run_until(50)
    assert engine.remaining_bytes == pytest.approx(150)
    engine.run_until(200)
    assert engine.remaining_bytes == pytest.approx(0)
    assert engine.idle


def test_empty_stream_rejected():
    engine = StreamEngine(LINK)
    with pytest.raises(TransferError):
        engine.request_stream("empty", [])


def test_bad_stream_limit_rejected():
    with pytest.raises(TransferError):
        StreamEngine(LINK, max_streams=0)


def test_stream_admitted_mid_run_shares_bandwidth():
    """A stream requested between two runs shares from that time on."""
    engine = StreamEngine(LINK)
    a = unit("a", 200)
    b = unit("b", 100)
    engine.request_stream("a", [a])
    engine.run_until(100)
    engine.request_stream("b", [b])
    engine.run_until(400)
    # a alone until 100 (100 left), then shared: a done at 300.
    assert engine.arrival_time(a) == pytest.approx(300)
    assert engine.arrival_time(b) == pytest.approx(300)


def test_three_way_share_with_uneven_sizes():
    engine = StreamEngine(LINK)
    a = unit("a", 30)
    b = unit("b", 60)
    c = unit("c", 90)
    for name, u in (("a", a), ("b", b), ("c", c)):
        engine.request_stream(name, [u])
    engine.run_until(10_000)
    # Three-way share: a done at 90 (30 bytes at 1/3 rate).
    assert engine.arrival_time(a) == pytest.approx(90)
    # Then two-way: b has 30 left, done at 90 + 60 = 150.
    assert engine.arrival_time(b) == pytest.approx(150)
    # Then full rate: c has 30 left, done at 180.
    assert engine.arrival_time(c) == pytest.approx(180)


def test_huge_time_values_make_progress():
    """Float-resolution guard: modem-scale cycle counts still finish."""
    modem = NetworkLink("modem", 134698.0)
    engine = StreamEngine(modem)
    units = [unit(f"u{i}", 1) for i in range(50)]
    engine.request_stream("tiny-units", units)
    engine.run_until(1e11)
    assert all(engine.arrived(u) for u in units)
