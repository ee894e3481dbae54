"""IssueEngine unit tests: arbitration, outages, events."""

import pytest

from repro.errors import TransferError
from repro.observe import TraceRecorder
from repro.program import MethodId
from repro.sched import (
    IssueEngine,
    IssueItem,
    LinkOutage,
    Scoreboard,
)
from repro.transfer import (
    TransferUnit,
    UnitKind,
    link_from_bandwidth,
    links_from_bandwidths,
)

SLOW = link_from_bandwidth("slow", 10_000)
FAST = link_from_bandwidth("fast", 1_000_000)


def _global(name, size=1000):
    return TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name=name, size=size
    )


def _method(name, method, size=1000):
    return TransferUnit(
        kind=UnitKind.METHOD,
        class_name=name,
        size=size,
        method=MethodId(name, method),
    )


def _board(*units):
    board = Scoreboard()
    for seq, unit in enumerate(units):
        board.add_item(
            IssueItem(label=f"u{seq}", units=(unit,), seq=seq)
        )
    return board


def test_engine_validates_configuration():
    board = _board(_global("A"))
    with pytest.raises(TransferError):
        IssueEngine((), board)
    with pytest.raises(TransferError):
        IssueEngine((SLOW,), board, grain="byte")
    with pytest.raises(TransferError):
        IssueEngine((SLOW,), board, link_choice="random")
    with pytest.raises(TransferError):
        IssueEngine(
            (SLOW,), board, outages=(LinkOutage(1.0, link_index=5),)
        )
    with pytest.raises(TransferError):
        IssueEngine(
            (SLOW,),
            board,
            grain="stream",
            outages=(LinkOutage(1.0, link_index=0),),
        )
    with pytest.raises(TransferError):
        LinkOutage(-1.0, 0)
    with pytest.raises(TransferError):
        LinkOutage(1.0, -2)


def test_two_links_land_units_concurrently():
    a, b = _global("A"), _global("B")
    board = _board(a, b)
    engine = IssueEngine((SLOW, SLOW), board, grain="unit")
    engine.dispatch()
    engine.run_until_unit(a)
    # Both units went out simultaneously on separate links, so both
    # land at the single-unit transfer time, not 2x.
    assert engine.arrival_time(a) == engine.arrival_time(b)
    assert engine.arrival_time(a) == pytest.approx(
        SLOW.transfer_cycles(a.size)
    )


def test_retire_gated_by_cross_link_dependency():
    g = _global("A", size=10_000)  # slow to land
    m = _method("A", "run", size=10)  # lands almost immediately
    board = Scoreboard()
    board.add_item(IssueItem(label="g", units=(g,), seq=0))
    board.add_item(IssueItem(label="m", units=(m,), seq=1))
    board.add_unit_dep(m, g)
    engine = IssueEngine((SLOW, SLOW), board, grain="unit")
    engine.dispatch()
    arrival = engine.run_until_unit(m)
    # The method landed out of order but retired with its global data.
    assert arrival == engine.arrival_time(g)
    assert board.land_times[m] < board.land_times[g]


def test_link_choice_policies_pick_different_links():
    def build(choice):
        a, b = _global("A", 5000), _global("B", 100)
        board = _board(a, b)
        engine = IssueEngine(
            (SLOW, FAST), board, grain="unit", link_choice=choice
        )
        engine.dispatch()
        return {board.items[l].label: board.items[l].channel
                for l in ("u0", "u1")}

    # Both links idle: earliest_finish sends the first grain to the
    # fast link; round_robin starts at link 0 (the slow one).
    assert build("earliest_finish") == {"u0": 1, "u1": 0}
    assert build("round_robin") == {"u0": 0, "u1": 1}
    assert build("least_loaded") == {"u0": 0, "u1": 1}


def test_idle_engine_with_unreachable_unit_raises():
    unit = _global("A")
    board = Scoreboard()
    board.add_item(
        IssueItem(
            label="never",
            units=(unit,),
            seq=0,
            watermark_bytes=1e12,
            watermark_classes=("ghost",),
        )
    )
    engine = IssueEngine((SLOW,), board, grain="unit")
    with pytest.raises(TransferError, match="never arrived"):
        engine.run_until_unit(unit)


def test_outage_requeues_and_completes():
    units = [_global(f"C{i}", size=20_000) for i in range(6)]
    board = _board(*units)
    recorder = TraceRecorder(clock="cycles")
    outage_at = SLOW.transfer_cycles(5_000)  # mid-first-unit
    engine = IssueEngine(
        (SLOW, SLOW),
        board,
        grain="unit",
        outages=(LinkOutage(outage_at, link_index=1),),
        recorder=recorder,
    )
    engine.dispatch()
    for unit in units:
        engine.run_until_unit(unit)
    assert set(engine.arrival_times) == set(units)
    events = recorder.named("stripe_rebalance")
    assert any(e.args.get("reason") == "link_outage" for e in events)
    # The survivor carried everything that had not landed.
    landed_links = {
        board.items[board.label_of(unit)].channel for unit in units
    }
    assert landed_links <= {0, 1}


def test_all_links_down_raises():
    units = [_global("A", 50_000), _global("B", 50_000)]
    board = _board(*units)
    engine = IssueEngine(
        (SLOW, SLOW),
        board,
        grain="unit",
        outages=(
            LinkOutage(10.0, link_index=0),
            LinkOutage(20.0, link_index=1),
        ),
    )
    engine.dispatch()
    with pytest.raises(TransferError, match="all links are down"):
        for unit in units:
            engine.run_until_unit(unit)


def test_events_emitted():
    a, b = _global("A"), _global("B")
    board = _board(a, b)
    recorder = TraceRecorder(clock="cycles")
    links = links_from_bandwidths((57_600, 28_800))
    engine = IssueEngine(links, board, grain="unit", recorder=recorder)
    engine.dispatch()
    engine.run_until_unit(a)
    engine.run_until_unit(b)
    issued = recorder.named("unit_issued")
    busy = recorder.named("link_busy")
    assert len(issued) == 2
    assert len(busy) == 2
    assert {e.args["link"] for e in issued} == {
        "0:link0@57600bps",
        "1:link1@28800bps",
    }
    assert all(e.dur > 0 for e in busy)
    assert sum(e.args["bytes"] for e in issued) == a.size + b.size


def test_run_until_rejects_time_travel():
    board = _board(_global("A"))
    engine = IssueEngine((SLOW,), board)
    engine.dispatch()
    engine.run_until(1000.0)
    with pytest.raises(TransferError, match="backwards"):
        engine.run_until(10.0)
