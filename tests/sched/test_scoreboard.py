"""Scoreboard unit tests: states, hazards, retirement, escalation."""

import pytest

from repro.errors import TransferError
from repro.program import MethodId
from repro.sched import (
    IssueItem,
    ItemState,
    Scoreboard,
    unit_grain_scoreboard,
)
from repro.transfer import (
    TransferUnit,
    UnitKind,
    links_from_bandwidths,
)


def _global(name, size=100):
    return TransferUnit(
        kind=UnitKind.GLOBAL_DATA, class_name=name, size=size
    )


def _method(name, method, size=50):
    return TransferUnit(
        kind=UnitKind.METHOD,
        class_name=name,
        size=size,
        method=MethodId(name, method),
    )


def _board():
    board = Scoreboard()
    g = _global("A")
    m = _method("A", "run")
    board.add_item(IssueItem(label="g", units=(g,), seq=0))
    board.add_item(IssueItem(label="m", units=(m,), seq=1))
    board.add_unit_dep(m, g)
    return board, g, m


def test_item_needs_units():
    with pytest.raises(TransferError):
        IssueItem(label="empty", units=(), seq=0)


def test_duplicate_label_and_unit_rejected():
    board, g, m = _board()
    with pytest.raises(TransferError):
        board.add_item(IssueItem(label="g", units=(_global("B"),), seq=2))
    with pytest.raises(TransferError):
        board.add_item(IssueItem(label="again", units=(g,), seq=3))


def test_lifecycle_and_unissued_bytes():
    board, g, m = _board()
    assert board.unissued_bytes() == 150.0
    assert board.outstanding
    ready = board.ready_items(lambda item: 0.0)
    assert [item.label for item in ready] == ["g", "m"]
    board.mark_issued("g", channel=0, time=1.0)
    assert board.items["g"].state is ItemState.ISSUED
    assert board.unissued_bytes() == 50.0
    with pytest.raises(TransferError):
        board.mark_issued("g", channel=1, time=2.0)


def test_watermark_gates_readiness():
    board = Scoreboard()
    unit = _global("A")
    board.add_item(
        IssueItem(
            label="late",
            units=(unit,),
            seq=0,
            watermark_bytes=500.0,
            watermark_classes=("other",),
        )
    )
    assert board.ready_items(lambda item: 100.0) == []
    assert board.items["late"].state is ItemState.WAITING
    ready = board.ready_items(lambda item: 500.0)
    assert [item.label for item in ready] == ["late"]


def test_retire_cascade_waits_for_dependencies():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_issued("m", 1, 0.0)
    # Method lands first: it must NOT retire before its global data.
    assert board.mark_landed(m, 10.0) == []
    retired = board.mark_landed(g, 25.0)
    assert retired == [(g, 25.0), (m, 25.0)]
    assert board.retire_times[m] == 25.0
    assert not board.outstanding


def test_retire_in_order_is_immediate():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_issued("m", 1, 0.0)
    assert board.mark_landed(g, 5.0) == [(g, 5.0)]
    assert board.mark_landed(m, 9.0) == [(m, 9.0)]


def test_double_landing_rejected():
    board, g, m = _board()
    board.mark_issued("g", 0, 0.0)
    board.mark_landed(g, 5.0)
    with pytest.raises(TransferError):
        board.mark_landed(g, 6.0)


def test_escalation_overrides_watermark_and_priority():
    board = Scoreboard()
    board.add_item(
        IssueItem(
            label="urgent",
            units=(_global("A"),),
            seq=5,
            watermark_bytes=1e9,
            watermark_classes=("x",),
        )
    )
    board.add_item(IssueItem(label="early", units=(_global("B"),), seq=0))
    assert board.escalate("urgent") is True
    assert board.escalate("urgent") is False  # already escalated
    ready = board.ready_items(lambda item: 0.0)
    # Escalation beats program order.
    assert [item.label for item in ready] == ["urgent", "early"]


def test_unit_grain_scoreboard_labels_and_retire_hazards():
    """One grain per unit in sequence order; every other unit of a
    class retires after the class's leading global unit."""
    g_a, run = _global("A"), _method("A", "run")
    g_b, go = _global("B"), _method("B", "go")
    tail = TransferUnit(kind=UnitKind.GLOBAL_UNUSED, class_name="A", size=7)
    board = unit_grain_scoreboard((g_a, run, g_b, go, tail))
    assert list(board.items) == [
        "0:A.global_data",
        "1:A.run",
        "2:B.global_data",
        "3:B.go",
        "4:A.global_unused",
    ]
    assert [item.seq for item in board.items.values()] == [0, 1, 2, 3, 4]
    assert [board.unit_deps(unit) for unit in (g_a, run, g_b, go, tail)] == [
        (),
        (g_a,),
        (),
        (g_b,),
        (g_a,),
    ]
    for label in board.items:
        board.mark_issued(label, 0, 0.0)
    assert board.mark_landed(run, 1.0) == []
    assert board.mark_landed(g_a, 3.0) == [(g_a, 3.0), (run, 3.0)]


def test_requeue_returns_item_to_ready():
    board, g, m = _board()
    board.mark_issued("m", 1, 3.0)
    replacement = _method("A", "run", size=50)
    board.requeue("m", (replacement,))
    item = board.items["m"]
    assert item.state is ItemState.READY
    assert item.channel is None and item.issue_time is None
    with pytest.raises(TransferError):
        board.requeue("m", (replacement,))  # not issued any more
    board.mark_issued("m", 0, 4.0)
    with pytest.raises(TransferError):
        board.requeue("m", ())  # nothing left to send


def test_label_lookup():
    board, g, m = _board()
    assert board.label_of(g) == "g"
    assert board.item_for_unit(m).label == "m"
    with pytest.raises(TransferError):
        board.label_of(_global("Z"))


def test_priority_key_ordering():
    early = IssueItem(label="a", units=(_global("A"),), seq=2)
    late = IssueItem(label="b", units=(_global("B"),), seq=9)
    hot = IssueItem(
        label="c", units=(_global("C"),), seq=99, escalated=True
    )
    ordered = sorted([late, early, hot], key=IssueItem.priority_key)
    assert [item.label for item in ordered] == ["c", "a", "b"]


def test_links_from_bandwidths_validation():
    links = links_from_bandwidths((57_600, 28_800))
    assert [link.name for link in links] == [
        "link0@57600bps",
        "link1@28800bps",
    ]
    assert links[0].cycles_per_byte < links[1].cycles_per_byte
    with pytest.raises(TransferError):
        links_from_bandwidths(())
    with pytest.raises(TransferError):
        links_from_bandwidths((57_600, 0))


def test_draining_a_large_board_costs_linear_priority_keys(monkeypatch):
    """One issue per arbitration round: the ready set is kept in order,
    so a drain computes O(1) priority keys per item, not a re-sort of
    the whole set per round."""
    calls = 0
    original = IssueItem.priority_key

    def counted(item):
        nonlocal calls
        calls += 1
        return original(item)

    monkeypatch.setattr(IssueItem, "priority_key", counted)
    count = 2000
    board = Scoreboard()
    for index in range(count):
        board.add_item(
            IssueItem(
                label=f"u{index}",
                units=(_global(f"C{index}"),),
                seq=(index * 7) % count,
            )
        )
    drained = []
    while True:
        ready = board.ready_items(lambda item: 0.0)
        if not ready:
            break
        board.mark_issued(ready[0].label, 0, 0.0)
        drained.append(ready[0].seq)
    assert drained == list(range(count))
    assert calls <= 4 * count


def test_requeue_must_resend_exactly_the_unlanded_units():
    board = Scoreboard()
    a, b, c = (_method("A", name) for name in ("a", "b", "c"))
    board.add_item(IssueItem(label="s", units=(a, b, c), seq=0))
    board.add_item(IssueItem(label="t", units=(_global("T"),), seq=1))
    board.mark_issued("s", 0, 0.0)
    board.mark_landed(a, 1.0)
    for wrong in ((b,), (a, b, c), (b, c, _global("T"))):
        with pytest.raises(TransferError):
            board.requeue("s", wrong)
    board.requeue("s", (c, b))
    assert board.items["s"].units == (c, b)
    board.mark_issued("s", 1, 2.0)
    board.mark_landed(c, 3.0)
    assert board.items["s"].state is ItemState.ISSUED
    board.mark_landed(b, 4.0)
    assert board.items["s"].state is ItemState.LANDED
