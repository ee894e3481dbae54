"""Model-based test: the ordered scoreboard against a brute-force model.

:class:`Scoreboard` keeps its ready set ordered as transitions happen
and counts each item's unlanded units.  The model below does neither:
every query scans all items and stable-sorts the ready ones, and every
landing rescans the landed item's units.  Random boards driven by
random operations must agree with it after every step.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.program import MethodId
from repro.sched import IssueItem, ItemState, Scoreboard
from repro.transfer import TransferUnit, UnitKind


class NaiveBoard:
    """Scoreboard semantics by brute force (full scans, no indexes)."""

    def __init__(self, items, deps):
        self.items = {item.label: item for item in items}
        self.owner = {
            unit: item.label for item in items for unit in item.units
        }
        self.deps = deps
        self.dependents = {}
        for unit, needs in deps.items():
            for dep in needs:
                self.dependents.setdefault(dep, []).append(unit)
        self.land_times = {}
        self.retire_times = {}

    def ready_items(self):
        ready = [
            item
            for item in self.items.values()
            if item.state is ItemState.READY
        ]
        ready.sort(key=IssueItem.priority_key)
        return ready

    def escalate(self, label):
        item = self.items[label]
        if item.state is ItemState.LANDED or item.escalated:
            return False
        item.escalated = True
        return True

    def mark_issued(self, label, channel, time):
        item = self.items[label]
        item.state = ItemState.ISSUED
        item.channel = channel
        item.issue_time = time

    def requeue(self, label, remaining):
        item = self.items[label]
        item.units = remaining
        item.state = ItemState.READY
        item.channel = None
        item.issue_time = None

    def mark_landed(self, unit, time):
        self.land_times[unit] = time
        retired = []
        worklist = [unit]
        while worklist:
            candidate = worklist.pop(0)
            if (
                candidate in self.retire_times
                or candidate not in self.land_times
            ):
                continue
            needs = self.deps.get(candidate, ())
            if any(dep not in self.retire_times for dep in needs):
                continue
            retire_at = max(
                [self.land_times[candidate]]
                + [self.retire_times[dep] for dep in needs]
            )
            self.retire_times[candidate] = retire_at
            retired.append((candidate, retire_at))
            worklist.extend(self.dependents.get(candidate, ()))
        item = self.items[self.owner[unit]]
        if all(u in self.land_times for u in item.units):
            item.state = ItemState.LANDED
        return retired


def _unit(index):
    class_name = "ABC"[index % 3]
    return TransferUnit(
        kind=UnitKind.METHOD,
        class_name=class_name,
        size=10 + index,
        method=MethodId(class_name, f"m{index}"),
    )


@st.composite
def boards(draw):
    """Item specs (with ties in seq) and retire deps."""
    items = []
    units = []
    for index in range(draw(st.integers(1, 12))):
        own = tuple(
            _unit(len(units) + offset)
            for offset in range(draw(st.integers(1, 3)))
        )
        units.extend(own)
        items.append(
            IssueItem(
                label=f"i{index}",
                units=own,
                seq=draw(st.integers(0, 4)),
            )
        )
    deps = {}
    for position, unit in enumerate(units[1:], start=1):
        earlier = draw(
            st.lists(st.integers(0, position - 1), max_size=2, unique=True)
        )
        if earlier:
            deps[unit] = tuple(units[i] for i in earlier)
    return items, deps


def _agree(board, model):
    assert [item.label for item in board.ready_items()] == [
        item.label for item in model.ready_items()
    ]
    for label, expected in model.items.items():
        item = board.items[label]
        assert item.state is expected.state, label
        assert item.escalated == expected.escalated, label
        assert item.units == expected.units, label
        assert (item.channel, item.issue_time) == (
            expected.channel,
            expected.issue_time,
        ), label
    assert board.retire_times == model.retire_times


@settings(max_examples=300, deadline=None)
@given(spec=boards(), data=st.data())
def test_scoreboard_matches_the_scan_and_sort_model(spec, data):
    items, deps = spec
    board = Scoreboard()
    for item in items:
        board.add_item(replace(item))
    for unit, needs in deps.items():
        board.add_unit_dep(unit, *needs)
    model = NaiveBoard([replace(item) for item in items], deps)
    clock = 0.0
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        clock += 1.0
        states = {label: item.state for label, item in model.items.items()}
        choices = ["ready", "escalate"]
        if ItemState.READY in states.values():
            choices.append("issue")
        if ItemState.ISSUED in states.values():
            choices.append("requeue")
        if len(model.land_times) < len(model.owner):
            choices.append("land")
        action = data.draw(st.sampled_from(choices), label="action")
        if action == "ready":
            assert [item.label for item in board.ready_items()] == [
                item.label for item in model.ready_items()
            ]
        elif action == "escalate":
            label = data.draw(st.sampled_from(sorted(states)))
            assert board.escalate(label) == model.escalate(label)
        elif action == "issue":
            label = data.draw(
                st.sampled_from(
                    sorted(
                        label
                        for label, state in states.items()
                        if state is ItemState.READY
                    )
                )
            )
            channel = data.draw(st.integers(0, 2))
            board.mark_issued(label, channel, clock)
            model.mark_issued(label, channel, clock)
        elif action == "requeue":
            label = data.draw(
                st.sampled_from(
                    sorted(
                        label
                        for label, state in states.items()
                        if state is ItemState.ISSUED
                    )
                )
            )
            unlanded = [
                unit
                for unit in model.items[label].units
                if unit not in model.land_times
            ]
            remaining = tuple(data.draw(st.permutations(unlanded)))
            board.requeue(label, remaining)
            model.requeue(label, remaining)
        else:
            unit = data.draw(
                st.sampled_from(
                    [
                        unit
                        for unit in model.owner
                        if unit not in model.land_times
                    ]
                )
            )
            assert board.mark_landed(unit, clock) == model.mark_landed(
                unit, clock
            )
        _agree(board, model)
