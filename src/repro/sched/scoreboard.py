"""Scoreboard: issue state and hazard tracking for transfer units.

The scoreboard borrows the classic out-of-order processor structure
(CDC 6600): transfer units play the role of instructions, network
links play the role of functional units, and hazard edges play the
role of data dependences.  Each :class:`IssueItem` is one *issue
grain* — either a single transfer unit (multi-link striping) or a
whole in-order stream (strict, parallel, one-link interleaved) — and
moves through
``WAITING → READY → ISSUED → LANDED``:

* ``WAITING``: a hazard still blocks issue — the item's byte
  watermark (the greedy schedule's ``start_after_bytes`` trigger,
  paper §5.1) has not been reached;
* ``READY``: every issue hazard is clear; the arbiter may dispatch
  the item to a link;
* ``ISSUED``: on the wire on one link;
* ``LANDED``: every byte of the item has arrived.

Landing is not the end of the story: a unit *retires* only once every
unit it depends on has retired too (a method unit needs its class's
global-data unit, exactly as an out-of-order core retires in
dependence order even though execution completes out of order).  The
retire time — ``max(landing, dependency retires)`` — is what the
co-simulator observes as the unit's arrival, so out-of-order landings
never let execution start before the paper's semantics allow.

Demand-fetch correction (§5.1 misprediction handling) appears here as
*hazard-priority escalation*: an escalated item sorts before every
unescalated one at the next arbitration round.

The board keeps its ``READY`` set ordered as transitions happen, so an
arbitration round costs the same at any plan size: a watermark
release, :meth:`Scoreboard.escalate` and :meth:`Scoreboard.requeue`
insert an item, and :meth:`Scoreboard.mark_issued` (or a landing)
removes it.  :meth:`Scoreboard.ready_items` checks only the items
still ``WAITING`` on a watermark.  Every state change therefore goes
through the board's methods; an item's ``state``, ``escalated`` and
``seq`` are not to be set from outside.

:func:`unit_grain_scoreboard` builds the board of every unit-grain
transfer — the controller's unit-grain policies and the pull-mode
fetch client alike — so both share one hazard rule.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import TransferError
from ..transfer import TransferUnit, UnitKind

__all__ = ["ItemState", "IssueItem", "Scoreboard", "unit_grain_scoreboard"]

#: Slop applied to byte-watermark comparisons; the batched core in
#: :mod:`repro.core.fastsim` and the transfer-plan analyzer use
#: the same tolerance, so their releases match the scoreboard's.
WATERMARK_SLOP = 1e-9


class ItemState(enum.Enum):
    """Where an issue grain is in its lifecycle."""

    WAITING = "waiting"
    READY = "ready"
    ISSUED = "issued"
    LANDED = "landed"


@dataclass
class IssueItem:
    """One issue grain: a unit (or in-order unit stream) plus hazards.

    Attributes:
        label: Unique scoreboard key; doubles as the stream name on
            the link engine.
        units: The grain's units, delivered strictly in this order.
        seq: Program-order sequence number: the arbitration order
            among items of equal escalation.
        watermark_bytes: Delivered-byte trigger: the item stays
            ``WAITING`` until the watermark classes have delivered
            this many bytes (0 = immediately ready).
        watermark_classes: Stream labels whose delivered bytes count
            toward the watermark.
        state: Current lifecycle state.
        escalated: Demand-fetch escalation flag; sorts before every
            unescalated item.
        channel: Index of the link the item issued on, once issued.
        issue_time: Cycle at which the item issued, once issued.
    """

    label: str
    units: Tuple[TransferUnit, ...]
    seq: int
    watermark_bytes: float = 0.0
    watermark_classes: Tuple[str, ...] = ()
    state: ItemState = ItemState.WAITING
    escalated: bool = False
    channel: Optional[int] = None
    issue_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.units:
            raise TransferError(f"issue item {self.label!r} has no units")

    @property
    def size(self) -> int:
        """Total wire bytes of the grain."""
        return sum(unit.size for unit in self.units)

    def priority_key(self) -> Tuple[int, int]:
        """Sort key for arbitration: escalated, then program order."""
        return (0 if self.escalated else 1, self.seq)


@dataclass
class Scoreboard:
    """Tracks every issue grain's state and every unit's hazards.

    The scoreboard is pure bookkeeping: it never touches a link.  The
    :class:`~repro.sched.engine.IssueEngine` asks it which items are
    ready, tells it what was issued and what landed, and reads back
    retire times.

    Ordering invariant: the ``READY`` items are held sorted by
    ``(escalated, seq)``, ties in the order the items were added,
    which is exactly a stable sort of the ready set by
    :meth:`IssueItem.priority_key`.
    """

    items: Dict[str, IssueItem] = field(default_factory=dict)
    land_times: Dict[TransferUnit, float] = field(default_factory=dict)
    retire_times: Dict[TransferUnit, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._label_of_unit: Dict[TransferUnit, str] = {}
        self._unit_deps: Dict[TransferUnit, Tuple[TransferUnit, ...]] = {}
        self._dependents: Dict[TransferUnit, List[TransferUnit]] = {}
        #: Add order of each label: the tie-break of the ready order.
        self._rank: Dict[str, int] = {}
        #: Items still ``WAITING`` on a watermark, in add order.
        self._waiting: Dict[str, IssueItem] = {}
        #: ``READY`` items best first, and their sort keys, index for
        #: index.
        self._ready: List[IssueItem] = []
        self._ready_keys: List[Tuple[int, int, int]] = []
        #: Units of each item that have not landed yet.
        self._unlanded: Dict[str, int] = {}
        given, self.items = self.items, {}
        for item in given.values():
            self.add_item(item)

    # -- construction ------------------------------------------------------

    def add_item(self, item: IssueItem) -> None:
        """Register one issue grain.

        Raises:
            TransferError: On a duplicate label or a unit already
                owned by another item.
        """
        if item.label in self.items:
            raise TransferError(
                f"duplicate scoreboard item label {item.label!r}"
            )
        for unit in item.units:
            if unit in self._label_of_unit:
                raise TransferError(
                    f"unit {unit} already owned by item "
                    f"{self._label_of_unit[unit]!r}"
                )
            self._label_of_unit[unit] = item.label
        self.items[item.label] = item
        self._rank[item.label] = len(self._rank)
        self._unlanded[item.label] = sum(
            1 for unit in item.units if unit not in self.land_times
        )
        if item.state is ItemState.WAITING:
            self._waiting[item.label] = item
        elif item.state is ItemState.READY:
            self._insert_ready(item)

    def add_unit_dep(
        self, unit: TransferUnit, *deps: TransferUnit
    ) -> None:
        """Add retire hazards: ``unit`` retires only after ``deps``."""
        existing = self._unit_deps.get(unit, ())
        self._unit_deps[unit] = existing + deps
        for dep in deps:
            self._dependents.setdefault(dep, []).append(unit)

    # -- queries -----------------------------------------------------------

    def label_of(self, unit: TransferUnit) -> str:
        """The owning item's label."""
        try:
            return self._label_of_unit[unit]
        except KeyError as exc:
            raise TransferError(
                f"unit not on the scoreboard: {unit}"
            ) from exc

    def item_for_unit(self, unit: TransferUnit) -> IssueItem:
        return self.items[self.label_of(unit)]

    def unit_deps(self, unit: TransferUnit) -> Tuple[TransferUnit, ...]:
        """The units ``unit`` retires after (its retire hazards)."""
        return self._unit_deps.get(unit, ())

    def unissued_bytes(self) -> float:
        """Bytes of grains not yet dispatched to any link."""
        return float(
            sum(
                item.size
                for item in self.items.values()
                if item.state in (ItemState.WAITING, ItemState.READY)
            )
        )

    @property
    def outstanding(self) -> bool:
        """True while any grain has not fully landed."""
        return any(
            item.state is not ItemState.LANDED
            for item in self.items.values()
        )

    # -- state transitions -------------------------------------------------

    def ready_items(
        self, delivered: Callable[[IssueItem], float]
    ) -> List[IssueItem]:
        """Promote watermark-satisfied items and list the ready set.

        Only items still ``WAITING`` are checked; the ready set itself
        is kept in order as items enter and leave it.

        Args:
            delivered: Callback returning the bytes delivered so far
                for an item's watermark classes (summed across links).

        Returns:
            Every ``READY`` item, best-priority first: a copy of the
            board's ordered list, so the caller may issue while
            iterating over it.
        """
        for label, item in list(self._waiting.items()):
            if item.watermark_bytes <= delivered(item) + WATERMARK_SLOP:
                del self._waiting[label]
                item.state = ItemState.READY
                self._insert_ready(item)
        return list(self._ready)

    def escalate(self, label: str) -> bool:
        """Escalate an unlanded item's priority (demand correction).

        Returns:
            True if the item was newly escalated (it was waiting,
            ready, or in flight and not yet flagged).
        """
        item = self.items[label]
        if item.state is ItemState.LANDED or item.escalated:
            return False
        if item.state is ItemState.ISSUED:
            item.escalated = True
            return True
        # A demand fetch overrides the byte watermark outright.
        self._leave_queue(item)
        item.escalated = True
        item.state = ItemState.READY
        self._insert_ready(item)
        return True

    def mark_issued(
        self, label: str, channel: int, time: float
    ) -> None:
        item = self.items[label]
        if item.state not in (ItemState.WAITING, ItemState.READY):
            raise TransferError(
                f"cannot issue item {label!r} in state {item.state}"
            )
        self._leave_queue(item)
        item.state = ItemState.ISSUED
        item.channel = channel
        item.issue_time = time

    def requeue(
        self, label: str, remaining: Tuple[TransferUnit, ...]
    ) -> None:
        """Return an in-flight item to ``READY`` (link outage).

        Partially delivered bytes on the dead link are lost; the
        surviving units retransmit whole on another link.

        Args:
            remaining: Exactly the item's units that have not landed
                (in any order); a requeue may drop only landed units,
                or the dropped ones would never be sent again.
        """
        item = self.items[label]
        if item.state is not ItemState.ISSUED:
            raise TransferError(
                f"cannot requeue item {label!r} in state {item.state}"
            )
        if not remaining:
            raise TransferError(
                f"requeue of {label!r} with no remaining units"
            )
        if len(set(remaining)) != self._unlanded[label] or any(
            self._label_of_unit.get(unit) != label
            or unit in self.land_times
            for unit in remaining
        ):
            raise TransferError(
                f"requeue of {label!r} must resend exactly its "
                f"{self._unlanded[label]} unlanded units"
            )
        item.units = remaining
        item.state = ItemState.READY
        item.channel = None
        item.issue_time = None
        self._insert_ready(item)

    def mark_landed(
        self, unit: TransferUnit, time: float
    ) -> List[Tuple[TransferUnit, float]]:
        """Record a unit's landing; cascade retires.

        Returns:
            Every unit retired by this landing, ``(unit, retire
            time)``, in cascade order.  The landed unit itself retires
            immediately unless a hazard dependency is still in flight.
        """
        if unit in self.land_times:
            raise TransferError(f"unit landed twice: {unit}")
        self.land_times[unit] = time
        retired: List[Tuple[TransferUnit, float]] = []
        worklist: List[TransferUnit] = [unit]
        while worklist:
            candidate = worklist.pop(0)
            if (
                candidate in self.retire_times
                or candidate not in self.land_times
            ):
                continue
            deps = self._unit_deps.get(candidate, ())
            if any(dep not in self.retire_times for dep in deps):
                continue
            retire_at = self.land_times[candidate]
            for dep in deps:
                retire_at = max(retire_at, self.retire_times[dep])
            self.retire_times[candidate] = retire_at
            retired.append((candidate, retire_at))
            worklist.extend(self._dependents.get(candidate, ()))
        label = self._label_of_unit.get(unit)
        if label is not None:
            self._unlanded[label] -= 1
            if not self._unlanded[label]:
                item = self.items[label]
                self._leave_queue(item)
                item.state = ItemState.LANDED
        return retired

    # -- the ordered ready set ---------------------------------------------

    def _sort_key(self, item: IssueItem) -> Tuple[int, int, int]:
        return item.priority_key() + (self._rank[item.label],)

    def _insert_ready(self, item: IssueItem) -> None:
        key = self._sort_key(item)
        index = bisect.bisect_right(self._ready_keys, key)
        self._ready_keys.insert(index, key)
        self._ready.insert(index, item)

    def _leave_queue(self, item: IssueItem) -> None:
        """Take a ``WAITING`` or ``READY`` item out of its queue."""
        if item.state is ItemState.WAITING:
            del self._waiting[item.label]
        elif item.state is ItemState.READY:
            index = bisect.bisect_left(
                self._ready_keys, self._sort_key(item)
            )
            del self._ready_keys[index]
            del self._ready[index]


def unit_grain_scoreboard(units: Sequence[TransferUnit]) -> Scoreboard:
    """A board of one issue grain per unit, in sequence order.

    Item ``seq`` is the unit's position in ``units``, and its label is
    ``"{seq}:{class}.{method or kind}"``.  Each class's leading global
    unit (``GLOBAL_DATA`` or ``GLOBAL_FIRST``) is a retire hazard of
    every other unit of the class: nothing of a class is usable before
    its global data — the in-order stream invariant, made explicit so
    landings may happen out of order.
    """
    leading: Dict[str, TransferUnit] = {}
    for unit in units:
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
            leading.setdefault(unit.class_name, unit)
    board = Scoreboard()
    for seq, unit in enumerate(units):
        tail = (
            unit.method.method_name
            if unit.method is not None
            else unit.kind.value
        )
        board.add_item(
            IssueItem(
                label=f"{seq}:{unit.class_name}.{tail}",
                units=(unit,),
                seq=seq,
            )
        )
        lead = leading.get(unit.class_name)
        if lead is not None and unit is not lead:
            board.add_unit_dep(unit, lead)
    return board
