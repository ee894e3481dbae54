"""First-use orderings: the product of §4's estimators.

A :class:`FirstUseOrder` is a predicted (or measured) order in which the
program's methods will be *first* executed, annotated with the number of
bytes expected to be executed before each first use — the "unique bytes"
the parallel transfer scheduler accumulates (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List

from ..errors import ReorderError
from ..program import MethodId, Program

__all__ = [
    "FirstUseEntry", "FirstUseOrder", "laid_out_entries", "textual_first_use"
]


@dataclass(frozen=True)
class FirstUseEntry:
    """One method in a first-use order.

    Attributes:
        method: The method.
        bytes_before: Bytes predicted to be executed before this first
            use.  For a static order this accumulates static procedure
            sizes; for a profile order it is the measured unique
            executed bytes (paper §5.1's two "unique bytes" variants).
        estimated: True when this entry's position came from static
            estimation rather than an observed execution (profiles fall
            back to the static order for never-executed methods, §4.2).
    """

    method: MethodId
    bytes_before: int
    estimated: bool = True


@dataclass
class FirstUseOrder:
    """A total first-use order over all methods of a program.

    Attributes:
        entries: All methods, exactly once each, in first-use order.
        source: ``"static"``, ``"profile"``, or other provenance tag.
    """

    entries: List[FirstUseEntry]
    source: str = "static"

    def __post_init__(self) -> None:
        methods = [entry.method for entry in self.entries]
        if len(methods) != len(set(methods)):
            raise ReorderError("first-use order contains duplicates")
        self._positions: Dict[MethodId, int] = {
            method: index for index, method in enumerate(methods)
        }

    @property
    def order(self) -> List[MethodId]:
        return [entry.method for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, method_id: MethodId) -> bool:
        return method_id in self._positions

    def position(self, method_id: MethodId) -> int:
        try:
            return self._positions[method_id]
        except KeyError as exc:
            raise ReorderError(
                f"{method_id} is not in the first-use order"
            ) from exc

    def entry_for(self, method_id: MethodId) -> FirstUseEntry:
        return self.entries[self.position(method_id)]

    def bytes_before(self, method_id: MethodId) -> int:
        return self.entry_for(method_id).bytes_before

    def class_order(self) -> List[str]:
        """Classes ordered by the first use of any of their methods."""
        seen: Dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.method.class_name, None)
        return list(seen)

    def method_orders(self) -> Dict[str, List[str]]:
        """Per-class method order, for
        :meth:`repro.program.Program.restructured`."""
        orders: Dict[str, List[str]] = {}
        for entry in self.entries:
            orders.setdefault(entry.method.class_name, []).append(
                entry.method.method_name
            )
        return orders

    def validate_against(self, program: Program) -> None:
        """Check the order covers the program exactly.

        Raises:
            ReorderError: If any method is missing or extraneous.
        """
        expected = set(program.method_ids())
        actual = set(self._positions)
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            raise ReorderError(
                f"first-use order mismatch: missing={sorted(map(str, missing))} "
                f"extra={sorted(map(str, extra))}"
            )

    def interleaved_order(self) -> List[MethodId]:
        """The method order of the virtual interleaved file (§5.2)."""
        return self.order


def laid_out_entries(
    program: Program,
    methods: Iterable[MethodId],
    measured: Collection[MethodId] = (),
    bytes_before: int = 0,
) -> List[FirstUseEntry]:
    """Entries for ``methods`` laid out back to back, in this order.

    Each entry's ``bytes_before`` adds up the static sizes of the
    methods before it, from the given starting offset.  Only methods
    in ``measured`` are marked as not estimated.
    """
    entries: List[FirstUseEntry] = []
    # One index per call: Program.method would scan every class for
    # each method.
    methods_by_id = dict(program.methods())
    for method_id in methods:
        method = methods_by_id.get(method_id)
        if method is None:
            method = program.method(method_id)  # raises the lookup error
        entries.append(
            FirstUseEntry(
                method=method_id,
                bytes_before=bytes_before,
                estimated=method_id not in measured,
            )
        )
        bytes_before += method.size
    return entries


def textual_first_use(program: Program) -> FirstUseOrder:
    """The no-reordering baseline: methods in textual (file) order.

    Models a class file laid out exactly as the source was written —
    what non-strict execution gets *without* the paper's restructuring.
    Used by the reordering ablation.
    """
    entries = laid_out_entries(program, program.method_ids())
    return FirstUseOrder(entries=entries, source="textual")
