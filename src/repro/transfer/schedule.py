"""The greedy parallel-transfer schedule (paper §5.1, Figure 4).

The schedule decides *when each class file starts transferring*: "a new
class begins transfer once the predicted number of bytes from all
classes that the new class is dependent on have transferred".  The
trigger is **byte-based, not clock-based** — it is self-clocking
against actual transfer progress, which is what makes it robust to
execution speed:

* class ``c``'s **dependencies** are the classes that execute before
  ``c``'s first method (everything earlier in the first-use order):
  always a prefix of the schedule's class first-use order, so the
  schedule keeps that order once and each start records its length;
* the **unique bytes** of those dependencies are the first-use order's
  ``bytes_before`` — accumulated static procedure sizes for a static
  order, measured executed unique bytes for a profile order (§5.1's two
  variants);
* ``c`` is requested once total delivered bytes reach that figure,
  *less ``c``'s own required prefix* (global data plus everything up to
  its first-used method), so the prefix can land just in time
  (Figure 4: dependency-heavy class B starts before class A, which
  executes first).

Classes predicted to be needed only after most of the program has
executed therefore start late — and if execution finishes first, never:
their transfer is terminated with the rest.  Mispredictions are
corrected at simulation time by demand fetching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import TransferError
from ..program import MethodId, Program
from ..reorder import FirstUseOrder
from .units import ClassTransferPlan

__all__ = ["ScheduledStart", "TransferSchedule", "build_schedule"]


@dataclass(frozen=True)
class ScheduledStart:
    """One class's planned transfer start.

    Attributes:
        class_name: The class.
        start_after_bytes: Total delivered bytes after which the class
            should begin transferring (0 = immediately).
        dependency_bytes: Predicted unique bytes of the classes this
            class depends on (its deadline, in byte-progress space).
        required_prefix_bytes: Stream bytes that must arrive before the
            class's first-used method can run.
        dependency_count: How many classes of the schedule's
            :attr:`~TransferSchedule.class_order` count toward the
            trigger: the first ``dependency_count`` (everything
            first-used earlier).
    """

    class_name: str
    start_after_bytes: float
    dependency_bytes: float
    required_prefix_bytes: int
    dependency_count: int = 0


@dataclass
class TransferSchedule:
    """Planned start thresholds for every class.

    Attributes:
        starts: One start per class, in program file order.
        class_order: The classes in first-use order; every start's
            dependencies are a prefix of it.

    Raises:
        TransferError: If a start's ``dependency_count`` is negative or
            longer than ``class_order``.
    """

    starts: List[ScheduledStart]
    class_order: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._by_class = {
            start.class_name: start for start in self.starts
        }
        for start in self.starts:
            if not 0 <= start.dependency_count <= len(self.class_order):
                raise TransferError(
                    f"start of {start.class_name!r} depends on "
                    f"{start.dependency_count} classes; the class order "
                    f"holds {len(self.class_order)}"
                )

    def dependencies_of(self, start: ScheduledStart) -> Tuple[str, ...]:
        """The classes whose delivered bytes count toward ``start``'s
        trigger."""
        return self.class_order[: start.dependency_count]

    def start_for(self, class_name: str) -> ScheduledStart:
        try:
            return self._by_class[class_name]
        except KeyError as exc:
            raise TransferError(
                f"no scheduled start for class {class_name!r}"
            ) from exc

    def in_start_order(self) -> List[ScheduledStart]:
        return sorted(
            self.starts,
            key=lambda s: (s.start_after_bytes, s.dependency_bytes),
        )


def build_schedule(
    program: Program,
    plans: Dict[str, ClassTransferPlan],
    order: FirstUseOrder,
) -> TransferSchedule:
    """Build the greedy byte-triggered schedule for a program.

    Args:
        program: The (restructured) program.
        plans: Per-class transfer plans.
        order: First-use order providing dependencies and unique bytes.
    """
    first_method_of_class: Dict[str, MethodId] = {}
    class_first_use_order: List[str] = []
    # Predicted bytes delivered *from dependency classes* by the time
    # each class is first needed: walk the first-use order maintaining
    # each already-started class's delivered prefix (its stream through
    # its most recent first-used method); a class's dependency bytes
    # are the sum of those prefixes at its own first use, and its
    # dependencies the classes first used before it.
    dependency_bytes_of: Dict[str, float] = {}
    dependency_count_of: Dict[str, int] = {}
    running_prefix: Dict[str, int] = {}
    running_total = 0.0
    for method_id in order.order:
        plan = plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        if method_id.class_name not in first_method_of_class:
            first_method_of_class[method_id.class_name] = method_id
            dependency_count_of[method_id.class_name] = len(
                class_first_use_order
            )
            class_first_use_order.append(method_id.class_name)
            dependency_bytes_of[method_id.class_name] = running_total
        previous = running_prefix.get(method_id.class_name, 0)
        current = plan.prefix_bytes_through(method_id.method_name)
        if current > previous:
            running_prefix[method_id.class_name] = current
            running_total += current - previous

    starts: List[ScheduledStart] = []
    for classfile in program.classes:
        plan = plans.get(classfile.name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {classfile.name!r}"
            )
        first_method = first_method_of_class.get(classfile.name)
        if first_method is None:
            # No method of this class is in the order: ship it last.
            dependency_bytes = running_total
            required = plan.total_bytes
            dependency_count = len(class_first_use_order)
        else:
            dependency_bytes = dependency_bytes_of[classfile.name]
            required = plan.prefix_bytes_through(
                first_method.method_name
            )
            dependency_count = dependency_count_of[classfile.name]
        starts.append(
            ScheduledStart(
                class_name=classfile.name,
                start_after_bytes=max(
                    0.0, dependency_bytes - required
                ),
                dependency_bytes=dependency_bytes,
                required_prefix_bytes=required,
                dependency_count=dependency_count,
            )
        )
    return TransferSchedule(
        starts=starts, class_order=tuple(class_first_use_order)
    )
