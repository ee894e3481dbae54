"""The virtual interleaved file (paper §5.2, Figure 5).

All class files are composed into a single *virtual interleaved file*:
method transfer units from different classes are interspersed in
first-use order, each preceded (on its class's first appearance) by the
class's global data unit.  The single stream gets the full bandwidth,
one transfer unit at a time; trailing units (unused global data,
never-used methods already ordered last) transfer after everything the
prediction says will be needed.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import TransferError
from ..reorder import FirstUseOrder
from .units import ClassTransferPlan, TransferUnit, UnitKind

__all__ = ["build_interleaved_file"]


def build_interleaved_file(
    plans: Dict[str, ClassTransferPlan],
    order: FirstUseOrder,
) -> List[TransferUnit]:
    """Compose the virtual interleaved file's unit sequence.

    For each method in first-use order: the owning class's leading
    global unit is emitted on first encounter, then the method's unit.
    Then every class's units not yet emitted follow, class by class in
    plan order: the trailing unused global data, any method the order
    leaves out, and the whole of a class it never names.  Every plan
    unit is sent exactly once.

    Raises:
        TransferError: If the order references a class with no plan.
    """
    emitted_classes: Set[str] = set()
    sequence: List[TransferUnit] = []
    for method_id in order.interleaved_order():
        plan = plans.get(method_id.class_name)
        if plan is None:
            raise TransferError(
                f"no transfer plan for class {method_id.class_name!r}"
            )
        if method_id.class_name not in emitted_classes:
            emitted_classes.add(method_id.class_name)
            leading = plan.units[0]
            if leading.kind not in (
                UnitKind.GLOBAL_DATA,
                UnitKind.GLOBAL_FIRST,
            ):
                raise TransferError(
                    f"plan for {method_id.class_name!r} does not start "
                    "with a global unit (is it strict?)"
                )
            sequence.append(leading)
        sequence.append(plan.method_unit(method_id.method_name))
    # Plan units are distinct objects, so identity tells what was sent.
    emitted = {id(unit) for unit in sequence}
    for plan in plans.values():
        sequence.extend(
            unit for unit in plan.units if id(unit) not in emitted
        )
    return sequence
