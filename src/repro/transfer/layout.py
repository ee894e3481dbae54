"""One transfer layout: which units a program sends, in which order.

The paper's strict, parallel (§5.1) and interleaved (§5.2)
methodologies move the same per-class units and differ only in how
those units share the link.  The simulator's controller, the
class-file server, the transfer-plan analyzer and the JIT model all
plan through :func:`transfer_layout`, and
:meth:`TransferLayout.sequence` is the one place a unit policy becomes
a send order.  A layout holds no link or timing, so one value serves
every link and methodology that sends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import TransferError
from ..program import Program
from ..reorder import FirstUseOrder
from .compression import compress_plans
from .interleaved import build_interleaved_file
from .units import (
    ClassTransferPlan,
    TransferPolicy,
    TransferUnit,
    build_program_plans,
)

__all__ = ["TransferLayout", "transfer_layout"]


@dataclass(frozen=True)
class TransferLayout:
    """A program's transfer units under one unit policy.

    Attributes:
        program: The (restructured) program being sent.
        order: The first-use order the sequence follows; ``None`` only
            under :attr:`TransferPolicy.STRICT`, whose sequence is file
            order.
        policy: How class files decompose into units.
        plans: Per-class plans, keyed by class name.

    Raises:
        TransferError: If a non-strict policy has no order.
    """

    program: Program
    order: Optional[FirstUseOrder]
    policy: TransferPolicy
    plans: Dict[str, ClassTransferPlan]

    def __post_init__(self) -> None:
        if self.policy != TransferPolicy.STRICT and self.order is None:
            raise TransferError(
                f"the {self.policy.value!r} unit policy needs a "
                "first-use order"
            )

    def sequence(self) -> Tuple[TransferUnit, ...]:
        """The units in single-stream send order.

        Whole class files in program file order under ``STRICT``; the
        virtual interleaved file (:func:`build_interleaved_file`)
        otherwise.
        """
        if self.policy == TransferPolicy.STRICT:
            return tuple(
                unit
                for classfile in self.program.classes
                for unit in self.plans[classfile.name].units
            )
        assert self.order is not None  # __post_init__ checked it
        return tuple(build_interleaved_file(self.plans, self.order))


def transfer_layout(
    program: Program,
    policy: TransferPolicy,
    order: Optional[FirstUseOrder] = None,
    block_delimiters: bool = False,
    ratios: Optional[Dict[str, float]] = None,
) -> TransferLayout:
    """Plan every class of ``program`` once under ``policy``.

    Args:
        program: The program to send, as laid out (never reordered
            here: callers restructure first).
        policy: The unit policy.
        order: First-use order of the interleaved sequence and the
            parallel schedule; may be ``None`` only under ``STRICT``.
        block_delimiters: One delimiter per basic block instead of per
            method (the granularity ablation).
        ratios: Per-class compression ratios applied to every plan
            (:func:`~repro.transfer.compress_plans`); None = raw.
    """
    plans = build_program_plans(
        program, policy, block_delimiters=block_delimiters
    )
    if ratios is not None:
        plans = compress_plans(plans, ratios)
    return TransferLayout(program, order, policy, plans)
