"""Wire compression: the paper's complementary technique (§2.1).

The paper frames compression (BRISC, slim binaries, gzip) as *latency
avoidance*, complementary to non-strict execution's *latency
tolerance*: "our methods will benefit from compression, just as the
positive effects of these compression techniques can be enhanced by
reorganization, restructuring, and non-strict execution."

This extension measures real per-class compression ratios (zlib over
the actual serialized wire image) and scales transfer plans by them, so
the combination of both techniques can be simulated.
"""

from __future__ import annotations

import zlib
from typing import Dict

from ..classfile import serialize
from ..program import Program
from .units import ClassTransferPlan, TransferUnit

__all__ = [
    "class_compression_ratio",
    "program_compression_ratios",
    "compress_plan",
    "compress_plans",
]


def class_compression_ratio(classfile, level: int = 6) -> float:
    """zlib compressed/uncompressed ratio of a class's wire image.

    A ratio of 0.4 means the class compresses to 40 % of its size —
    in line with the paper's note that gzip shrinks code 2–3×.
    """
    image = serialize(classfile)
    if not image:
        return 1.0
    compressed = zlib.compress(image, level)
    return min(1.0, len(compressed) / len(image))


def program_compression_ratios(
    program: Program, level: int = 6
) -> Dict[str, float]:
    """Per-class compression ratios for a whole program."""
    return {
        classfile.name: class_compression_ratio(classfile, level)
        for classfile in program.classes
    }


def _scaled(unit: TransferUnit, ratio: float) -> TransferUnit:
    return TransferUnit(
        kind=unit.kind,
        class_name=unit.class_name,
        size=max(1, round(unit.size * ratio)),
        method=unit.method,
    )


def compress_plan(
    plan: ClassTransferPlan, ratio: float
) -> ClassTransferPlan:
    """A plan whose unit sizes are scaled by ``ratio``.

    Models compressing each transfer unit independently (so units stay
    individually decodable on arrival, as non-strict execution
    requires); per-unit overhead is conservatively ignored.
    """
    if not 0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return ClassTransferPlan(
        class_name=plan.class_name,
        policy=plan.policy,
        units=tuple(_scaled(unit, ratio) for unit in plan.units),
    )


def compress_plans(
    plans: Dict[str, ClassTransferPlan],
    ratios: Dict[str, float],
) -> Dict[str, ClassTransferPlan]:
    """Apply per-class ratios to a set of plans."""
    return {
        name: compress_plan(plan, ratios.get(name, 1.0))
        for name, plan in plans.items()
    }
