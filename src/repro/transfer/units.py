"""Transfer units and per-class transfer plans.

Under strict semantics a class file is one indivisible unit.  Under
non-strict semantics (§3) it decomposes into a global-data unit followed
by one unit per method (local data + code + delimiter).  With data
partitioning (§7.3) the global unit shrinks to the needed-first chunk,
each method unit gains its GMD, and unused global data trails the file.

A :class:`ClassTransferPlan` is the *in-order* unit stream for one class
file; every transfer methodology (strict, parallel, interleaved) moves
these same units, differing only in how streams share the link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..classfile import METHOD_DELIMITER_SIZE, class_layout
from ..cfg import partition_blocks
from ..datapart import partition_class
from ..errors import TransferError
from ..program import MethodId, Program

__all__ = [
    "UnitKind",
    "TransferUnit",
    "ClassTransferPlan",
    "TransferPolicy",
    "build_class_plan",
    "build_program_plans",
]


class TransferPolicy(enum.Enum):
    """How class files decompose into transfer units."""

    STRICT = "strict"
    NON_STRICT = "non_strict"
    DATA_PARTITIONED = "data_partitioned"


class UnitKind(enum.Enum):
    """What a transfer unit carries."""

    CLASS_FILE = "class_file"  # strict: the whole file
    GLOBAL_DATA = "global_data"  # non-strict: all global data up front
    GLOBAL_FIRST = "global_first"  # partitioned: needed-first chunk
    METHOD = "method"  # method code + local data (+ GMD) + delimiter
    GLOBAL_UNUSED = "global_unused"  # partitioned: trailing unused data


@dataclass(frozen=True)
class TransferUnit:
    """One atomic piece of a class file on the wire.

    Attributes:
        kind: What the unit carries.
        class_name: Owning class.
        method: The method, for ``METHOD`` units.
        size: Bytes on the wire (delimiters included for methods).
    """

    kind: UnitKind
    class_name: str
    size: int
    method: Optional[MethodId] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise TransferError(f"negative unit size: {self}")
        if (self.kind == UnitKind.METHOD) != (self.method is not None):
            raise TransferError(
                f"method must be set exactly for METHOD units: {self}"
            )


@dataclass(frozen=True)
class ClassTransferPlan:
    """The in-order unit stream for one class file.

    Units always arrive in this order within the class — both parallel
    and interleaved transfer preserve intra-class order — so a method
    unit's arrival implies everything it needs from its own class has
    arrived too.
    """

    class_name: str
    policy: TransferPolicy
    units: Tuple[TransferUnit, ...]

    @property
    def total_bytes(self) -> int:
        return sum(unit.size for unit in self.units)

    def method_unit(self, method_name: str) -> TransferUnit:
        for unit in self.units:
            if (
                unit.kind == UnitKind.METHOD
                and unit.method is not None
                and unit.method.method_name == method_name
            ):
                return unit
        raise TransferError(
            f"no method unit {method_name!r} in plan for "
            f"{self.class_name!r}"
        )

    def required_unit_for(self, method_name: str) -> TransferUnit:
        """The unit whose arrival lets ``method_name`` begin executing.

        Strict: the whole class file.  Otherwise: the method's unit
        (its prerequisites precede it in the in-order stream).
        """
        if self.policy == TransferPolicy.STRICT:
            return self.units[0]
        return self.method_unit(method_name)

    def prefix_bytes_through(self, method_name: str) -> int:
        """Bytes from stream start through the method's unit."""
        if self.policy == TransferPolicy.STRICT:
            return self.total_bytes
        total = 0
        for unit in self.units:
            total += unit.size
            if (
                unit.kind == UnitKind.METHOD
                and unit.method is not None
                and unit.method.method_name == method_name
            ):
                return total
        raise TransferError(
            f"no method unit {method_name!r} in plan for "
            f"{self.class_name!r}"
        )


def build_class_plan(
    classfile,
    policy: TransferPolicy,
    block_delimiters: bool = False,
) -> ClassTransferPlan:
    """Decompose one class file according to ``policy``.

    Args:
        classfile: The class to decompose.
        policy: Unit granularity policy.
        block_delimiters: Granularity ablation (paper §4): place a
            delimiter after every *basic block* instead of one per
            method.  Execution still needs whole methods, so the finer
            delimiters are pure overhead — the paper's finding.
    """
    layout = class_layout(classfile)
    name = classfile.name
    units: List[TransferUnit] = []

    def delimiter_overhead(method_name: str) -> int:
        if not block_delimiters:
            return METHOD_DELIMITER_SIZE
        blocks, _ = partition_blocks(
            classfile.method(method_name).instructions
        )
        return METHOD_DELIMITER_SIZE * len(blocks)

    if policy == TransferPolicy.STRICT:
        units.append(
            TransferUnit(
                kind=UnitKind.CLASS_FILE,
                class_name=name,
                size=layout.strict_size,
            )
        )
    elif policy == TransferPolicy.NON_STRICT:
        units.append(
            TransferUnit(
                kind=UnitKind.GLOBAL_DATA,
                class_name=name,
                size=layout.global_size,
            )
        )
        for method_name, size in layout.method_sizes:
            units.append(
                TransferUnit(
                    kind=UnitKind.METHOD,
                    class_name=name,
                    size=size + delimiter_overhead(method_name),
                    method=MethodId(name, method_name),
                )
            )
    elif policy == TransferPolicy.DATA_PARTITIONED:
        partition = partition_class(classfile, layout)
        # The needed-first chunk carries the fixed framing plus the
        # setup-referenced pool entries; the rest of the pool rides
        # with its first-using method as GMDs, and unused entries
        # trail.  Total wire bytes equal the non-strict wire size.
        units.append(
            TransferUnit(
                kind=UnitKind.GLOBAL_FIRST,
                class_name=name,
                size=partition.first_bytes,
            )
        )
        gmd = dict(partition.gmd_sizes)
        for method_name, size in layout.method_sizes:
            units.append(
                TransferUnit(
                    kind=UnitKind.METHOD,
                    class_name=name,
                    size=(
                        size
                        + delimiter_overhead(method_name)
                        + gmd.get(method_name, 0)
                    ),
                    method=MethodId(name, method_name),
                )
            )
        if partition.unused_bytes:
            units.append(
                TransferUnit(
                    kind=UnitKind.GLOBAL_UNUSED,
                    class_name=name,
                    size=partition.unused_bytes,
                )
            )
    else:  # pragma: no cover - enum is closed
        raise TransferError(f"unknown policy {policy}")

    return ClassTransferPlan(
        class_name=name, policy=policy, units=tuple(units)
    )


def build_program_plans(
    program: Program,
    policy: TransferPolicy,
    block_delimiters: bool = False,
) -> Dict[str, ClassTransferPlan]:
    """Plans for every class of a program, keyed by class name."""
    return {
        classfile.name: build_class_plan(
            classfile, policy, block_delimiters=block_delimiters
        )
        for classfile in program.classes
    }
