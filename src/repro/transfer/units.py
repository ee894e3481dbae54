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
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

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
    """What a transfer unit carries.  Members compare and hash by
    identity, in C (``Enum.__hash__`` runs a Python frame)."""

    __hash__ = object.__hash__

    CLASS_FILE = "class_file"  # strict: the whole file
    GLOBAL_DATA = "global_data"  # non-strict: all global data up front
    GLOBAL_FIRST = "global_first"  # partitioned: needed-first chunk
    METHOD = "method"  # method code + local data (+ GMD) + delimiter
    GLOBAL_UNUSED = "global_unused"  # partitioned: trailing unused data


# ``typing.NamedTuple`` refuses a ``__new__`` of its own, so the
# validating constructor lives on a subclass of the field tuple.
class _UnitFields(NamedTuple):
    kind: UnitKind
    class_name: str
    size: int
    method: Optional[MethodId] = None


class TransferUnit(_UnitFields):
    """One atomic piece of a class file on the wire.

    A named ``(kind, class_name, size, method)`` tuple: it equals and
    hashes as its field tuple, in C, so every unit-keyed map hashes it
    without a Python frame.

    Attributes:
        kind: What the unit carries.
        class_name: Owning class.
        method: The method, for ``METHOD`` units.
        size: Bytes on the wire (delimiters included for methods).

    Raises:
        TransferError: On a negative size, or a ``method`` given for a
            unit that is not a ``METHOD`` unit (or missing for one).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: UnitKind,
        class_name: str,
        size: int,
        method: Optional[MethodId] = None,
    ) -> "TransferUnit":
        unit = tuple.__new__(cls, (kind, class_name, size, method))
        if size < 0:
            raise TransferError(f"negative unit size: {unit}")
        if (kind is UnitKind.METHOD) != (method is not None):
            raise TransferError(
                f"method must be set exactly for METHOD units: {unit}"
            )
        return unit


@dataclass(frozen=True)
class ClassTransferPlan:
    """The in-order unit stream for one class file.

    Units always arrive in this order within the class — both parallel
    and interleaved transfer preserve intra-class order — so a method
    unit's arrival implies everything it needs from its own class has
    arrived too.

    A plan indexes its method units, and the stream bytes through each,
    by method name when it is built, so :meth:`method_unit`,
    :meth:`required_unit_for`, :meth:`prefix_bytes_through` and
    :attr:`total_bytes` are O(1).  The index is derived from ``units``
    and takes no part in equality or ``repr``.
    """

    class_name: str
    policy: TransferPolicy
    units: Tuple[TransferUnit, ...]
    _total_bytes: int = field(init=False, repr=False, compare=False)
    _by_method: Dict[str, Tuple[TransferUnit, int]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        total = 0
        by_method: Dict[str, Tuple[TransferUnit, int]] = {}
        for unit in self.units:
            total += unit.size
            if unit.method is not None:
                by_method.setdefault(unit.method.method_name, (unit, total))
        object.__setattr__(self, "_total_bytes", total)
        object.__setattr__(self, "_by_method", by_method)

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def _indexed(self, method_name: str) -> Tuple[TransferUnit, int]:
        try:
            return self._by_method[method_name]
        except KeyError:
            raise TransferError(
                f"no method unit {method_name!r} in plan for "
                f"{self.class_name!r}"
            ) from None

    def method_unit(self, method_name: str) -> TransferUnit:
        return self._indexed(method_name)[0]

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
        return self._indexed(method_name)[1]


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
