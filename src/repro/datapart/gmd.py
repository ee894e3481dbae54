"""GlobalMethodData (GMD) partitioning of class file global data.

The paper (§7.3) proposes placing a GMD structure before each procedure
containing "only the data in the constant pool and attributes that are
needed to execute up to and including the procedure".  This module
computes those partitions: every constant pool entry is attributed to
the *first* method (in file order) that references it; entries needed
for class setup go to the up-front chunk; unreferenced entries are
unused and transfer last.

Byte accounting is exact:
``first_bytes + sum(gmd sizes) + unused_bytes == ClassLayout.global_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..classfile import ClassFile, ClassLayout, class_layout
from ..errors import ClassFileError
from ..program import Program
from .usage import pool_references_by_method, setup_pool_references

__all__ = ["DataPartition", "partition_class", "partition_program"]


@dataclass(frozen=True)
class DataPartition:
    """How one class's global data splits under partitioning.

    Attributes:
        class_name: The class.
        first_bytes: Global data that must precede all execution —
            structural framing, field/interface/attribute tables, and
            setup-referenced pool entries.
        setup_pool_bytes: The constant-pool-entry portion of
            ``first_bytes`` (what the wire's needed-first chunk carries
            beyond the fixed framing).
        gmd_sizes: ``(method name, GMD bytes)`` in file order; each GMD
            holds the pool entries first referenced by that method.
        unused_bytes: Pool entries no method or setup references.
    """

    class_name: str
    first_bytes: int
    setup_pool_bytes: int
    gmd_sizes: Tuple[Tuple[str, int], ...]
    unused_bytes: int

    @property
    def total_global_bytes(self) -> int:
        return (
            self.first_bytes
            + sum(size for _, size in self.gmd_sizes)
            + self.unused_bytes
        )

    @property
    def method_bytes(self) -> int:
        return sum(size for _, size in self.gmd_sizes)

    def gmd_size(self, method_name: str) -> int:
        for name, size in self.gmd_sizes:
            if name == method_name:
                return size
        raise ClassFileError(
            f"no GMD for method {method_name!r} in {self.class_name!r}"
        )

    def percentages(self) -> Dict[str, float]:
        """Table 9's three percentage columns for this class."""
        total = self.total_global_bytes or 1
        return {
            "needed_first": 100.0 * self.first_bytes / total,
            "in_methods": 100.0 * self.method_bytes / total,
            "unused": 100.0 * self.unused_bytes / total,
        }


def partition_class(
    classfile: ClassFile, layout: ClassLayout
) -> DataPartition:
    """Partition one class's global data by first use (file order).

    Args:
        classfile: The class to partition.
        layout: ``class_layout(classfile)``, which the caller has
            already computed; the partition must account for exactly
            its ``global_size``.

    Raises:
        ClassFileError: If ``layout`` is another class's, or the
            partition does not add up to ``layout.global_size``.
    """
    if layout.class_name != classfile.name:
        raise ClassFileError(
            f"layout of {layout.class_name!r} passed for {classfile.name!r}"
        )
    pool = classfile.constant_pool
    entry_sizes = {index: entry.size for index, entry in pool.entries()}

    setup = setup_pool_references(classfile)
    assigned: Set[int] = set(setup)
    gmd_sizes: List[Tuple[str, int]] = []
    for method, references in zip(
        classfile.methods, pool_references_by_method(classfile)
    ):
        fresh = references - assigned
        assigned |= fresh
        gmd_sizes.append(
            (method.name, sum(entry_sizes[index] for index in fresh))
        )
    unused = set(entry_sizes) - assigned
    unused_bytes = sum(entry_sizes[index] for index in unused)

    # 'Needed first' = setup pool entries plus every non-pool global
    # byte (file framing, field table, interfaces, class attributes,
    # and the pool count header).
    setup_pool_bytes = sum(entry_sizes[index] for index in setup)
    pool_entry_bytes = sum(entry_sizes.values())
    non_pool_global = layout.global_size - pool_entry_bytes
    first_bytes = setup_pool_bytes + non_pool_global

    partition = DataPartition(
        class_name=classfile.name,
        first_bytes=first_bytes,
        setup_pool_bytes=setup_pool_bytes,
        gmd_sizes=tuple(gmd_sizes),
        unused_bytes=unused_bytes,
    )
    if partition.total_global_bytes != layout.global_size:
        raise ClassFileError(
            f"{classfile.name}: partition accounts for "
            f"{partition.total_global_bytes} global bytes, layout has "
            f"{layout.global_size}"
        )
    return partition


def partition_program(program: Program) -> Dict[str, DataPartition]:
    """Partition every class of a program, keyed by class name."""
    return {
        classfile.name: partition_class(classfile, class_layout(classfile))
        for classfile in program.classes
    }
