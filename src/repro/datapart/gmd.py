"""GlobalMethodData (GMD) partitioning of class file global data.

The paper (§7.3) proposes placing a GMD structure before each procedure
containing "only the data in the constant pool and attributes that are
needed to execute up to and including the procedure".  This module
computes those partitions: every constant pool entry is attributed to
the *first* method (in file order) that references it; entries needed
for class setup go to the up-front chunk; unreferenced entries are
unused and transfer last.

Attribution is one pruned walk per class
(:func:`~repro.datapart.usage.extend_closure`): starting from the setup
closure, each method in file order follows its references and stops at
entries already assigned, so it takes exactly its closure minus what
earlier methods took, and each entry is visited once.  The walk reads
the references and sizes the pool recorded as entries arrived, and the
roots of setup and of every method come from one pass over the pool
(:class:`~repro.datapart.usage.ClassPoolRoots`), which resolves no
entry through the pool unless it is malformed.

Byte accounting is exact:
``first_bytes + sum(gmd sizes) + unused_bytes == ClassLayout.global_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..classfile import ClassFile, ClassLayout, class_layout
from ..errors import ClassFileError
from ..program import Program
from .usage import ClassPoolRoots, extend_closure

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
    roots = ClassPoolRoots(classfile)
    assigned: Set[int] = set()
    setup_pool_bytes = extend_closure(pool, roots.setup(), assigned)
    gmd_sizes = tuple(
        (method.name, extend_closure(pool, method_roots, assigned))
        for method, method_roots in zip(
            classfile.methods, roots.by_method()
        )
    )
    # Each entry is assigned at most once, so the unassigned entries'
    # bytes are the recorded total less what the walks added.
    unused_bytes = (
        sum(pool.entry_sizes)
        - setup_pool_bytes
        - sum(size for _, size in gmd_sizes)
    )

    # 'Needed first' = setup pool entries plus every non-pool global
    # byte (file framing, field table, interfaces, class attributes,
    # and the pool count header).
    non_pool_global = layout.global_size - (pool.size - 2)
    first_bytes = setup_pool_bytes + non_pool_global

    partition = DataPartition(
        class_name=classfile.name,
        first_bytes=first_bytes,
        setup_pool_bytes=setup_pool_bytes,
        gmd_sizes=gmd_sizes,
        unused_bytes=unused_bytes,
    )
    # The entries' own sizes must add up to the pool's running total.
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
