"""Byte-layout accounting: the sizes the transfer experiments consume.

The paper's non-strict model splits each class file into *global data*
(everything needed to begin execution of any method: header, constant
pool, interfaces, fields, class attributes, and the method-table count)
and one *transfer unit per method* (the method's local data and code,
followed by a method delimiter, §3).

This module computes those sizes from the canonical
:class:`~repro.classfile.classfile.ClassFile` structure.  They are
consistent with :func:`repro.classfile.serializer.serialize`:
``global_size + sum(method sizes) == len(serialize(cf))`` (delimiters are
wire-transfer overhead added on top of the canonical image).

Nothing is serialized to get them.  The constant pool keeps its byte
total as entries are added, so reading it is O(1), and each method's
instructions are summed once, through the per-opcode size table with
no Python generator, so laying out a class costs O(names + code)
however often it is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ClassFileError
from .classfile import ClassFile
from .constant_pool import ConstantTag
from .serializer import intern_names

__all__ = [
    "METHOD_DELIMITER_SIZE",
    "ClassLayout",
    "class_layout",
    "GlobalDataBreakdown",
    "global_data_breakdown",
]

#: Size in bytes of the non-strict method delimiter (paper §3: a marker
#: after each procedure and its data signalling the unit has arrived).
METHOD_DELIMITER_SIZE = 4

#: Fixed class file framing: magic (4) + version (4).
_HEADER_SIZE = 8


@dataclass(frozen=True)
class ClassLayout:
    """Byte layout of one class file.

    Attributes:
        class_name: Name of the class.
        global_size: Bytes of global data (must precede any method in a
            non-strict transfer).
        method_sizes: ``(method name, unit size)`` in file order; unit
            size *excludes* the delimiter.
        local_data_sizes: Per-method local-data-only bytes (code plus
            LocalData payload), for Table 9 accounting.
    """

    class_name: str
    global_size: int
    method_sizes: Tuple[Tuple[str, int], ...]
    local_data_sizes: Tuple[Tuple[str, int], ...]

    @property
    def strict_size(self) -> int:
        """Size of the canonical (strict) wire image."""
        return self.global_size + sum(
            size for _, size in self.method_sizes
        )

    @property
    def nonstrict_size(self) -> int:
        """Wire size under non-strict transfer (adds delimiters)."""
        return self.strict_size + METHOD_DELIMITER_SIZE * len(
            self.method_sizes
        )

    @property
    def local_bytes(self) -> int:
        """Total method bytes (Table 9 'Local Data').

        Everything that transfers *with a method*: its code, its
        LocalData payload, and its method_info framing — i.e. the sum
        of the method unit sizes.
        """
        return sum(size for _, size in self.method_sizes)

    @property
    def code_and_payload_bytes(self) -> int:
        """Method bytes excluding framing: code plus LocalData payload."""
        return sum(size for _, size in self.local_data_sizes)

    @property
    def global_bytes(self) -> int:
        """Total global data bytes (Table 9 'Global Data').

        Everything that is not method-local: the constant pool, field
        table, interfaces, class attributes, and file framing — exactly
        :attr:`global_size`.
        """
        return self.global_size

    def method_size(self, name: str) -> int:
        for method_name, size in self.method_sizes:
            if method_name == name:
                return size
        raise ClassFileError(
            f"no method {name!r} in layout of {self.class_name!r}"
        )


def _method_table_overhead(classfile: ClassFile) -> int:
    """Global-data framing bytes of the file outside the method units."""
    return (
        _HEADER_SIZE
        + classfile.constant_pool.size
        + 2  # access flags
        + 2  # this_class index
        + 2  # interface count
        + 2 * len(classfile.interfaces)
        + 2  # field count
        + sum(field_info.size for field_info in classfile.fields)
        + 2  # method count
        + 2  # class attribute count
        + sum(attribute.size for attribute in classfile.attributes)
    )


def class_layout(classfile: ClassFile) -> ClassLayout:
    """Compute the :class:`ClassLayout` of a class file.

    Note:
        Call *after* the class file is complete.  Serialization interns
        any missing names into the constant pool; to guarantee that the
        layout and the wire image agree, this function runs the same
        interning pass (:func:`~repro.classfile.serializer.intern_names`)
        first.  It encodes no code, writes no bytes and sums each
        method's instructions once.
    """
    intern_names(classfile)
    method_sizes: List[Tuple[str, int]] = []
    local_sizes: List[Tuple[str, int]] = []
    for method in classfile.methods:
        local = method.local_bytes
        method_sizes.append((method.name, local + method.framing_bytes))
        local_sizes.append((method.name, local))
    return ClassLayout(
        class_name=classfile.name,
        global_size=_method_table_overhead(classfile),
        method_sizes=tuple(method_sizes),
        local_data_sizes=tuple(local_sizes),
    )


@dataclass(frozen=True)
class GlobalDataBreakdown:
    """Table 8 raw material: bytes per global-data component.

    Attributes:
        constant_pool: Bytes of the constant pool (count + entries).
        fields: Bytes of the field table.
        attributes: Bytes of class-level attributes.
        interfaces: Bytes of the interface table.
        pool_by_tag: Constant-pool bytes per entry tag.
    """

    constant_pool: int
    fields: int
    attributes: int
    interfaces: int
    pool_by_tag: Dict[ConstantTag, int]

    @property
    def total(self) -> int:
        """All accounted global data (excluding fixed framing)."""
        return (
            self.constant_pool
            + self.fields
            + self.attributes
            + self.interfaces
        )

    def percent_of_global(self) -> Dict[str, float]:
        """Component percentages of total global data (Table 8 left)."""
        total = self.total or 1
        return {
            "CPool": 100.0 * self.constant_pool / total,
            "Field": 100.0 * self.fields / total,
            "Attrib": 100.0 * self.attributes / total,
            "Intfc": 100.0 * self.interfaces / total,
        }

    def percent_of_pool(self) -> Dict[str, float]:
        """Entry-tag percentages of the constant pool (Table 8 right)."""
        pool_total = self.constant_pool or 1
        labels = {
            ConstantTag.UTF8: "Utf8",
            ConstantTag.INTEGER: "Ints",
            ConstantTag.FLOAT: "Float",
            ConstantTag.LONG: "Long",
            ConstantTag.DOUBLE: "Double",
            ConstantTag.STRING: "String",
            ConstantTag.CLASS: "Class",
            ConstantTag.FIELD_REF: "FRef",
            ConstantTag.METHOD_REF: "MRef",
            ConstantTag.NAME_AND_TYPE: "NandT",
            ConstantTag.INTERFACE_METHOD_REF: "IMRef",
        }
        return {
            label: 100.0 * self.pool_by_tag.get(tag, 0) / pool_total
            for tag, label in labels.items()
        }


def global_data_breakdown(classfile: ClassFile) -> GlobalDataBreakdown:
    """Decompose a class file's global data for Table 8."""
    intern_names(classfile)
    return GlobalDataBreakdown(
        constant_pool=classfile.constant_pool.size,
        fields=sum(field_info.size for field_info in classfile.fields),
        attributes=sum(
            attribute.size for attribute in classfile.attributes
        ),
        interfaces=2 * len(classfile.interfaces),
        pool_by_tag=classfile.constant_pool.size_by_tag(),
    )
