"""The constant pool: the bulk of a class file's global data.

The layout mirrors the JVM class file constant pool (Lindholm & Yellin,
*The Java Virtual Machine Specification*), which the paper's Table 8
decomposes: Utf8 strings, Integers, Floats, Longs, Doubles, Strings,
Classes, FieldRefs, MethodRefs, InterfaceMethodRefs, and NameAndType
entries.  Entry sizes here equal their serialized sizes, so the Table 8
reproduction reports real byte fractions.

Indices are 1-based; index 0 is reserved (as in the JVM).  Unlike the JVM
we do not make Long/Double entries occupy two slots — slot accounting is
irrelevant to the experiments, byte size is what matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ConstantPoolError

__all__ = [
    "ConstantTag",
    "ConstantEntry",
    "Utf8Entry",
    "IntegerEntry",
    "FloatEntry",
    "LongEntry",
    "DoubleEntry",
    "StringEntry",
    "ClassEntry",
    "FieldRefEntry",
    "MethodRefEntry",
    "InterfaceMethodRefEntry",
    "NameAndTypeEntry",
    "ConstantPool",
]


class ConstantTag(enum.IntEnum):
    """Constant pool entry tags (JVM values)."""

    UTF8 = 1
    INTEGER = 3
    FLOAT = 4
    LONG = 5
    DOUBLE = 6
    CLASS = 7
    STRING = 8
    FIELD_REF = 9
    METHOD_REF = 10
    INTERFACE_METHOD_REF = 11
    NAME_AND_TYPE = 12


@dataclass(frozen=True)
class ConstantEntry:
    """Base class for constant pool entries."""

    #: Serialized tag byte; set by each concrete subclass.
    tag: ClassVar[ConstantTag]

    @property
    def size(self) -> int:
        """Serialized size in bytes, including the tag byte."""
        raise NotImplementedError


@dataclass(frozen=True)
class Utf8Entry(ConstantEntry):
    value: str = ""
    tag: ClassVar[ConstantTag] = ConstantTag.UTF8

    @property
    def encoded(self) -> bytes:
        return self.value.encode("utf-8")

    @property
    def size(self) -> int:
        return 1 + 2 + len(self.encoded)


@dataclass(frozen=True)
class IntegerEntry(ConstantEntry):
    value: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.INTEGER

    def __post_init__(self) -> None:
        if not -(2**31) <= self.value <= 2**31 - 1:
            raise ConstantPoolError(f"integer out of range: {self.value}")

    @property
    def size(self) -> int:
        return 1 + 4


@dataclass(frozen=True)
class FloatEntry(ConstantEntry):
    value: float = 0.0
    tag: ClassVar[ConstantTag] = ConstantTag.FLOAT

    @property
    def size(self) -> int:
        return 1 + 4


@dataclass(frozen=True)
class LongEntry(ConstantEntry):
    value: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.LONG

    def __post_init__(self) -> None:
        if not -(2**63) <= self.value <= 2**63 - 1:
            raise ConstantPoolError(f"long out of range: {self.value}")

    @property
    def size(self) -> int:
        return 1 + 8


@dataclass(frozen=True)
class DoubleEntry(ConstantEntry):
    value: float = 0.0
    tag: ClassVar[ConstantTag] = ConstantTag.DOUBLE

    @property
    def size(self) -> int:
        return 1 + 8


@dataclass(frozen=True)
class StringEntry(ConstantEntry):
    """A string constant; ``utf8_index`` points at its Utf8 payload."""

    utf8_index: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.STRING

    @property
    def size(self) -> int:
        return 1 + 2


@dataclass(frozen=True)
class ClassEntry(ConstantEntry):
    """A class reference; ``name_index`` points at a Utf8 class name."""

    name_index: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.CLASS

    @property
    def size(self) -> int:
        return 1 + 2


@dataclass(frozen=True)
class _MemberRefEntry(ConstantEntry):
    class_index: int = 0
    name_and_type_index: int = 0

    @property
    def size(self) -> int:
        return 1 + 2 + 2


@dataclass(frozen=True)
class FieldRefEntry(_MemberRefEntry):
    tag: ClassVar[ConstantTag] = ConstantTag.FIELD_REF


@dataclass(frozen=True)
class MethodRefEntry(_MemberRefEntry):
    tag: ClassVar[ConstantTag] = ConstantTag.METHOD_REF


@dataclass(frozen=True)
class InterfaceMethodRefEntry(_MemberRefEntry):
    tag: ClassVar[ConstantTag] = ConstantTag.INTERFACE_METHOD_REF


@dataclass(frozen=True)
class NameAndTypeEntry(ConstantEntry):
    name_index: int = 0
    descriptor_index: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.NAME_AND_TYPE

    @property
    def size(self) -> int:
        return 1 + 2 + 2


_ENTRY_CLASSES = {
    ConstantTag.UTF8: Utf8Entry,
    ConstantTag.INTEGER: IntegerEntry,
    ConstantTag.FLOAT: FloatEntry,
    ConstantTag.LONG: LongEntry,
    ConstantTag.DOUBLE: DoubleEntry,
    ConstantTag.CLASS: ClassEntry,
    ConstantTag.STRING: StringEntry,
    ConstantTag.FIELD_REF: FieldRefEntry,
    ConstantTag.METHOD_REF: MethodRefEntry,
    ConstantTag.INTERFACE_METHOD_REF: InterfaceMethodRefEntry,
    ConstantTag.NAME_AND_TYPE: NameAndTypeEntry,
}


class ConstantPool:
    """An interning, 1-indexed pool of :class:`ConstantEntry` objects.

    ``add_*`` helpers intern their argument: adding the same logical
    constant twice returns the original index, exactly as ``javac``
    behaves, which keeps the global-data size model honest.
    """

    def __init__(self) -> None:
        self._entries: List[ConstantEntry] = []
        self._index: Dict[ConstantEntry, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConstantEntry]:
        return iter(self._entries)

    def entries(self) -> List[Tuple[int, ConstantEntry]]:
        """All (index, entry) pairs in index order."""
        return list(enumerate(self._entries, start=1))

    def add(self, entry: ConstantEntry) -> int:
        """Intern ``entry`` and return its 1-based index."""
        existing = self._index.get(entry)
        if existing is not None:
            return existing
        self._entries.append(entry)
        index = len(self._entries)
        self._index[entry] = index
        return index

    def get(self, index: int) -> ConstantEntry:
        """Fetch the entry at a 1-based index.

        Raises:
            ConstantPoolError: If the index is out of range.
        """
        if not 1 <= index <= len(self._entries):
            raise ConstantPoolError(
                f"constant pool index {index} out of range "
                f"[1, {len(self._entries)}]"
            )
        return self._entries[index - 1]

    def get_typed(self, index: int, entry_type: type) -> ConstantEntry:
        entry = self.get(index)
        if not isinstance(entry, entry_type):
            raise ConstantPoolError(
                f"constant pool index {index} holds "
                f"{type(entry).__name__}, expected {entry_type.__name__}"
            )
        return entry

    # -- convenience constructors -------------------------------------

    def add_utf8(self, value: str) -> int:
        return self.add(Utf8Entry(value))

    def add_integer(self, value: int) -> int:
        return self.add(IntegerEntry(value))

    def add_float(self, value: float) -> int:
        return self.add(FloatEntry(value))

    def add_long(self, value: int) -> int:
        return self.add(LongEntry(value))

    def add_double(self, value: float) -> int:
        return self.add(DoubleEntry(value))

    def add_string(self, value: str) -> int:
        return self.add(StringEntry(self.add_utf8(value)))

    def add_class(self, name: str) -> int:
        return self.add(ClassEntry(self.add_utf8(name)))

    def add_name_and_type(self, name: str, descriptor: str) -> int:
        return self.add(
            NameAndTypeEntry(self.add_utf8(name), self.add_utf8(descriptor))
        )

    def add_field_ref(
        self, class_name: str, name: str, descriptor: str
    ) -> int:
        return self.add(
            FieldRefEntry(
                self.add_class(class_name),
                self.add_name_and_type(name, descriptor),
            )
        )

    def add_method_ref(
        self, class_name: str, name: str, descriptor: str
    ) -> int:
        return self.add(
            MethodRefEntry(
                self.add_class(class_name),
                self.add_name_and_type(name, descriptor),
            )
        )

    def add_interface_method_ref(
        self, class_name: str, name: str, descriptor: str
    ) -> int:
        return self.add(
            InterfaceMethodRefEntry(
                self.add_class(class_name),
                self.add_name_and_type(name, descriptor),
            )
        )

    # -- resolution helpers --------------------------------------------

    def utf8(self, index: int) -> str:
        return self.get_typed(index, Utf8Entry).value

    def class_name(self, index: int) -> str:
        entry = self.get_typed(index, ClassEntry)
        return self.utf8(entry.name_index)

    def member_ref(self, index: int) -> Tuple[str, str, str]:
        """Resolve a Field/Method/InterfaceMethodRef.

        Returns:
            ``(class_name, member_name, descriptor)``.
        """
        entry = self.get(index)
        if not isinstance(entry, _MemberRefEntry):
            raise ConstantPoolError(
                f"constant pool index {index} holds "
                f"{type(entry).__name__}, expected a member reference"
            )
        name_and_type = self.get_typed(
            entry.name_and_type_index, NameAndTypeEntry
        )
        return (
            self.class_name(entry.class_index),
            self.utf8(name_and_type.name_index),
            self.utf8(name_and_type.descriptor_index),
        )

    def constant_value(self, index: int) -> Union[int, float, str]:
        """Value of a loadable constant (``LDC`` operand)."""
        entry = self.get(index)
        if isinstance(
            entry, (IntegerEntry, FloatEntry, LongEntry, DoubleEntry)
        ):
            return entry.value
        if isinstance(entry, StringEntry):
            return self.utf8(entry.utf8_index)
        raise ConstantPoolError(
            f"constant pool index {index} ({type(entry).__name__}) "
            "is not a loadable constant"
        )

    # -- size accounting ------------------------------------------------

    @property
    def size(self) -> int:
        """Serialized size: 2-byte count plus every entry."""
        return 2 + sum(entry.size for entry in self._entries)

    def size_by_tag(self) -> Dict[ConstantTag, int]:
        """Bytes per entry tag — the raw material of Table 8."""
        breakdown: Dict[ConstantTag, int] = {
            tag: 0 for tag in ConstantTag
        }
        for entry in self._entries:
            breakdown[entry.tag] += entry.size
        return breakdown

    def find(self, entry: ConstantEntry) -> Optional[int]:
        """Index of an existing entry equal to ``entry``, or None."""
        return self._index.get(entry)

    def find_utf8(self, value: str) -> Optional[int]:
        """Index of an existing Utf8 entry, or None."""
        return self.find(Utf8Entry(value))
