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

The wire format's u2 fields set two limits, both checked when an entry
is made or added so they surface as :class:`~repro.errors.ConstantPoolError`:
a Utf8 payload holds at most :data:`MAX_UTF8_BYTES` encoded bytes, and a
pool holds at most :data:`MAX_POOL_ENTRIES` entries (its count field
stores ``len(pool) + 1``).
"""

from __future__ import annotations

import enum
import struct
from array import array
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..errors import ConstantPoolError

__all__ = [
    "MAX_POOL_ENTRIES",
    "MAX_UTF8_BYTES",
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


#: Largest Utf8 payload: its length is a u2 on the wire.
MAX_UTF8_BYTES = 0xFFFF
#: Most entries a pool can hold: the count u2 stores ``len(pool) + 1``.
MAX_POOL_ENTRIES = 0xFFFF - 1


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

    @property
    def references(self) -> Tuple[int, ...]:
        """The pool indices this entry refers to, in field order."""
        return ()


@dataclass(frozen=True)
class Utf8Entry(ConstantEntry):
    value: str = ""
    tag: ClassVar[ConstantTag] = ConstantTag.UTF8

    def __post_init__(self) -> None:
        try:
            length = len(self.encoded)
        except UnicodeEncodeError as exc:
            raise ConstantPoolError(
                f"Utf8 constant is not encodable: {exc}"
            ) from exc
        if length > MAX_UTF8_BYTES:
            raise ConstantPoolError(
                f"Utf8 constant of {length} bytes exceeds "
                f"{MAX_UTF8_BYTES}"
            )

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

    @property
    def references(self) -> Tuple[int, ...]:
        return (self.utf8_index,)


@dataclass(frozen=True)
class ClassEntry(ConstantEntry):
    """A class reference; ``name_index`` points at a Utf8 class name."""

    name_index: int = 0
    tag: ClassVar[ConstantTag] = ConstantTag.CLASS

    @property
    def size(self) -> int:
        return 1 + 2

    @property
    def references(self) -> Tuple[int, ...]:
        return (self.name_index,)


@dataclass(frozen=True)
class _MemberRefEntry(ConstantEntry):
    class_index: int = 0
    name_and_type_index: int = 0

    @property
    def size(self) -> int:
        return 1 + 2 + 2

    @property
    def references(self) -> Tuple[int, ...]:
        return (self.class_index, self.name_and_type_index)


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

    @property
    def references(self) -> Tuple[int, ...]:
        return (self.name_index, self.descriptor_index)


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


#: The IEEE-754 image the serializer writes for a Float (binary32) or
#: a Double (binary64).  Equal floats can differ on the wire (0.0 and
#: -0.0) and unequal ones can share it (two doubles that round to one
#: binary32), so the pool interns these entries by that image.
_FLOAT_IMAGES: Dict[Type[ConstantEntry], Callable[[float], bytes]] = {
    FloatEntry: struct.Struct(">f").pack,
    DoubleEntry: struct.Struct(">d").pack,
}


def _intern_key(entry: ConstantEntry) -> Hashable:
    """The key under which the pool interns a non-Utf8 ``entry``.

    Raises:
        ConstantPoolError: If a Float's value is too large for binary32.
    """
    image = _FLOAT_IMAGES.get(type(entry))
    if image is None:
        return entry
    value = entry.value  # type: ignore[attr-defined]
    try:
        return (entry.tag, image(value))
    except OverflowError as exc:
        raise ConstantPoolError(
            f"{type(entry).__name__} {value!r} does not fit its "
            f"{entry.size - 1}-byte wire format"
        ) from exc


class ConstantPool:
    """An interning, 1-indexed pool of :class:`ConstantEntry` objects.

    ``add_*`` helpers intern their argument: adding the same logical
    constant twice returns the original index, exactly as ``javac``
    behaves, which keeps the global-data size model honest.  A Float
    or Double is the same constant as another when the serializer
    writes the same bytes for both: 0.0 and -0.0 take two entries, and
    two values that round to one binary32 take one.

    The pool is append-only, and :meth:`add` is its only mutator.  It
    keeps the pool's byte total as entries arrive, so :attr:`size` is
    O(1), records each entry's size in :attr:`entry_sizes`, so byte
    accounting never re-encodes an entry, records the indices each
    entry refers to (:attr:`reference_bounds`,
    :attr:`reference_targets`), so a reference walk never fetches an
    entry, and indexes Utf8 entries by their string, so
    :meth:`find_utf8`/:meth:`add_utf8` look a string up without
    building an entry.
    """

    def __init__(self) -> None:
        self._entries: List[ConstantEntry] = []
        # Each entry has one index slot: Utf8 entries under their
        # string in ``_utf8``, Floats and Doubles under their wire
        # image, every other entry under itself.
        self._index: Dict[Hashable, int] = {}
        self._utf8: Dict[str, int] = {}
        # Unsigned 32-bit items: a Utf8 entry reaches 3 + MAX_UTF8_BYTES.
        self._sizes = array("I")
        self._entry_bytes = 0
        # Every entry's references, flat, and where each entry's end:
        # entry ``i``'s are ``_targets[_bounds[i - 1]:_bounds[i]]``.
        # The targets are the entries' own ints, unchecked, so a list.
        self._targets: List[int] = []
        self._bounds = array("I", [0])

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConstantEntry]:
        return iter(self._entries)

    def entries(self) -> List[Tuple[int, ConstantEntry]]:
        """All (index, entry) pairs in index order."""
        return list(enumerate(self._entries, start=1))

    def add(self, entry: ConstantEntry) -> int:
        """Intern ``entry`` and return its 1-based index.

        Raises:
            ConstantPoolError: If ``entry`` is new and the pool already
                holds :data:`MAX_POOL_ENTRIES` entries.
        """
        existing = self.find(entry)
        if existing is not None:
            return existing
        if len(self._entries) >= MAX_POOL_ENTRIES:
            raise ConstantPoolError(
                f"constant pool is full ({MAX_POOL_ENTRIES} entries)"
            )
        self._entries.append(entry)
        index = len(self._entries)
        if isinstance(entry, Utf8Entry):
            self._utf8[entry.value] = index
        else:
            self._index[_intern_key(entry)] = index
            self._targets += entry.references
        self._bounds.append(len(self._targets))
        size = entry.size
        self._sizes.append(size)
        self._entry_bytes += size
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
        """Fetch the entry at ``index``, checked to be an ``entry_type``.

        Raises:
            ConstantPoolError: If the index is out of range or holds
                another type.
        """
        entries = self._entries
        if 0 < index <= len(entries):
            entry = entries[index - 1]
            if isinstance(entry, entry_type):
                return entry
        entry = self.get(index)  # raises when out of range
        raise ConstantPoolError(
            f"constant pool index {index} holds "
            f"{type(entry).__name__}, expected {entry_type.__name__}"
        )

    # -- convenience constructors -------------------------------------

    def add_utf8(self, value: str) -> int:
        index = self._utf8.get(value)
        if index is None:
            index = self.add(Utf8Entry(value))
        return index

    def intern_utf8(self, values: Iterable[str]) -> None:
        """:meth:`add_utf8` each of ``values``, in order, in one call."""
        known = self._utf8
        for value in values:
            if value not in known:
                self.add(Utf8Entry(value))

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
        # The same checks, in the same order, as resolving the
        # NameAndType, then class_name(), then utf8() of the name and
        # of the descriptor; each lookup is one get_typed call.
        get_typed = self.get_typed
        name_and_type = get_typed(entry.name_and_type_index, NameAndTypeEntry)
        class_entry = get_typed(entry.class_index, ClassEntry)
        return (
            get_typed(class_entry.name_index, Utf8Entry).value,
            get_typed(name_and_type.name_index, Utf8Entry).value,
            get_typed(name_and_type.descriptor_index, Utf8Entry).value,
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
        """Serialized size: 2-byte count plus every entry (O(1))."""
        return 2 + self._entry_bytes

    @property
    def entry_sizes(self) -> Sequence[int]:
        """Each entry's serialized size, in index order.

        Entry ``i`` is at position ``i - 1``.  :meth:`add` records the
        size as the entry arrives; this is the pool's own record, to be
        read, never written.
        """
        return self._sizes

    @property
    def reference_bounds(self) -> Sequence[int]:
        """Where each entry's references end in :attr:`reference_targets`.

        ``len(pool) + 1`` items, the first 0: entry ``i`` refers to
        ``reference_targets[reference_bounds[i - 1]:reference_bounds[i]]``,
        which equals ``get(i).references``.  :meth:`add` records them
        as the entry arrives; read them, never write them.
        """
        return self._bounds

    @property
    def reference_targets(self) -> Sequence[int]:
        """Every entry's references, flat, in index and field order.

        The indices are the entries' own fields, unchecked: they may
        be 0, negative or past the end of the pool.  Read them, never
        write them.
        """
        return self._targets

    def size_by_tag(self) -> Dict[ConstantTag, int]:
        """Bytes per entry tag — the raw material of Table 8."""
        breakdown: Dict[ConstantTag, int] = {
            tag: 0 for tag in ConstantTag
        }
        for entry, size in zip(self._entries, self._sizes):
            breakdown[entry.tag] += size
        return breakdown

    def find(self, entry: ConstantEntry) -> Optional[int]:
        """Index of an existing entry that interns as ``entry``, or None.

        Raises:
            ConstantPoolError: If ``entry`` is a Float too large for
                binary32.
        """
        if isinstance(entry, Utf8Entry):
            return self._utf8.get(entry.value)
        return self._index.get(_intern_key(entry))

    def find_utf8(self, value: str) -> Optional[int]:
        """Index of an existing Utf8 entry, or None."""
        return self._utf8.get(value)
