"""Constant pool resolution as it was before ``get_typed`` checked the
index itself and ``member_ref`` called it directly.

Each helper resolves through :meth:`ConstantPool.get` and one more
helper per level: ``member_ref`` went through ``class_name`` and
``utf8``, each of those through ``get_typed``, and that through
``get``.
"""

from repro.classfile import (
    ClassEntry,
    DoubleEntry,
    FloatEntry,
    IntegerEntry,
    LongEntry,
    NameAndTypeEntry,
    StringEntry,
    Utf8Entry,
)
from repro.classfile.constant_pool import _MemberRefEntry
from repro.errors import ConstantPoolError


def reference_get_typed(pool, index, entry_type):
    entry = pool.get(index)
    if not isinstance(entry, entry_type):
        raise ConstantPoolError(
            f"constant pool index {index} holds "
            f"{type(entry).__name__}, expected {entry_type.__name__}"
        )
    return entry


def reference_utf8(pool, index):
    return reference_get_typed(pool, index, Utf8Entry).value


def reference_class_name(pool, index):
    entry = reference_get_typed(pool, index, ClassEntry)
    return reference_utf8(pool, entry.name_index)


def reference_member_ref(pool, index):
    entry = pool.get(index)
    if not isinstance(entry, _MemberRefEntry):
        raise ConstantPoolError(
            f"constant pool index {index} holds "
            f"{type(entry).__name__}, expected a member reference"
        )
    name_and_type = reference_get_typed(
        pool, entry.name_and_type_index, NameAndTypeEntry
    )
    return (
        reference_class_name(pool, entry.class_index),
        reference_utf8(pool, name_and_type.name_index),
        reference_utf8(pool, name_and_type.descriptor_index),
    )


def reference_constant_value(pool, index):
    entry = pool.get(index)
    if isinstance(entry, (IntegerEntry, FloatEntry, LongEntry, DoubleEntry)):
        return entry.value
    if isinstance(entry, StringEntry):
        return reference_utf8(pool, entry.utf8_index)
    raise ConstantPoolError(
        f"constant pool index {index} ({type(entry).__name__}) "
        "is not a loadable constant"
    )
