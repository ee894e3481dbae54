"""First-use analysis of global data (paper §7.3, Table 9).

Determines, for each class file, which constant pool entries are

* **needed first** — required before any method can execute: the class's
  own identity, interfaces, field declarations (preparation needs their
  names/descriptors and ConstantValue payloads), and class attributes;
* **needed by methods** — first referenced by a particular method's
  code (LDC, CALL, GETSTATIC/PUTSTATIC operands and the method's own
  name/descriptor/attribute strings), assigned to that method's
  GlobalMethodData (GMD);
* **unused** — present in the class file but referenced by nothing.

References are closed transitively (a MethodRef needs its Class and
NameAndType entries, which need their Utf8 entries, ...).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..bytecode import Opcode
from ..classfile import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    ClassEntry,
    ClassFile,
    ConstantPool,
    FieldRefEntry,
    InterfaceMethodRefEntry,
    MethodInfo,
    MethodRefEntry,
    NameAndTypeEntry,
    StringEntry,
)

__all__ = [
    "reference_closure",
    "method_pool_references",
    "pool_references_by_method",
    "setup_pool_references",
]

_POOL_OPERAND_OPCODES = frozenset(
    {Opcode.LDC, Opcode.CALL, Opcode.GETSTATIC, Opcode.PUTSTATIC}
)


def reference_closure(pool: ConstantPool, roots: Set[int]) -> Set[int]:
    """Transitively close a set of constant pool indices."""
    closed: Set[int] = set()
    frontier = list(roots)
    while frontier:
        index = frontier.pop()
        if index in closed:
            continue
        closed.add(index)
        entry = pool.get(index)
        if isinstance(entry, ClassEntry):
            frontier.append(entry.name_index)
        elif isinstance(entry, StringEntry):
            frontier.append(entry.utf8_index)
        elif isinstance(
            entry,
            (FieldRefEntry, MethodRefEntry, InterfaceMethodRefEntry),
        ):
            frontier.append(entry.class_index)
            frontier.append(entry.name_and_type_index)
        elif isinstance(entry, NameAndTypeEntry):
            frontier.append(entry.name_index)
            frontier.append(entry.descriptor_index)
    return closed


def _utf8_roots(pool: ConstantPool, values: List[str]) -> Set[int]:
    roots: Set[int] = set()
    for value in values:
        index = pool.find_utf8(value)
        if index is not None:
            roots.add(index)
    return roots


def _own_method_refs(classfile: ClassFile) -> Dict[Tuple[str, str], Set[int]]:
    """The class's own MethodRefs, by ``(name, descriptor)``.

    Resolves every MethodRef of the pool once, through
    :meth:`~repro.classfile.ConstantPool.member_ref`, so a malformed
    entry raises :class:`~repro.errors.ConstantPoolError`.
    """
    pool = classfile.constant_pool
    refs: Dict[Tuple[str, str], Set[int]] = {}
    for index, entry in pool.entries():
        if isinstance(entry, MethodRefEntry):
            class_name, member, descriptor = pool.member_ref(index)
            if class_name == classfile.name:
                refs.setdefault((member, descriptor), set()).add(index)
    return refs


def _method_references(
    classfile: ClassFile,
    method: MethodInfo,
    own_refs: Dict[Tuple[str, str], Set[int]],
) -> Set[int]:
    pool = classfile.constant_pool
    roots: Set[int] = set()
    for instruction in method.instructions:
        if instruction.opcode in _POOL_OPERAND_OPCODES:
            roots.add(instruction.operand)
    names = [method.name, method.descriptor, CODE_ATTRIBUTE]
    if method.local_data:
        names.append(LOCAL_DATA_ATTRIBUTE)
    for attribute in method.attributes:
        names.append(attribute.name)
    roots |= _utf8_roots(pool, names)
    # The method's own MethodRef (created for intra-program calls).
    roots |= own_refs.get((method.name, method.descriptor), set())
    return reference_closure(pool, roots)


def method_pool_references(
    classfile: ClassFile, method: MethodInfo
) -> Set[int]:
    """All pool indices method execution and verification touch."""
    return _method_references(classfile, method, _own_method_refs(classfile))


def pool_references_by_method(classfile: ClassFile) -> List[Set[int]]:
    """:func:`method_pool_references` of every method, in file order.

    One pass over the pool serves every method, so attributing a whole
    class costs O(pool + code), not O(pool × methods).
    """
    own_refs = _own_method_refs(classfile)
    return [
        _method_references(classfile, method, own_refs)
        for method in classfile.methods
    ]


def setup_pool_references(classfile: ClassFile) -> Set[int]:
    """Pool indices needed before any method runs (verification steps
    1–2 and preparation, §3.1)."""
    pool = classfile.constant_pool
    roots: Set[int] = set()
    this_index = pool.find_utf8(classfile.name)
    if this_index is not None:
        roots.add(this_index)
    for index, entry in pool.entries():
        if isinstance(entry, ClassEntry):
            name = pool.utf8(entry.name_index)
            if name == classfile.name or name in classfile.interfaces:
                roots.add(index)
    names: List[str] = []
    for field_info in classfile.fields:
        names.append(field_info.name)
        names.append(field_info.descriptor)
        for attribute in field_info.attributes:
            names.append(attribute.name)
            if attribute.name == "ConstantValue":
                roots.add(int.from_bytes(attribute.data, "big"))
    for attribute in classfile.attributes:
        names.append(attribute.name)
    roots |= _utf8_roots(pool, names)
    return reference_closure(pool, roots)
