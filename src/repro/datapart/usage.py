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
NameAndType entries, which need their Utf8 entries, ...).  One walk,
:func:`extend_closure`, does every closing: it follows references from
a set of roots and stops at entries already in the set it extends, so
GMD attribution (:mod:`repro.datapart.gmd`) can extend one set, method
by method, and visit each entry once per class.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Set, Tuple

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
    "extend_closure",
    "reference_closure",
    "method_pool_references",
    "pool_references_by_method",
    "pool_roots_by_method",
    "setup_pool_references",
    "setup_pool_roots",
]

_POOL_OPERAND_OPCODES = frozenset(
    {Opcode.LDC, Opcode.CALL, Opcode.GETSTATIC, Opcode.PUTSTATIC}
)

#: Per entry type: a reader of the pool indices the entry refers to,
#: and whether it reads a pair.  Entry types absent here refer to
#: nothing.  One dict lookup replaces a chain of ``isinstance`` tests.
_MEMBER_REFERENCES = (attrgetter("class_index", "name_and_type_index"), True)
_REFERENCES = {
    ClassEntry: (attrgetter("name_index"), False),
    StringEntry: (attrgetter("utf8_index"), False),
    FieldRefEntry: _MEMBER_REFERENCES,
    MethodRefEntry: _MEMBER_REFERENCES,
    InterfaceMethodRefEntry: _MEMBER_REFERENCES,
    NameAndTypeEntry: (attrgetter("name_index", "descriptor_index"), True),
}


def extend_closure(
    pool: ConstantPool, roots: Iterable[int], closed: Set[int]
) -> int:
    """Extend ``closed`` with every entry ``roots`` reach through new ones.

    Follows references from ``roots`` and stops at any entry already in
    ``closed``.  When ``closed`` is closed under references (empty, or
    a union of closures), the entries added are exactly the closure of
    ``roots`` minus ``closed``, and the result stays closed.

    Returns:
        The serialized bytes of the entries added, as the pool recorded
        them (:attr:`~repro.classfile.ConstantPool.entry_sizes`).

    Raises:
        ConstantPoolError: If a reference is out of range.
    """
    added = 0
    get = pool.get
    sizes = pool.entry_sizes
    references_of = _REFERENCES.get
    frontier = list(roots)
    while frontier:
        index = frontier.pop()
        if index in closed:
            continue
        entry = get(index)
        closed.add(index)
        added += sizes[index - 1]
        references = references_of(type(entry))
        if references is not None:
            read, pair = references
            if pair:
                frontier.extend(read(entry))
            else:
                frontier.append(read(entry))
    return added


def reference_closure(pool: ConstantPool, roots: Set[int]) -> Set[int]:
    """Transitively close a set of constant pool indices."""
    closed: Set[int] = set()
    extend_closure(pool, roots, closed)
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


def _method_roots(
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
    return roots


def pool_roots_by_method(classfile: ClassFile) -> List[Set[int]]:
    """Every method's directly referenced pool indices, in file order.

    The roots whose closure is :func:`method_pool_references`.  One
    pass over the pool's MethodRefs serves every method, so the roots
    of a whole class cost O(pool + code), not O(pool × methods).
    """
    own_refs = _own_method_refs(classfile)
    return [
        _method_roots(classfile, method, own_refs)
        for method in classfile.methods
    ]


def method_pool_references(
    classfile: ClassFile, method: MethodInfo
) -> Set[int]:
    """All pool indices method execution and verification touch."""
    return reference_closure(
        classfile.constant_pool,
        _method_roots(classfile, method, _own_method_refs(classfile)),
    )


def pool_references_by_method(classfile: ClassFile) -> List[Set[int]]:
    """:func:`method_pool_references` of every method, in file order."""
    pool = classfile.constant_pool
    return [
        reference_closure(pool, roots)
        for roots in pool_roots_by_method(classfile)
    ]


def setup_pool_references(classfile: ClassFile) -> Set[int]:
    """Pool indices needed before any method runs (verification steps
    1–2 and preparation, §3.1)."""
    return reference_closure(
        classfile.constant_pool, setup_pool_roots(classfile)
    )


def setup_pool_roots(classfile: ClassFile) -> Set[int]:
    """The roots whose closure is :func:`setup_pool_references`."""
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
    return roots
