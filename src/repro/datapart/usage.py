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
:func:`extend_closure`, does every closing: it follows the references
the pool recorded as entries arrived
(:attr:`~repro.classfile.ConstantPool.reference_targets`) from a set
of roots and stops at entries already in the set it extends, so GMD
attribution (:mod:`repro.datapart.gmd`) can extend one set, method by
method, and visit each entry once per class.

The roots come from one pass over the pool (:class:`ClassPoolRoots`):
it picks out the Class entries, which setup needs when they name the
class or an interface, and the MethodRefs that name the class's own
methods.  Every Class and MethodRef entry is checked as the pool's
resolvers check it, and a malformed one raises
:class:`~repro.errors.ConstantPoolError` through those resolvers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..bytecode import Opcode
from ..classfile import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    ClassEntry,
    ClassFile,
    ConstantEntry,
    ConstantPool,
    MethodInfo,
    MethodRefEntry,
    NameAndTypeEntry,
    Utf8Entry,
)

__all__ = [
    "ClassPoolRoots",
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

#: A class's own MethodRefs, by ``(name, descriptor)``.
OwnMethodRefs = Dict[Tuple[str, str], Set[int]]


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
    sizes = pool.entry_sizes
    bounds = pool.reference_bounds
    targets = pool.reference_targets
    count = len(sizes)
    frontier = list(roots)
    while frontier:
        index = frontier.pop()
        if index in closed:
            continue
        if not 0 < index <= count:
            pool.get(index)  # raises the pool's out-of-range error
        closed.add(index)
        added += sizes[index - 1]
        frontier += targets[bounds[index - 1]:bounds[index]]
    return added


def reference_closure(pool: ConstantPool, roots: Set[int]) -> Set[int]:
    """Transitively close a set of constant pool indices."""
    closed: Set[int] = set()
    extend_closure(pool, roots, closed)
    return closed


def _utf8_roots(pool: ConstantPool, values: List[str]) -> Set[int]:
    roots = set(map(pool.find_utf8, values))
    roots.discard(None)
    return roots


def _member_parts(
    entries: List[ConstantEntry], entry: MethodRefEntry
) -> Optional[Tuple[int, str, str]]:
    """``(class name index, member name, descriptor)`` of a member
    reference, or None where
    :meth:`~repro.classfile.ConstantPool.member_ref` would raise: the
    same five type checks, on the pool's entries."""
    count = len(entries)
    owner_index = entry.class_index
    name_and_type_index = entry.name_and_type_index
    if not (0 < owner_index <= count and 0 < name_and_type_index <= count):
        return None
    owner = entries[owner_index - 1]
    name_and_type = entries[name_and_type_index - 1]
    if not (
        isinstance(owner, ClassEntry)
        and isinstance(name_and_type, NameAndTypeEntry)
    ):
        return None
    owner_name = owner.name_index
    name_index = name_and_type.name_index
    descriptor_index = name_and_type.descriptor_index
    if not (
        0 < owner_name <= count
        and 0 < name_index <= count
        and 0 < descriptor_index <= count
    ):
        return None
    name = entries[name_index - 1]
    descriptor = entries[descriptor_index - 1]
    if not (
        isinstance(entries[owner_name - 1], Utf8Entry)
        and isinstance(name, Utf8Entry)
        and isinstance(descriptor, Utf8Entry)
    ):
        return None
    return owner_name, name.value, descriptor.value


class ClassPoolRoots:
    """The pool roots of a class's setup and of each of its methods.

    Building one is the one pass over the class's pool: it picks out
    the Class and MethodRef entries, by exact type.  :meth:`setup`
    then checks every Class entry, and
    :meth:`own_method_refs` (behind :meth:`by_method`) every MethodRef,
    as the pool's resolvers check them, so a malformed one raises
    :class:`~repro.errors.ConstantPoolError` through those resolvers.
    """

    __slots__ = ("classfile", "entries", "classes", "method_refs")

    def __init__(self, classfile: ClassFile) -> None:
        self.classfile = classfile
        self.entries: List[ConstantEntry] = list(classfile.constant_pool)
        self.classes: List[int] = []
        self.method_refs: List[int] = []
        classes = self.classes.append
        method_refs = self.method_refs.append
        for index, entry in enumerate(self.entries, start=1):
            kind = type(entry)
            if kind is ClassEntry:
                classes(index)
            elif kind is MethodRefEntry:
                method_refs(index)

    def setup(self) -> Set[int]:
        """The roots whose closure is :func:`setup_pool_references`.

        Raises:
            ConstantPoolError: If a Class entry's name is not a Utf8
                entry, as :meth:`~repro.classfile.ConstantPool.utf8`
                raises it.
        """
        classfile = self.classfile
        pool = classfile.constant_pool
        # Utf8 entries are interned by value, so a Class entry names
        # the class or an interface exactly when it points at that
        # name's entry.
        wanted = _utf8_roots(pool, [classfile.name, *classfile.interfaces])
        entries = self.entries
        count = len(entries)
        roots: Set[int] = set()
        for index in self.classes:
            name_index = entries[index - 1].name_index
            if not (
                0 < name_index <= count
                and isinstance(entries[name_index - 1], Utf8Entry)
            ):
                pool.utf8(name_index)  # raises the resolver's error
            if name_index in wanted:
                roots.add(index)
        this_index = pool.find_utf8(classfile.name)
        if this_index is not None:
            roots.add(this_index)
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

    def own_method_refs(self) -> OwnMethodRefs:
        """The MethodRefs whose class is this class.

        Raises:
            ConstantPoolError: If a MethodRef does not resolve, as
                :meth:`~repro.classfile.ConstantPool.member_ref` raises
                it.
        """
        pool = self.classfile.constant_pool
        owner = pool.find_utf8(self.classfile.name)
        entries = self.entries
        refs: OwnMethodRefs = {}
        for index in self.method_refs:
            parts = _member_parts(entries, entries[index - 1])
            if parts is None:
                pool.member_ref(index)  # raises the resolver's error
            owner_name, name, descriptor = parts
            if owner_name == owner:
                refs.setdefault((name, descriptor), set()).add(index)
        return refs

    def by_method(self) -> List[Set[int]]:
        """Every method's roots (:func:`pool_roots_by_method`)."""
        own_refs = self.own_method_refs()
        pool = self.classfile.constant_pool
        return [
            _method_roots(pool, method, own_refs)
            for method in self.classfile.methods
        ]


def _method_roots(
    pool: ConstantPool, method: MethodInfo, own_refs: OwnMethodRefs
) -> Set[int]:
    roots = {
        instruction.operands[0]
        for instruction in method.instructions
        if instruction.opcode in _POOL_OPERAND_OPCODES
    }
    names = [method.name, method.descriptor, CODE_ATTRIBUTE]
    if method.local_data:
        names.append(LOCAL_DATA_ATTRIBUTE)
    for attribute in method.attributes:
        names.append(attribute.name)
    roots |= _utf8_roots(pool, names)
    # The method's own MethodRef (created for intra-program calls).
    roots.update(own_refs.get((method.name, method.descriptor), ()))
    return roots


def pool_roots_by_method(classfile: ClassFile) -> List[Set[int]]:
    """Every method's directly referenced pool indices, in file order.

    The roots whose closure is :func:`method_pool_references`.  One
    pass over the pool finds the class's own MethodRefs for every
    method, so the roots of a whole class cost O(pool + code), not
    O(pool × methods).
    """
    return ClassPoolRoots(classfile).by_method()


def method_pool_references(
    classfile: ClassFile, method: MethodInfo
) -> Set[int]:
    """All pool indices method execution and verification touch."""
    pool = classfile.constant_pool
    own_refs = ClassPoolRoots(classfile).own_method_refs()
    return reference_closure(pool, _method_roots(pool, method, own_refs))


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
    return ClassPoolRoots(classfile).setup()
