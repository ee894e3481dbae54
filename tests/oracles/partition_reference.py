"""GMD partitioning as it was before the pool recorded references.

``reference_partition_class`` is ``partition_class`` when it scanned
the pool twice, once for the setup Class entries
(``reference_setup_pool_roots``) and once for the class's own
MethodRefs (``reference_own_method_refs``, resolving every MethodRef
through :meth:`ConstantPool.member_ref`), and when
``reference_extend_closure`` fetched every entry it visited with
:meth:`ConstantPool.get` and read its references through a reader
keyed by the entry's type.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Set, Tuple

from repro.bytecode import Opcode
from repro.classfile import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    ClassEntry,
    ClassFile,
    ClassLayout,
    ConstantPool,
    FieldRefEntry,
    InterfaceMethodRefEntry,
    MethodInfo,
    MethodRefEntry,
    NameAndTypeEntry,
    StringEntry,
)
from repro.datapart import DataPartition
from repro.errors import ClassFileError

_POOL_OPERAND_OPCODES = frozenset(
    {Opcode.LDC, Opcode.CALL, Opcode.GETSTATIC, Opcode.PUTSTATIC}
)

_MEMBER_REFERENCES = (attrgetter("class_index", "name_and_type_index"), True)
_REFERENCES = {
    ClassEntry: (attrgetter("name_index"), False),
    StringEntry: (attrgetter("utf8_index"), False),
    FieldRefEntry: _MEMBER_REFERENCES,
    MethodRefEntry: _MEMBER_REFERENCES,
    InterfaceMethodRefEntry: _MEMBER_REFERENCES,
    NameAndTypeEntry: (attrgetter("name_index", "descriptor_index"), True),
}


def reference_extend_closure(
    pool: ConstantPool, roots: Iterable[int], closed: Set[int]
) -> int:
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


def _utf8_roots(pool: ConstantPool, values: List[str]) -> Set[int]:
    roots: Set[int] = set()
    for value in values:
        index = pool.find_utf8(value)
        if index is not None:
            roots.add(index)
    return roots


def reference_own_method_refs(
    classfile: ClassFile,
) -> Dict[Tuple[str, str], Set[int]]:
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
    roots |= own_refs.get((method.name, method.descriptor), set())
    return roots


def reference_pool_roots_by_method(classfile: ClassFile) -> List[Set[int]]:
    own_refs = reference_own_method_refs(classfile)
    return [
        _method_roots(classfile, method, own_refs)
        for method in classfile.methods
    ]


def reference_setup_pool_roots(classfile: ClassFile) -> Set[int]:
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


def reference_partition_class(
    classfile: ClassFile, layout: ClassLayout
) -> DataPartition:
    if layout.class_name != classfile.name:
        raise ClassFileError(
            f"layout of {layout.class_name!r} passed for {classfile.name!r}"
        )
    pool = classfile.constant_pool
    assigned: Set[int] = set()
    setup_pool_bytes = reference_extend_closure(
        pool, reference_setup_pool_roots(classfile), assigned
    )
    gmd_sizes = tuple(
        (method.name, reference_extend_closure(pool, roots, assigned))
        for method, roots in zip(
            classfile.methods, reference_pool_roots_by_method(classfile)
        )
    )
    unused_bytes = sum(
        size
        for index, size in enumerate(pool.entry_sizes, start=1)
        if index not in assigned
    )
    non_pool_global = layout.global_size - (pool.size - 2)
    first_bytes = setup_pool_bytes + non_pool_global
    partition = DataPartition(
        class_name=classfile.name,
        first_bytes=first_bytes,
        setup_pool_bytes=setup_pool_bytes,
        gmd_sizes=gmd_sizes,
        unused_bytes=unused_bytes,
    )
    if partition.total_global_bytes != layout.global_size:
        raise ClassFileError(
            f"{classfile.name}: partition accounts for "
            f"{partition.total_global_bytes} global bytes, layout has "
            f"{layout.global_size}"
        )
    return partition
