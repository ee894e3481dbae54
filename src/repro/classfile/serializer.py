"""Binary serialization of class files.

The wire image is what the transfer experiments measure, so the
serializer is byte-exact: ``len(serialize(cf))`` equals the sizes
reported by :mod:`repro.classfile.layout`, and
``deserialize(serialize(cf))`` round-trips every field the model keeps.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import List

from ..bytecode import decode as decode_code
from ..bytecode import encode as encode_code
from ..errors import BytecodeError, ClassFileError, ConstantPoolError
from .classfile import MAGIC, VERSION, ClassFile
from .constant_pool import (
    ClassEntry,
    ConstantEntry,
    ConstantPool,
    ConstantTag,
    DoubleEntry,
    FieldRefEntry,
    FloatEntry,
    IntegerEntry,
    InterfaceMethodRefEntry,
    LongEntry,
    MethodRefEntry,
    NameAndTypeEntry,
    StringEntry,
    Utf8Entry,
)
from .members import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    Attribute,
    FieldInfo,
    MethodInfo,
)

__all__ = ["intern_names", "serialize", "deserialize"]

_U1 = struct.Struct(">B")
_U2 = struct.Struct(">H")
_U4 = struct.Struct(">I")
_I4 = struct.Struct(">i")
_I8 = struct.Struct(">q")
_F4 = struct.Struct(">f")
_F8 = struct.Struct(">d")

# Writers pack each fixed-layout record with one precompiled struct.
_FILE_HEADER = struct.Struct(">IHH")  # magic, minor, major
_CLASS_HEADER = struct.Struct(">HHH")  # access, this_class, interfaces
_FIELD_HEADER = struct.Struct(">HHHH")  # access, name, descriptor, attrs
_ATTRIBUTE_HEADER = struct.Struct(">HI")  # name, length
#: A method_info header through its Code attribute's code_length:
#: access, name, descriptor, attribute count, then the Code attribute's
#: name, length, max_stack, max_locals and code_length.
_METHOD_HEADER = struct.Struct(">HHHHHIHHI")
_UTF8_HEADER = struct.Struct(">BH")  # tag, payload length


def _entry_packer(fmt: str, *fields: str):
    # The getter reads the tag too, so it always returns a tuple.
    return struct.Struct(">B" + fmt).pack, attrgetter("tag", *fields)


_MEMBER_REF_PACKER = _entry_packer("HH", "class_index", "name_and_type_index")
#: Per non-Utf8 entry type: the pack of its tag and fields, and the
#: reader of those values in wire order.
_ENTRY_PACKERS = {
    IntegerEntry: _entry_packer("i", "value"),
    FloatEntry: _entry_packer("f", "value"),
    LongEntry: _entry_packer("q", "value"),
    DoubleEntry: _entry_packer("d", "value"),
    ClassEntry: _entry_packer("H", "name_index"),
    StringEntry: _entry_packer("H", "utf8_index"),
    FieldRefEntry: _MEMBER_REF_PACKER,
    MethodRefEntry: _MEMBER_REF_PACKER,
    InterfaceMethodRefEntry: _MEMBER_REF_PACKER,
    NameAndTypeEntry: _entry_packer("HH", "name_index", "descriptor_index"),
}


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, packer: struct.Struct):
        end = self._offset + packer.size
        if end > len(self._data):
            raise ClassFileError(
                f"truncated class file at offset {self._offset}"
            )
        value = packer.unpack_from(self._data, self._offset)[0]
        self._offset = end
        return value

    def u1(self) -> int:
        return self._take(_U1)

    def u2(self) -> int:
        return self._take(_U2)

    def u4(self) -> int:
        return self._take(_U4)

    def i4(self) -> int:
        return self._take(_I4)

    def i8(self) -> int:
        return self._take(_I8)

    def f4(self) -> float:
        return self._take(_F4)

    def f8(self) -> float:
        return self._take(_F8)

    def raw(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise ClassFileError(
                f"truncated class file at offset {self._offset}"
            )
        data = self._data[self._offset : end]
        self._offset = end
        return data

    @property
    def exhausted(self) -> bool:
        return self._offset == len(self._data)


def _write_pool(out: bytearray, pool: ConstantPool) -> None:
    out += _U2.pack(len(pool) + 1)
    for entry in pool:
        if isinstance(entry, Utf8Entry):
            encoded = entry.encoded
            out += _UTF8_HEADER.pack(ConstantTag.UTF8, len(encoded))
            out += encoded
            continue
        packer = _ENTRY_PACKERS.get(type(entry))
        if packer is None:  # pragma: no cover - the tag table is closed
            raise ConstantPoolError(f"cannot serialize {entry!r}")
        pack, values = packer
        out += pack(*values(entry))


def _read_entry(reader: _Reader) -> ConstantEntry:
    tag_byte = reader.u1()
    try:
        tag = ConstantTag(tag_byte)
    except ValueError as exc:
        raise ClassFileError(f"unknown constant pool tag {tag_byte}") from exc
    if tag is ConstantTag.UTF8:
        length = reader.u2()
        try:
            value = reader.raw(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ClassFileError("malformed UTF-8 in constant pool") from exc
        return Utf8Entry(value)
    if tag is ConstantTag.INTEGER:
        return IntegerEntry(reader.i4())
    if tag is ConstantTag.FLOAT:
        return FloatEntry(reader.f4())
    if tag is ConstantTag.LONG:
        return LongEntry(reader.i8())
    if tag is ConstantTag.DOUBLE:
        return DoubleEntry(reader.f8())
    if tag is ConstantTag.CLASS:
        return ClassEntry(reader.u2())
    if tag is ConstantTag.STRING:
        return StringEntry(reader.u2())
    if tag is ConstantTag.FIELD_REF:
        return FieldRefEntry(reader.u2(), reader.u2())
    if tag is ConstantTag.METHOD_REF:
        return MethodRefEntry(reader.u2(), reader.u2())
    if tag is ConstantTag.INTERFACE_METHOD_REF:
        return InterfaceMethodRefEntry(reader.u2(), reader.u2())
    if tag is ConstantTag.NAME_AND_TYPE:
        return NameAndTypeEntry(reader.u2(), reader.u2())
    raise ConstantPoolError(f"unknown tag {tag}")  # pragma: no cover


def _read_pool(reader: _Reader) -> ConstantPool:
    """Read the pool, entry by entry, into a fresh interning pool.

    Raises:
        ClassFileError: If an entry repeats an earlier one.  The pool
            interns, so a repeat would take no index of its own and
            every later index in the image would name the wrong entry.
    """
    count = reader.u2()
    pool = ConstantPool()
    for expected in range(1, count):
        index = pool.add(_read_entry(reader))
        if index != expected:
            raise ClassFileError(
                f"constant pool entry {expected} repeats entry {index}"
            )
    return pool


def intern_names(classfile: ClassFile) -> None:
    """Intern every name the wire image refers to into the class's pool.

    The builder interns all names; hand-built class files may not have
    done so.  :func:`serialize` and the layout functions of
    :mod:`repro.classfile.layout` run this pass first, so the pool is
    complete, and its size final, before they read it.  A second call
    adds nothing.
    """
    pool = classfile.constant_pool
    pool.add_class(classfile.name)
    for name in classfile.interfaces:
        pool.add_class(name)
    names: List[str] = []
    for field_info in classfile.fields:
        names.append(field_info.name)
        names.append(field_info.descriptor)
        for attribute in field_info.attributes:
            names.append(attribute.name)
    for method in classfile.methods:
        names.append(method.name)
        names.append(method.descriptor)
        names.append(CODE_ATTRIBUTE)
        if method.local_data:
            names.append(LOCAL_DATA_ATTRIBUTE)
        for attribute in method.attributes:
            names.append(attribute.name)
    for attribute in classfile.attributes:
        names.append(attribute.name)
    pool.intern_utf8(names)


def _utf8_index(pool: ConstantPool, value: str) -> int:
    index = pool.find_utf8(value)
    if index is None:
        raise ClassFileError(f"name {value!r} is not in the constant pool")
    return index


def _class_index(pool: ConstantPool, name: str) -> int:
    index = pool.find(ClassEntry(_utf8_index(pool, name)))
    if index is None:
        raise ClassFileError(f"class {name!r} is not in the constant pool")
    return index


def _write_attribute(
    out: bytearray, pool: ConstantPool, attribute: Attribute
) -> None:
    data = attribute.data
    out += _ATTRIBUTE_HEADER.pack(_utf8_index(pool, attribute.name), len(data))
    out += data


def _read_attribute(reader: _Reader, pool: ConstantPool) -> Attribute:
    name = pool.utf8(reader.u2())
    length = reader.u4()
    return Attribute(name, reader.raw(length))


def _write_field(
    out: bytearray, pool: ConstantPool, field_info: FieldInfo
) -> None:
    out += _FIELD_HEADER.pack(
        field_info.access_flags,
        _utf8_index(pool, field_info.name),
        _utf8_index(pool, field_info.descriptor),
        len(field_info.attributes),
    )
    for attribute in field_info.attributes:
        _write_attribute(out, pool, attribute)


def _read_field(reader: _Reader, pool: ConstantPool) -> FieldInfo:
    access_flags = reader.u2()
    name = pool.utf8(reader.u2())
    descriptor = pool.utf8(reader.u2())
    count = reader.u2()
    attributes = tuple(_read_attribute(reader, pool) for _ in range(count))
    return FieldInfo(
        name=name,
        descriptor=descriptor,
        access_flags=access_flags,
        attributes=attributes,
    )


def _write_method(
    out: bytearray, pool: ConstantPool, code_index: int, method: MethodInfo
) -> None:
    code = encode_code(method.instructions)
    local_data = method.local_data
    out += _METHOD_HEADER.pack(
        method.access_flags,
        _utf8_index(pool, method.name),
        _utf8_index(pool, method.descriptor),
        1 + (1 if local_data else 0) + len(method.attributes),
        code_index,
        2 + 2 + 4 + len(code),
        method.max_stack,
        method.max_locals,
        len(code),
    )
    out += code
    if local_data:
        out += _ATTRIBUTE_HEADER.pack(
            _utf8_index(pool, LOCAL_DATA_ATTRIBUTE), len(local_data)
        )
        out += local_data
    for attribute in method.attributes:
        _write_attribute(out, pool, attribute)


def _read_method(reader: _Reader, pool: ConstantPool) -> MethodInfo:
    access_flags = reader.u2()
    name = pool.utf8(reader.u2())
    descriptor = pool.utf8(reader.u2())
    count = reader.u2()
    instructions = None
    max_stack = max_locals = 0
    local_data = b""
    extras: List[Attribute] = []
    for _ in range(count):
        attr_name = pool.utf8(reader.u2())
        length = reader.u4()
        if attr_name == CODE_ATTRIBUTE:
            max_stack = reader.u2()
            max_locals = reader.u2()
            code_length = reader.u4()
            if code_length + 8 != length:
                raise ClassFileError(
                    f"inconsistent Code attribute in {name!r}"
                )
            try:
                instructions = decode_code(reader.raw(code_length))
            except BytecodeError as exc:
                raise ClassFileError(
                    f"malformed bytecode in method {name!r}: {exc}"
                ) from exc
        elif attr_name == LOCAL_DATA_ATTRIBUTE:
            local_data = reader.raw(length)
        else:
            extras.append(Attribute(attr_name, reader.raw(length)))
    if instructions is None:
        raise ClassFileError(f"method {name!r} has no Code attribute")
    return MethodInfo(
        name=name,
        descriptor=descriptor,
        instructions=instructions,
        max_stack=max_stack,
        max_locals=max_locals,
        local_data=local_data,
        access_flags=access_flags,
        attributes=tuple(extras),
    )


def serialize(classfile: ClassFile) -> bytes:
    """Serialize a class file to its binary wire image.

    Interns any missing names first (:func:`intern_names`); the writers
    below only look names up.
    """
    intern_names(classfile)
    pool = classfile.constant_pool
    this_class = _class_index(pool, classfile.name)
    interface_indexes = [
        _class_index(pool, name) for name in classfile.interfaces
    ]

    out = bytearray(_FILE_HEADER.pack(MAGIC, *VERSION))
    _write_pool(out, pool)
    out += _CLASS_HEADER.pack(
        classfile.access_flags, this_class, len(interface_indexes)
    )
    for index in interface_indexes:
        out += _U2.pack(index)
    out += _U2.pack(len(classfile.fields))
    for field_info in classfile.fields:
        _write_field(out, pool, field_info)
    out += _U2.pack(len(classfile.methods))
    if classfile.methods:
        code_index = _utf8_index(pool, CODE_ATTRIBUTE)
        for method in classfile.methods:
            _write_method(out, pool, code_index, method)
    out += _U2.pack(len(classfile.attributes))
    for attribute in classfile.attributes:
        _write_attribute(out, pool, attribute)
    return bytes(out)


def deserialize(data: bytes) -> ClassFile:
    """Parse a binary wire image back into a :class:`ClassFile`.

    Raises:
        ClassFileError: On bad magic, unsupported version, truncation,
            or trailing bytes.
    """
    reader = _Reader(data)
    magic = reader.u4()
    if magic != MAGIC:
        raise ClassFileError(f"bad magic 0x{magic:08x}")
    # Everything below raises ClassFileError (or its ConstantPoolError
    # subclass) on malformed input; bytecode decode errors are wrapped
    # so corrupt images never leak foreign exception types.
    version = (reader.u2(), reader.u2())
    if version != VERSION:
        raise ClassFileError(f"unsupported version {version}")
    pool = _read_pool(reader)
    access_flags = reader.u2()
    name = pool.class_name(reader.u2())
    interfaces = tuple(
        pool.class_name(reader.u2()) for _ in range(reader.u2())
    )
    fields = tuple(_read_field(reader, pool) for _ in range(reader.u2()))
    methods = [_read_method(reader, pool) for _ in range(reader.u2())]
    attributes = tuple(
        _read_attribute(reader, pool) for _ in range(reader.u2())
    )
    if not reader.exhausted:
        raise ClassFileError("trailing bytes after class file")
    return ClassFile(
        name=name,
        constant_pool=pool,
        access_flags=access_flags,
        interfaces=interfaces,
        fields=fields,
        methods=methods,
        attributes=attributes,
    )
