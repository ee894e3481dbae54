"""Binary serialization of class files.

The wire image is what the transfer experiments measure, so the
serializer is byte-exact: ``len(serialize(cf))`` equals the sizes
reported by :mod:`repro.classfile.layout`, and
``deserialize(serialize(cf))`` round-trips every field the model keeps.
"""

from __future__ import annotations

import struct
from typing import List

from ..bytecode import decode as decode_code
from ..bytecode import encode as encode_code
from ..errors import BytecodeError, ClassFileError, ConstantPoolError
from .classfile import MAGIC, VERSION, ClassFile
from .constant_pool import (
    ClassEntry,
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


class _Writer:
    def __init__(self) -> None:
        self._parts = bytearray()

    def u1(self, value: int) -> None:
        self._parts += _U1.pack(value)

    def u2(self, value: int) -> None:
        self._parts += _U2.pack(value)

    def u4(self, value: int) -> None:
        self._parts += _U4.pack(value)

    def raw(self, data: bytes) -> None:
        self._parts += data

    def getvalue(self) -> bytes:
        return bytes(self._parts)


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


def _write_pool(writer: _Writer, pool: ConstantPool) -> None:
    writer.u2(len(pool) + 1)
    for entry in pool:
        writer.u1(int(entry.tag))
        if isinstance(entry, Utf8Entry):
            encoded = entry.encoded
            writer.u2(len(encoded))
            writer.raw(encoded)
        elif isinstance(entry, IntegerEntry):
            writer.raw(_I4.pack(entry.value))
        elif isinstance(entry, FloatEntry):
            writer.raw(_F4.pack(entry.value))
        elif isinstance(entry, LongEntry):
            writer.raw(_I8.pack(entry.value))
        elif isinstance(entry, DoubleEntry):
            writer.raw(_F8.pack(entry.value))
        elif isinstance(entry, ClassEntry):
            writer.u2(entry.name_index)
        elif isinstance(entry, StringEntry):
            writer.u2(entry.utf8_index)
        elif isinstance(
            entry, (FieldRefEntry, MethodRefEntry, InterfaceMethodRefEntry)
        ):
            writer.u2(entry.class_index)
            writer.u2(entry.name_and_type_index)
        elif isinstance(entry, NameAndTypeEntry):
            writer.u2(entry.name_index)
            writer.u2(entry.descriptor_index)
        else:  # pragma: no cover - the tag table is closed
            raise ConstantPoolError(f"cannot serialize {entry!r}")


def _read_pool(reader: _Reader) -> ConstantPool:
    count = reader.u2()
    pool = ConstantPool()
    for _ in range(count - 1):
        tag_byte = reader.u1()
        try:
            tag = ConstantTag(tag_byte)
        except ValueError as exc:
            raise ClassFileError(
                f"unknown constant pool tag {tag_byte}"
            ) from exc
        if tag is ConstantTag.UTF8:
            length = reader.u2()
            try:
                value = reader.raw(length).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ClassFileError(
                    "malformed UTF-8 in constant pool"
                ) from exc
            pool.add(Utf8Entry(value))
        elif tag is ConstantTag.INTEGER:
            pool.add(IntegerEntry(reader.i4()))
        elif tag is ConstantTag.FLOAT:
            pool.add(FloatEntry(reader.f4()))
        elif tag is ConstantTag.LONG:
            pool.add(LongEntry(reader.i8()))
        elif tag is ConstantTag.DOUBLE:
            pool.add(DoubleEntry(reader.f8()))
        elif tag is ConstantTag.CLASS:
            pool.add(ClassEntry(reader.u2()))
        elif tag is ConstantTag.STRING:
            pool.add(StringEntry(reader.u2()))
        elif tag is ConstantTag.FIELD_REF:
            pool.add(FieldRefEntry(reader.u2(), reader.u2()))
        elif tag is ConstantTag.METHOD_REF:
            pool.add(MethodRefEntry(reader.u2(), reader.u2()))
        elif tag is ConstantTag.INTERFACE_METHOD_REF:
            pool.add(InterfaceMethodRefEntry(reader.u2(), reader.u2()))
        elif tag is ConstantTag.NAME_AND_TYPE:
            pool.add(NameAndTypeEntry(reader.u2(), reader.u2()))
        else:  # pragma: no cover - ConstantTag() already raised
            raise ConstantPoolError(f"unknown tag {tag}")
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
    for field_info in classfile.fields:
        pool.add_utf8(field_info.name)
        pool.add_utf8(field_info.descriptor)
        for attribute in field_info.attributes:
            pool.add_utf8(attribute.name)
    for method in classfile.methods:
        pool.add_utf8(method.name)
        pool.add_utf8(method.descriptor)
        pool.add_utf8(CODE_ATTRIBUTE)
        if method.local_data:
            pool.add_utf8(LOCAL_DATA_ATTRIBUTE)
        for attribute in method.attributes:
            pool.add_utf8(attribute.name)
    for attribute in classfile.attributes:
        pool.add_utf8(attribute.name)


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
    writer: _Writer, pool: ConstantPool, attribute: Attribute
) -> None:
    writer.u2(_utf8_index(pool, attribute.name))
    writer.u4(len(attribute.data))
    writer.raw(attribute.data)


def _read_attribute(reader: _Reader, pool: ConstantPool) -> Attribute:
    name = pool.utf8(reader.u2())
    length = reader.u4()
    return Attribute(name, reader.raw(length))


def _write_field(
    writer: _Writer, pool: ConstantPool, field_info: FieldInfo
) -> None:
    writer.u2(field_info.access_flags)
    writer.u2(_utf8_index(pool, field_info.name))
    writer.u2(_utf8_index(pool, field_info.descriptor))
    writer.u2(len(field_info.attributes))
    for attribute in field_info.attributes:
        _write_attribute(writer, pool, attribute)


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
    writer: _Writer, pool: ConstantPool, method: MethodInfo
) -> None:
    writer.u2(method.access_flags)
    writer.u2(_utf8_index(pool, method.name))
    writer.u2(_utf8_index(pool, method.descriptor))
    count = 1 + (1 if method.local_data else 0) + len(method.attributes)
    writer.u2(count)
    # Code attribute.
    code = encode_code(method.instructions)
    writer.u2(_utf8_index(pool, CODE_ATTRIBUTE))
    writer.u4(2 + 2 + 4 + len(code))
    writer.u2(method.max_stack)
    writer.u2(method.max_locals)
    writer.u4(len(code))
    writer.raw(code)
    # LocalData attribute.
    if method.local_data:
        writer.u2(_utf8_index(pool, LOCAL_DATA_ATTRIBUTE))
        writer.u4(len(method.local_data))
        writer.raw(method.local_data)
    for attribute in method.attributes:
        _write_attribute(writer, pool, attribute)


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

    writer = _Writer()
    writer.u4(MAGIC)
    writer.u2(VERSION[0])
    writer.u2(VERSION[1])
    _write_pool(writer, pool)
    writer.u2(classfile.access_flags)
    writer.u2(this_class)
    writer.u2(len(interface_indexes))
    for index in interface_indexes:
        writer.u2(index)
    writer.u2(len(classfile.fields))
    for field_info in classfile.fields:
        _write_field(writer, pool, field_info)
    writer.u2(len(classfile.methods))
    for method in classfile.methods:
        _write_method(writer, pool, method)
    writer.u2(len(classfile.attributes))
    for attribute in classfile.attributes:
        _write_attribute(writer, pool, attribute)
    return writer.getvalue()


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
