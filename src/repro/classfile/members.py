"""Fields, attributes, methods, and descriptors.

Terminology follows the paper: a class file holds *global data* (constant
pool, field table, interfaces, class-level attributes) and per-method
*local data plus code*.  A method together with its local data is the
non-strict *transfer unit* (paper §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..bytecode import Instruction, code_size
from ..errors import ClassFileError

__all__ = [
    "AccessFlags",
    "Attribute",
    "FieldInfo",
    "MethodInfo",
    "MethodDescriptor",
    "parse_descriptor",
    "CODE_ATTRIBUTE",
    "LOCAL_DATA_ATTRIBUTE",
]

#: Reserved attribute names (stored as Utf8 constants in the pool).
CODE_ATTRIBUTE = "Code"
LOCAL_DATA_ATTRIBUTE = "LocalData"

#: Every attribute's header: u2 name_index and u4 length.
_ATTRIBUTE_HEADER = 6
#: Code attribute bytes besides the code: the attribute header,
#: u2 max_stack, u2 max_locals and u4 code_length.
_CODE_ATTRIBUTE_HEADER = _ATTRIBUTE_HEADER + 2 + 2 + 4


class AccessFlags:
    """Access flag bits (the subset this model uses)."""

    PUBLIC = 0x0001
    PRIVATE = 0x0002
    STATIC = 0x0008
    FINAL = 0x0010
    NATIVE = 0x0100
    ABSTRACT = 0x0400


@dataclass(frozen=True)
class Attribute:
    """A generic attribute: a named opaque byte payload.

    Serialized as ``u2 name_index, u4 length, bytes`` — 6 bytes of
    header plus the payload, matching the JVM attribute_info layout.
    """

    name: str
    data: bytes = b""

    @property
    def size(self) -> int:
        return _ATTRIBUTE_HEADER + len(self.data)


@dataclass(frozen=True)
class FieldInfo:
    """A class-level (static/global) field.

    Serialized as ``u2 access_flags, u2 name_index, u2 descriptor_index,
    u2 attribute_count`` plus attributes.
    """

    name: str
    descriptor: str = "I"
    access_flags: int = AccessFlags.PUBLIC | AccessFlags.STATIC
    attributes: Tuple[Attribute, ...] = ()

    @property
    def size(self) -> int:
        return 8 + sum(attribute.size for attribute in self.attributes)


@dataclass(frozen=True)
class MethodDescriptor:
    """Parsed method descriptor: parameter types and return type.

    Types are single characters: ``I`` (int), ``A`` (array reference),
    ``V`` (void, return only).
    """

    parameters: Tuple[str, ...]
    return_type: str

    @property
    def arity(self) -> int:
        return len(self.parameters)

    @property
    def returns_value(self) -> bool:
        return self.return_type != "V"

    def __str__(self) -> str:
        return f"({''.join(self.parameters)}){self.return_type}"


_VALID_PARAMETER_TYPES = frozenset("IA")
_VALID_RETURN_TYPES = frozenset("IAV")


def parse_descriptor(descriptor: str) -> MethodDescriptor:
    """Parse ``(II)I``-style descriptors.

    Raises:
        ClassFileError: On malformed descriptors.
    """
    if not descriptor.startswith("("):
        raise ClassFileError(f"bad descriptor {descriptor!r}")
    closing = descriptor.find(")")
    if closing < 0:
        raise ClassFileError(f"bad descriptor {descriptor!r}")
    parameters = tuple(descriptor[1:closing])
    return_part = descriptor[closing + 1 :]
    if len(return_part) != 1 or return_part not in _VALID_RETURN_TYPES:
        raise ClassFileError(f"bad return type in {descriptor!r}")
    for parameter in parameters:
        if parameter not in _VALID_PARAMETER_TYPES:
            raise ClassFileError(
                f"bad parameter type {parameter!r} in {descriptor!r}"
            )
    return MethodDescriptor(parameters, return_part)


@dataclass
class MethodInfo:
    """A method: code, stack/locals limits, and optional local data.

    Serialized as ``u2 access_flags, u2 name_index, u2 descriptor_index,
    u2 attribute_count`` plus a Code attribute
    (``u2 max_stack, u2 max_locals, u4 code_length, code``), an optional
    LocalData attribute (opaque payload modelling method-local data), and
    any extra attributes.
    """

    name: str
    descriptor: str = "()V"
    instructions: List[Instruction] = field(default_factory=list)
    max_stack: int = 16
    max_locals: int = 8
    local_data: bytes = b""
    access_flags: int = AccessFlags.PUBLIC | AccessFlags.STATIC
    attributes: Tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        # Validates eagerly so malformed methods fail at build time.
        self.parsed_descriptor  # noqa: B018 - executed for the check

    @property
    def parsed_descriptor(self) -> MethodDescriptor:
        return parse_descriptor(self.descriptor)

    @property
    def code_bytes(self) -> int:
        """Encoded size of the instruction stream."""
        return code_size(self.instructions)

    @property
    def code_attribute_size(self) -> int:
        """Size of the Code attribute: 6-byte header + stack/locals/len."""
        return _CODE_ATTRIBUTE_HEADER + self.code_bytes

    @property
    def local_data_attribute_size(self) -> int:
        """Size of the LocalData attribute, 0 when there is no payload."""
        if not self.local_data:
            return 0
        return _ATTRIBUTE_HEADER + len(self.local_data)

    @property
    def size(self) -> int:
        """Total serialized size of this method_info structure.

        This is the paper's per-method transfer unit size, *excluding*
        the non-strict method delimiter (see
        :mod:`repro.classfile.layout`).
        """
        return self.local_bytes + self.framing_bytes

    @property
    def local_bytes(self) -> int:
        """Paper Table 9 'local data': code plus method-local payload."""
        return self.code_bytes + len(self.local_data)

    @property
    def framing_bytes(self) -> int:
        """Bytes of this method_info outside its code and local data.

        The 8-byte member header, the Code and LocalData attribute
        headers and any extra attributes: ``size - local_bytes``,
        computed without encoding or summing the code.
        """
        framing = 8 + _CODE_ATTRIBUTE_HEADER
        if self.local_data:
            framing += _ATTRIBUTE_HEADER
        for attribute in self.attributes:
            framing += attribute.size
        return framing

    def replace_instructions(
        self, instructions: List[Instruction]
    ) -> "MethodInfo":
        """A copy of this method with different code."""
        return MethodInfo(
            name=self.name,
            descriptor=self.descriptor,
            instructions=list(instructions),
            max_stack=self.max_stack,
            max_locals=self.max_locals,
            local_data=self.local_data,
            access_flags=self.access_flags,
            attributes=self.attributes,
        )
