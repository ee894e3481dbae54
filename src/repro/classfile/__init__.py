"""Java-like class file model: constant pool, members, wire format.

The class file is the paper's unit of strict transfer; its byte layout
(global data vs. per-method units, computed by
:mod:`repro.classfile.layout`) is the raw material of every experiment.
"""

from .classfile import MAGIC, VERSION, ClassFile, ClassFileBuilder
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
from .layout import (
    METHOD_DELIMITER_SIZE,
    ClassLayout,
    GlobalDataBreakdown,
    class_layout,
    global_data_breakdown,
)
from .members import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    AccessFlags,
    Attribute,
    FieldInfo,
    MethodDescriptor,
    MethodInfo,
    parse_descriptor,
)
from .serializer import deserialize, intern_names, serialize

__all__ = [
    "MAGIC",
    "VERSION",
    "ClassFile",
    "ClassFileBuilder",
    "ClassEntry",
    "ConstantEntry",
    "ConstantPool",
    "ConstantTag",
    "DoubleEntry",
    "FieldRefEntry",
    "FloatEntry",
    "IntegerEntry",
    "InterfaceMethodRefEntry",
    "LongEntry",
    "MethodRefEntry",
    "NameAndTypeEntry",
    "StringEntry",
    "Utf8Entry",
    "METHOD_DELIMITER_SIZE",
    "ClassLayout",
    "GlobalDataBreakdown",
    "class_layout",
    "global_data_breakdown",
    "CODE_ATTRIBUTE",
    "LOCAL_DATA_ATTRIBUTE",
    "AccessFlags",
    "Attribute",
    "FieldInfo",
    "MethodDescriptor",
    "MethodInfo",
    "parse_descriptor",
    "deserialize",
    "intern_names",
    "serialize",
]
