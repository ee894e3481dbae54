"""Wire-format round-trips and byte-exactness, with property coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import Instruction, Opcode
from repro.classfile import (
    ClassFileBuilder,
    deserialize,
    serialize,
)
from repro.errors import ClassFileError
from repro.harness import bundle

_NAMES = st.text(
    alphabet=st.sampled_from("abcdefgXYZ_/$09"), min_size=1, max_size=12
)


def sample_class():
    builder = ClassFileBuilder("app/Sample")
    builder.add_interface("app/Iface")
    builder.add_field("count", initial_value=3)
    builder.add_field("flag")
    builder.add_string_constant("hello world")
    builder.add_method(
        "main",
        "()V",
        [
            Instruction(Opcode.ICONST, (2,)),
            Instruction(Opcode.STORE, (0,)),
            Instruction(Opcode.RETURN),
        ],
    )
    builder.add_method(
        "work",
        "(II)I",
        [
            Instruction(Opcode.LOAD, (0,)),
            Instruction(Opcode.LOAD, (1,)),
            Instruction(Opcode.ADD),
            Instruction(Opcode.IRETURN),
        ],
        local_data=b"\x01\x02\x03\x04",
    )
    builder.add_attribute("SourceFile", b"Sample.mini")
    return builder.build()


def test_roundtrip_preserves_structure():
    original = sample_class()
    recovered = deserialize(serialize(original))
    assert recovered.name == original.name
    assert recovered.interfaces == original.interfaces
    assert [f.name for f in recovered.fields] == ["count", "flag"]
    assert [m.name for m in recovered.methods] == ["main", "work"]
    assert (
        recovered.method("work").instructions
        == original.method("work").instructions
    )
    assert recovered.method("work").local_data == b"\x01\x02\x03\x04"
    assert recovered.attributes == original.attributes


def test_roundtrip_is_byte_stable():
    original = sample_class()
    image = serialize(original)
    assert serialize(deserialize(image)) == image


def test_serialize_twice_is_stable():
    original = sample_class()
    assert serialize(original) == serialize(original)


def test_method_order_is_preserved_on_the_wire():
    original = sample_class()
    reordered = original.reordered(["work", "main"])
    recovered = deserialize(serialize(reordered))
    assert [m.name for m in recovered.methods] == ["work", "main"]


def test_bad_magic_rejected():
    image = bytearray(serialize(sample_class()))
    image[0] ^= 0xFF
    with pytest.raises(ClassFileError):
        deserialize(bytes(image))


def test_bad_version_rejected():
    image = bytearray(serialize(sample_class()))
    image[6] = 0x7F
    with pytest.raises(ClassFileError):
        deserialize(bytes(image))


def test_truncated_image_rejected():
    image = serialize(sample_class())
    with pytest.raises(ClassFileError):
        deserialize(image[:-1])


def test_trailing_bytes_rejected():
    image = serialize(sample_class())
    with pytest.raises(ClassFileError):
        deserialize(image + b"\x00")


def image_repeating(repeated, position):
    """``sample_class``'s image with pool entry ``repeated`` copied in
    as entry ``position``; the entries from there on move up one."""
    classfile = sample_class()
    image = serialize(classfile)
    pool = classfile.constant_pool
    assert 1 <= repeated < position <= len(pool) + 1
    # Entry i starts at starts[i - 1]; the pool follows magic, version
    # and its u2 count.
    starts = [10]
    for entry in pool:
        starts.append(starts[-1] + entry.size)
    copy = image[starts[repeated - 1] : starts[repeated]]
    cut = starts[position - 1]
    count = (len(pool) + 2).to_bytes(2, "big")
    return image[:8] + count + image[10:cut] + copy + image[cut:]


@pytest.mark.parametrize(
    "repeated, position",
    [(1, 27), (2, 14)],
    ids=["utf8-at-end", "class-in-middle"],
)
def test_repeated_pool_entry_rejected(repeated, position):
    """The pool interns, so a repeat would take no index of its own and
    every later index would name the wrong entry."""
    image = image_repeating(repeated, position)
    with pytest.raises(
        ClassFileError,
        match=f"constant pool entry {position} repeats entry {repeated}$",
    ):
        deserialize(image)


def test_serializing_reads_no_opcode_metadata(monkeypatch):
    """Each instruction is packed by its opcode's struct: writing every
    Jess class reads no instruction's ``info``."""
    classes = bundle("Jess").workload.program.classes
    reads = []
    info = Instruction.info

    def counting_info(instruction):
        reads.append(instruction.opcode)
        return info.fget(instruction)

    monkeypatch.setattr(Instruction, "info", property(counting_info))
    for classfile in classes:
        serialize(classfile)
    assert len(reads) == 0


@settings(max_examples=30, deadline=None)
@given(
    class_name=_NAMES,
    field_names=st.lists(_NAMES, max_size=4, unique=True),
    method_names=st.lists(_NAMES, min_size=1, max_size=5, unique=True),
    local_data=st.binary(max_size=32),
    constant=st.integers(-(2**31), 2**31 - 1),
)
def test_roundtrip_property(
    class_name, field_names, method_names, local_data, constant
):
    builder = ClassFileBuilder(class_name)
    for name in field_names:
        builder.add_field(name)
    builder.constant_pool.add_integer(constant)
    for index, name in enumerate(method_names):
        builder.add_method(
            name,
            "(I)I" if index % 2 else "()V",
            [
                Instruction(Opcode.ICONST, (index,)),
                Instruction(Opcode.POP),
                Instruction(
                    Opcode.IRETURN if index % 2 else Opcode.RETURN
                ),
            ],
            local_data=local_data if index == 0 else b"",
        )
    original = builder.build()
    image = serialize(original)
    recovered = deserialize(image)
    assert recovered.name == original.name
    assert [m.name for m in recovered.methods] == method_names
    assert serialize(recovered) == image
