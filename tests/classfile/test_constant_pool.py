"""Constant pool interning, resolution, and size accounting."""

import math
import struct

import pytest

from repro.classfile import (
    ClassFileBuilder,
    ConstantPool,
    ConstantTag,
    FloatEntry,
    IntegerEntry,
    MethodRefEntry,
    Utf8Entry,
    deserialize,
    serialize,
)
from repro.classfile.constant_pool import MAX_POOL_ENTRIES, MAX_UTF8_BYTES
from repro.errors import ConstantPoolError


def test_indices_start_at_one():
    pool = ConstantPool()
    assert pool.add_utf8("hello") == 1
    assert pool.get(1) == Utf8Entry("hello")


def test_interning_returns_same_index():
    pool = ConstantPool()
    first = pool.add_utf8("dup")
    second = pool.add_utf8("dup")
    assert first == second
    assert len(pool) == 1


def test_distinct_values_get_distinct_indices():
    pool = ConstantPool()
    assert pool.add_integer(1) != pool.add_integer(2)


def test_index_zero_is_invalid():
    pool = ConstantPool()
    pool.add_utf8("x")
    with pytest.raises(ConstantPoolError):
        pool.get(0)
    with pytest.raises(ConstantPoolError):
        pool.get(2)


def test_get_typed_checks_entry_type():
    pool = ConstantPool()
    index = pool.add_integer(7)
    with pytest.raises(ConstantPoolError):
        pool.get_typed(index, Utf8Entry)


def test_method_ref_resolution():
    pool = ConstantPool()
    index = pool.add_method_ref("pkg/Main", "run", "(I)V")
    assert pool.member_ref(index) == ("pkg/Main", "run", "(I)V")


def test_method_ref_shares_subentries():
    pool = ConstantPool()
    pool.add_method_ref("A", "f", "()V")
    before = len(pool)
    pool.add_field_ref("A", "f", "()V")
    # Class, Utf8 and NameAndType entries are all shared.
    assert len(pool) == before + 1


def test_string_constant_value():
    pool = ConstantPool()
    index = pool.add_string("greeting")
    assert pool.constant_value(index) == "greeting"


def test_numeric_constant_values():
    pool = ConstantPool()
    assert pool.constant_value(pool.add_integer(-3)) == -3
    assert pool.constant_value(pool.add_long(2**40)) == 2**40
    assert pool.constant_value(pool.add_double(1.5)) == 1.5


def test_non_loadable_constant_rejected():
    pool = ConstantPool()
    index = pool.add_class("A")
    with pytest.raises(ConstantPoolError):
        pool.constant_value(index)


def test_integer_range_validation():
    with pytest.raises(ConstantPoolError):
        IntegerEntry(2**31)


def test_entry_sizes():
    assert Utf8Entry("abc").size == 1 + 2 + 3
    assert IntegerEntry(0).size == 5
    assert MethodRefEntry(1, 2).size == 5


def test_pool_size_is_count_plus_entries():
    pool = ConstantPool()
    pool.add_utf8("ab")  # 5 bytes
    pool.add_integer(1)  # 5 bytes
    assert pool.size == 2 + 5 + 5


def test_size_by_tag():
    pool = ConstantPool()
    pool.add_utf8("abcd")  # 7 bytes of UTF8
    pool.add_string("abcd")  # +3 bytes STRING (utf8 shared)
    breakdown = pool.size_by_tag()
    assert breakdown[ConstantTag.UTF8] == 7
    assert breakdown[ConstantTag.STRING] == 3
    assert sum(breakdown.values()) + 2 == pool.size


def test_class_name_resolution():
    pool = ConstantPool()
    index = pool.add_class("pkg/Thing")
    assert pool.class_name(index) == "pkg/Thing"


def test_member_ref_requires_member_entry():
    pool = ConstantPool()
    index = pool.add_utf8("zzz")
    with pytest.raises(ConstantPoolError):
        pool.member_ref(index)


def test_find_utf8():
    pool = ConstantPool()
    index = pool.add_utf8("needle")
    assert pool.find_utf8("needle") == index
    assert pool.find_utf8("missing") is None


def test_find_utf8_sees_a_directly_added_entry():
    pool = ConstantPool()
    index = pool.add(Utf8Entry("direct"))
    assert pool.find_utf8("direct") == index
    assert pool.add_utf8("direct") == index
    assert len(pool) == 1


def test_utf8_constant_past_the_u2_length_is_a_pool_error():
    # 70,000 bytes cannot be written: the Utf8 length field is a u2.
    with pytest.raises(ConstantPoolError, match="exceeds"):
        builder = ClassFileBuilder("Big")
        builder.add_string_constant("x" * 70_000)
        serialize(builder.build())
    # Multi-byte characters count by encoded bytes, not characters.
    with pytest.raises(ConstantPoolError):
        Utf8Entry("\u00e9" * (MAX_UTF8_BYTES // 2 + 1))
    assert Utf8Entry("x" * MAX_UTF8_BYTES).size == 3 + MAX_UTF8_BYTES


def test_unencodable_utf8_constant_is_a_pool_error():
    with pytest.raises(ConstantPoolError, match="not encodable"):
        Utf8Entry("\ud800")


def test_pool_past_the_u2_count_is_a_pool_error():
    builder = ClassFileBuilder("Full")
    pool = builder.constant_pool
    value = 0
    while len(pool) < MAX_POOL_ENTRIES:
        pool.add_integer(value)
        value += 1
    # The count field stores len(pool) + 1 = 65,535, the largest u2, so
    # a full pool still round-trips.
    image = serialize(builder.build())
    assert deserialize(image).constant_pool.size == pool.size
    # Interning an existing constant still works on a full pool ...
    assert pool.add_integer(0) == pool.find(IntegerEntry(0))
    # ... but a new one is refused, and nothing changes.
    size = pool.size
    with pytest.raises(ConstantPoolError, match="full"):
        pool.add_integer(-1)
    with pytest.raises(ConstantPoolError, match="full"):
        pool.add_utf8("new")
    assert len(pool) == MAX_POOL_ENTRIES == 65_534
    assert pool.size == size
    assert pool.find_utf8("new") is None


# -- Floats and Doubles intern by the bytes the serializer writes -------


@pytest.mark.parametrize("add", ["add_float", "add_double"])
def test_signed_zeros_are_two_constants(add):
    """0.0 == -0.0, but the wire writes them apart: interning by value
    handed back the 0.0 entry for -0.0 and lost the sign."""
    pool = ConstantPool()
    positive = getattr(pool, add)(0.0)
    negative = getattr(pool, add)(-0.0)
    assert positive != negative
    assert math.copysign(1.0, pool.constant_value(positive)) == 1.0
    assert math.copysign(1.0, pool.constant_value(negative)) == -1.0
    assert getattr(pool, add)(-0.0) == negative
    assert len(pool) == 2


def test_floats_equal_in_binary32_are_one_constant():
    """Two doubles that round to one binary32 take one Float entry, so
    the image never holds the same four bytes twice."""
    builder = ClassFileBuilder("F")
    pool = builder.constant_pool
    first = pool.add_float(0.1)
    assert pool.add_float(0.1000000001) == first
    assert pool.find(FloatEntry(0.1000000001)) == first
    classfile = builder.build()
    recovered = deserialize(serialize(classfile)).constant_pool
    assert len(recovered) == len(pool)
    assert recovered.constant_value(first) == struct.unpack(
        ">f", struct.pack(">f", 0.1)
    )[0]


def test_doubles_are_not_rounded_to_binary32():
    pool = ConstantPool()
    assert pool.add_double(0.1) != pool.add_double(0.1000000001)


def test_a_float_beyond_binary32_is_a_pool_error():
    pool = ConstantPool()
    with pytest.raises(ConstantPoolError, match="4-byte wire format"):
        pool.add_float(1e39)
    assert len(pool) == 0


@pytest.mark.parametrize(
    "tag, fmt",
    [(ConstantTag.FLOAT, ">Bf"), (ConstantTag.DOUBLE, ">Bd")],
    ids=["float", "double"],
)
def test_an_image_holding_both_zeros_reads_back(tag, fmt):
    """The image is patched byte by byte, so it does not depend on how
    the pool interns: a 2.0 entry becomes -0.0 next to a 0.0 entry."""
    builder = ClassFileBuilder("Z")
    pool = builder.constant_pool
    add = pool.add_float if tag is ConstantTag.FLOAT else pool.add_double
    positive, patched = add(0.0), add(2.0)
    image = serialize(builder.build())
    two = struct.pack(fmt, tag, 2.0)
    assert image.count(two) == 1
    recovered = deserialize(
        image.replace(two, struct.pack(fmt, tag, -0.0))
    ).constant_pool
    assert len(recovered) == len(pool)
    assert math.copysign(1.0, recovered.constant_value(positive)) == 1.0
    assert math.copysign(1.0, recovered.constant_value(patched)) == -1.0
