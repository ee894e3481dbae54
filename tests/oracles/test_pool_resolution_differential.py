"""Constant pool resolution against the call chain it replaced.

``get_typed`` now checks the index itself and ``member_ref`` resolves
each of its five parts with one ``get_typed`` call.  Over drawn pools
whose references are zero, past the end or of the wrong type, every
index must resolve to the same value, or raise the same
:class:`~repro.errors.ConstantPoolError`, as through the chain in
:mod:`.pool_reference`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classfile import (
    ClassEntry,
    ConstantPool,
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
from repro.errors import ConstantPoolError

from .pool_reference import (
    reference_class_name,
    reference_constant_value,
    reference_get_typed,
    reference_member_ref,
    reference_utf8,
)

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

#: Pools hold at most 10 entries, so references reach past the end;
#: 0 is never a valid index.
_REFERENCE = st.integers(0, 12)

ENTRIES = st.one_of(
    st.builds(Utf8Entry, st.sampled_from(["a", "(I)V", "T"])),
    st.builds(IntegerEntry, st.integers(-3, 3)),
    st.builds(FloatEntry, st.sampled_from([0.0, -0.0, 1.5])),
    st.builds(LongEntry, st.integers(-3, 3)),
    st.builds(DoubleEntry, st.sampled_from([0.0, -0.0, 2.5])),
    st.builds(StringEntry, _REFERENCE),
    st.builds(ClassEntry, _REFERENCE),
    st.builds(FieldRefEntry, _REFERENCE, _REFERENCE),
    st.builds(MethodRefEntry, _REFERENCE, _REFERENCE),
    st.builds(InterfaceMethodRefEntry, _REFERENCE, _REFERENCE),
    st.builds(NameAndTypeEntry, _REFERENCE, _REFERENCE),
)

_TYPES = (
    Utf8Entry, ClassEntry, NameAndTypeEntry, MethodRefEntry, StringEntry
)


def outcome(resolve, *arguments):
    try:
        return ("value", resolve(*arguments))
    except ConstantPoolError as error:
        return ("error", str(error))


@TIER1
@given(st.lists(ENTRIES, max_size=10))
def test_resolution_matches_the_reference_chain(entries):
    pool = ConstantPool()
    for entry in entries:
        pool.add(entry)
    for index in range(-1, len(pool) + 3):
        for entry_type in _TYPES:
            assert outcome(pool.get_typed, index, entry_type) == outcome(
                reference_get_typed, pool, index, entry_type
            )
        for method, reference in (
            (pool.utf8, reference_utf8),
            (pool.class_name, reference_class_name),
            (pool.member_ref, reference_member_ref),
            (pool.constant_value, reference_constant_value),
        ):
            assert outcome(method, index) == outcome(reference, pool, index)
