"""ConstantPool against a list-plus-dict model.

The pool keeps a running byte total and a Utf8 value index as entries
are added.  Random sequences of ``add_*`` helpers and direct ``add``
calls over all eleven entry kinds, with many repeats, must leave it
indistinguishable from the plain model: the same entries at the same
indices, ``size`` equal to the re-summed entry sizes, and ``find_utf8``
agreeing with ``find(Utf8Entry(...))`` for present and absent values.
The model interns a Float or Double by the bytes the serializer writes
for it, so 0.0 and -0.0 are two constants.

The pool also records each entry's size and the indices it refers to
as it arrives; the records must equal every entry's own ``size`` and
what its fields say, whether the pool was built by ``add_*`` calls,
drawn entry by entry, or read back by ``deserialize``.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classfile import (
    ClassEntry,
    ClassFile,
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
    deserialize,
    serialize,
)
from repro.harness import BENCHMARK_NAMES, bundle

#: Few, short values, so most operations repeat an earlier one.
_TEXT = st.text(alphabet="abé", max_size=2)
_PROBES = ("", "a", "b", "ab", "ba", "é", "aé", "zzz")
_NUMBER = st.integers(-2, 2)
_REAL = st.sampled_from([0.0, -0.0, 1.5, -2.25])
_INDEX = st.integers(1, 6)


def intern_key(entry):
    """What the pool interns ``entry`` by: its wire image for a Float
    or Double, the entry itself otherwise."""
    if isinstance(entry, FloatEntry):
        return ("float", struct.pack(">f", entry.value))
    if isinstance(entry, DoubleEntry):
        return ("double", struct.pack(">d", entry.value))
    return entry


class Model:
    """The pool's interning semantics, with nothing kept on the side."""

    def __init__(self):
        self.entries = []
        self.index = {}

    def add(self, entry):
        key = intern_key(entry)
        if key not in self.index:
            self.entries.append(entry)
            self.index[key] = len(self.entries)
        return self.index[key]

    def add_utf8(self, value):
        return self.add(Utf8Entry(value))

    def add_integer(self, value):
        return self.add(IntegerEntry(value))

    def add_float(self, value):
        return self.add(FloatEntry(value))

    def add_long(self, value):
        return self.add(LongEntry(value))

    def add_double(self, value):
        return self.add(DoubleEntry(value))

    def add_string(self, value):
        return self.add(StringEntry(self.add_utf8(value)))

    def add_class(self, name):
        return self.add(ClassEntry(self.add_utf8(name)))

    def add_name_and_type(self, name, descriptor):
        return self.add(
            NameAndTypeEntry(self.add_utf8(name), self.add_utf8(descriptor))
        )

    def _member(self, kind, class_name, name, descriptor):
        return self.add(
            kind(
                self.add_class(class_name),
                self.add_name_and_type(name, descriptor),
            )
        )

    def add_field_ref(self, *names):
        return self._member(FieldRefEntry, *names)

    def add_method_ref(self, *names):
        return self._member(MethodRefEntry, *names)

    def add_interface_method_ref(self, *names):
        return self._member(InterfaceMethodRefEntry, *names)


_DIRECT_ENTRIES = st.one_of(
    st.builds(Utf8Entry, _TEXT),
    st.builds(IntegerEntry, _NUMBER),
    st.builds(FloatEntry, _REAL),
    st.builds(LongEntry, _NUMBER),
    st.builds(DoubleEntry, _REAL),
    st.builds(StringEntry, _INDEX),
    st.builds(ClassEntry, _INDEX),
    st.builds(FieldRefEntry, _INDEX, _INDEX),
    st.builds(MethodRefEntry, _INDEX, _INDEX),
    st.builds(InterfaceMethodRefEntry, _INDEX, _INDEX),
    st.builds(NameAndTypeEntry, _INDEX, _INDEX),
)

_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), _DIRECT_ENTRIES),
    st.tuples(st.just("add_utf8"), _TEXT),
    st.tuples(st.just("add_integer"), _NUMBER),
    st.tuples(st.just("add_float"), _REAL),
    st.tuples(st.just("add_long"), _NUMBER),
    st.tuples(st.just("add_double"), _REAL),
    st.tuples(st.just("add_string"), _TEXT),
    st.tuples(st.just("add_class"), _TEXT),
    st.tuples(st.just("add_name_and_type"), _TEXT, _TEXT),
    st.tuples(st.just("add_field_ref"), _TEXT, _TEXT, _TEXT),
    st.tuples(st.just("add_method_ref"), _TEXT, _TEXT, _TEXT),
    st.tuples(st.just("add_interface_method_ref"), _TEXT, _TEXT, _TEXT),
)


def assert_sizes_recorded(pool):
    assert list(pool.entry_sizes) == [entry.size for entry in pool]
    assert sum(pool.entry_sizes) == pool.size - 2


#: The fields of each entry type that hold a pool index, in field order.
_REFERENCE_FIELDS = {
    ClassEntry: ("name_index",),
    StringEntry: ("utf8_index",),
    FieldRefEntry: ("class_index", "name_and_type_index"),
    MethodRefEntry: ("class_index", "name_and_type_index"),
    InterfaceMethodRefEntry: ("class_index", "name_and_type_index"),
    NameAndTypeEntry: ("name_index", "descriptor_index"),
}


def fields_referenced(entry):
    return [
        getattr(entry, name) for name in _REFERENCE_FIELDS.get(type(entry), ())
    ]


def assert_references_recorded(pool):
    bounds = pool.reference_bounds
    targets = pool.reference_targets
    assert len(bounds) == len(pool) + 1
    assert bounds[0] == 0
    assert bounds[-1] == len(targets)
    for index, entry in enumerate(pool, start=1):
        expected = fields_referenced(entry)
        assert list(targets[bounds[index - 1]:bounds[index]]) == expected
        assert list(entry.references) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPERATIONS, max_size=40))
def test_pool_matches_list_and_dict_model(operations):
    pool = ConstantPool()
    model = Model()
    for name, *arguments in operations:
        assert getattr(pool, name)(*arguments) == getattr(model, name)(
            *arguments
        )
        assert list(pool) == model.entries
        assert pool.entries() == list(enumerate(model.entries, start=1))
        assert pool.size == 2 + sum(entry.size for entry in pool)
        assert_sizes_recorded(pool)
        assert_references_recorded(pool)
        for entry in model.entries:
            assert pool.find(entry) == model.index[intern_key(entry)]
        for value in _PROBES + tuple(
            argument for argument in arguments if isinstance(argument, str)
        ):
            expected = model.index.get(Utf8Entry(value))
            assert pool.find_utf8(value) == expected
            assert pool.find(Utf8Entry(value)) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_DIRECT_ENTRIES, max_size=20))
def test_deserialized_pool_records_every_entry_size(entries):
    pool = ConstantPool()
    for entry in entries:
        pool.add(entry)
    assert_references_recorded(pool)
    image = serialize(ClassFile("T", constant_pool=pool))
    recovered = deserialize(image).constant_pool
    assert list(recovered) == list(pool)
    assert_sizes_recorded(recovered)
    assert_references_recorded(recovered)


def test_workload_pools_record_every_entry_size():
    for name in BENCHMARK_NAMES:
        for classfile in bundle(name).workload.program.classes:
            assert_sizes_recorded(classfile.constant_pool)
            assert_references_recorded(classfile.constant_pool)
            recovered = deserialize(serialize(classfile)).constant_pool
            assert_sizes_recorded(recovered)
            assert_references_recorded(recovered)


#: Unchecked reference ints: zero, negative, past the u2 range, huge.
_ANY_INDEX = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0xFFFF, 0x10000, 2**40, -(2**70)]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.one_of(
            st.builds(StringEntry, _ANY_INDEX),
            st.builds(ClassEntry, _ANY_INDEX),
            st.builds(FieldRefEntry, _ANY_INDEX, _ANY_INDEX),
            st.builds(MethodRefEntry, _ANY_INDEX, _ANY_INDEX),
            st.builds(InterfaceMethodRefEntry, _ANY_INDEX, _ANY_INDEX),
            st.builds(NameAndTypeEntry, _ANY_INDEX, _ANY_INDEX),
            st.builds(Utf8Entry, _TEXT),
        ),
        max_size=20,
    )
)
def test_add_records_any_reference_int(entries):
    """``add`` checks no reference: every int a field holds is
    accepted and recorded as it is."""
    pool = ConstantPool()
    model = Model()
    for entry in entries:
        assert pool.add(entry) == model.add(entry)
    assert list(pool) == model.entries
    assert_references_recorded(pool)
