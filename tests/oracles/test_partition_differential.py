"""``partition_class`` against the two-scan path it replaced.

``partition_class`` now finds the setup Class entries and the class's
own MethodRefs in one pass over the pool, checks each Class and
MethodRef entry on the pool's entries, and resolves an entry through
the pool only to raise for a malformed one; its closure walk reads the
references the pool recorded.  The oracle in
:mod:`.partition_reference` scans the pool twice, resolves every
MethodRef through ``member_ref`` and fetches every entry it walks.

On every class of the six workloads in all three orders the two must
give the same :class:`~repro.datapart.DataPartition`.  On drawn pools
whose Class, NameAndType and MethodRef entries point out of range or
at an entry of the wrong type, both must give the same partition or
both raise :class:`~repro.errors.ConstantPoolError`, with the same
text whenever the pool holds at most one malformed entry.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.bytecode import Instruction, Opcode
from repro.classfile import (
    ClassEntry,
    ClassFileBuilder,
    MethodRefEntry,
    NameAndTypeEntry,
    Utf8Entry,
    class_layout,
)
from repro.datapart import partition_class
from repro.errors import ConstantPoolError
from repro.harness import BENCHMARK_NAMES, bundle
from repro.reorder import restructure

from .partition_reference import reference_partition_class

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


@pytest.mark.parametrize("ordering", ["SCG", "Train", "Test"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_workload_partitions_match_the_two_scan_path(name, ordering):
    item = bundle(name)
    program = restructure(item.workload.program, item.order(ordering))
    for classfile in program.classes:
        layout = class_layout(classfile)
        assert partition_class(classfile, layout) == reference_partition_class(
            classfile, layout
        )


def _base_class():
    """A small class: an interface, a constant field, a call into the
    class and one out of it, and a string constant."""
    builder = ClassFileBuilder("C")
    builder.add_interface("I")
    builder.add_field("f", initial_value=7)
    helper = builder.method_ref("C", "helper", "()V")
    other = builder.method_ref("D", "run", "()V")
    text = builder.add_string_constant("hello")
    builder.add_method(
        "main",
        "()V",
        [
            Instruction(Opcode.CALL, (helper,)),
            Instruction(Opcode.CALL, (other,)),
            Instruction(Opcode.RETURN),
        ],
    )
    builder.add_method(
        "helper",
        "()V",
        [
            Instruction(Opcode.LDC, (text,)),
            Instruction(Opcode.POP),
            Instruction(Opcode.RETURN),
        ],
        local_data=b"xy",
    )
    return builder.build()


def _holds(pool, index, entry_type):
    return 0 < index <= len(pool) and isinstance(pool.get(index), entry_type)


def _malformed(pool):
    """How many Class, NameAndType and MethodRef entries point out of
    range or at an entry of the wrong type."""
    count = 0
    for _, entry in pool.entries():
        if isinstance(entry, ClassEntry):
            count += not _holds(pool, entry.name_index, Utf8Entry)
        elif isinstance(entry, NameAndTypeEntry):
            count += not (
                _holds(pool, entry.name_index, Utf8Entry)
                and _holds(pool, entry.descriptor_index, Utf8Entry)
            )
        elif isinstance(entry, MethodRefEntry):
            count += not (
                _holds(pool, entry.class_index, ClassEntry)
                and _holds(pool, entry.name_and_type_index, NameAndTypeEntry)
            )
    return count


def _outcome(partition, classfile, layout):
    try:
        return ("partition", partition(classfile, layout))
    except ConstantPoolError as exc:
        return ("error", str(exc))


@TIER1
@given(data=st.data())
def test_drawn_pools_partition_like_the_two_scan_path(data):
    classfile = _base_class()
    pool = classfile.constant_pool
    for _ in range(data.draw(st.integers(1, 4), label="entries")):
        kind = data.draw(
            st.sampled_from([ClassEntry, NameAndTypeEntry, MethodRefEntry])
        )
        # In range (often of the wrong type), zero, or past the end.
        reference = st.one_of(
            st.integers(1, len(pool)),
            st.sampled_from([0, -1, len(pool) + 1, len(pool) + 5, 0x10000]),
        )
        arity = 1 if kind is ClassEntry else 2
        pool.add(kind(*(data.draw(reference) for _ in range(arity))))
    layout = class_layout(classfile)
    expected = _outcome(reference_partition_class, classfile, layout)
    actual = _outcome(partition_class, classfile, layout)
    malformed = _malformed(pool)
    event(f"{expected[0]}, {min(malformed, 2)} malformed")
    if malformed <= 1:
        assert actual == expected
    else:
        assert actual[0] == expected[0]
        if expected[0] == "partition":
            assert actual == expected


def test_a_malformed_class_entry_raises_the_resolver_error():
    classfile = _base_class()
    pool = classfile.constant_pool
    pool.add(ClassEntry(len(pool) + 9))
    layout = class_layout(classfile)
    expected = _outcome(reference_partition_class, classfile, layout)
    assert expected[0] == "error" and "out of range" in expected[1]
    assert _outcome(partition_class, classfile, layout) == expected
