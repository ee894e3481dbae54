"""``extend_closure`` against the ``isinstance`` walk it replaced.

``extend_closure`` reads each entry's references through a reader
keyed by the entry's type, and its size from the sizes the pool
recorded as entries arrived.  The oracle below is the walk it
replaced: an ``isinstance`` chain for the references and
``entry.size``, which re-encodes every Utf8 entry, for the bytes.

Pools are drawn with references that are zero, out of range, or name
an entry of the wrong type.  For every draw both walks must add the
same entries and bytes, or raise the same
:class:`~repro.errors.ConstantPoolError` and leave the same partial
closure.
"""

import pytest
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
from repro.datapart.usage import extend_closure
from repro.errors import ConstantPoolError

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=400, deadline=None, derandomize=True, database=None
)


def reference_extend_closure(pool, roots, closed):
    """The ``isinstance`` walk, sized by ``entry.size``."""
    added = 0
    frontier = list(roots)
    while frontier:
        index = frontier.pop()
        if index in closed:
            continue
        entry = pool.get(index)
        closed.add(index)
        added += entry.size
        if isinstance(entry, ClassEntry):
            frontier.append(entry.name_index)
        elif isinstance(entry, StringEntry):
            frontier.append(entry.utf8_index)
        elif isinstance(
            entry,
            (FieldRefEntry, MethodRefEntry, InterfaceMethodRefEntry),
        ):
            frontier.append(entry.class_index)
            frontier.append(entry.name_and_type_index)
        elif isinstance(entry, NameAndTypeEntry):
            frontier.append(entry.name_index)
            frontier.append(entry.descriptor_index)
    return added


#: Pools hold at most 12 entries, so references reach past the end;
#: 0 is never a valid index.
_REFERENCE = st.integers(0, 14)
_ROOT = st.integers(-1, 14)

ENTRIES = st.one_of(
    st.builds(Utf8Entry, st.text(alphabet="abé", max_size=3)),
    st.builds(IntegerEntry, st.integers(-(2**31), 2**31 - 1)),
    st.builds(FloatEntry, st.floats(width=32, allow_nan=False)),
    st.builds(LongEntry, st.integers(-(2**63), 2**63 - 1)),
    st.builds(DoubleEntry, st.floats(allow_nan=False)),
    st.builds(StringEntry, _REFERENCE),
    st.builds(ClassEntry, _REFERENCE),
    st.builds(FieldRefEntry, _REFERENCE, _REFERENCE),
    st.builds(MethodRefEntry, _REFERENCE, _REFERENCE),
    st.builds(InterfaceMethodRefEntry, _REFERENCE, _REFERENCE),
    st.builds(NameAndTypeEntry, _REFERENCE, _REFERENCE),
)


def pool_of(entries):
    pool = ConstantPool()
    for entry in entries:
        pool.add(entry)
    return pool


def _outcome(walk, pool, roots, closed):
    try:
        return ("added", walk(pool, roots, closed))
    except ConstantPoolError as exc:
        return ("error", str(exc))


@TIER1
@given(
    entries=st.lists(ENTRIES, max_size=12),
    closed=st.sets(_ROOT, max_size=4),
    root_lists=st.lists(st.lists(_ROOT, max_size=5), min_size=1, max_size=4),
)
def test_extend_closure_matches_the_isinstance_walk(
    entries, closed, root_lists
):
    """One closed set extended root list by root list, as GMD
    attribution does, the same way by both walks."""
    pool = pool_of(entries)
    expected_closed = set(closed)
    actual_closed = set(closed)
    for roots in root_lists:
        expected = _outcome(
            reference_extend_closure, pool, roots, expected_closed
        )
        actual = _outcome(extend_closure, pool, roots, actual_closed)
        assert actual == expected
        assert actual_closed == expected_closed
        if expected[0] == "error":
            break


@pytest.mark.parametrize(
    "walk",
    [reference_extend_closure, extend_closure],
    ids=["oracle", "extend_closure"],
)
def test_an_out_of_range_reference_raises_the_pool_error(walk):
    pool = ConstantPool()
    pool.add(ClassEntry(7))
    closed = set()
    with pytest.raises(
        ConstantPoolError, match=r"index 7 out of range \[1, 1\]"
    ):
        walk(pool, [1], closed)
    assert closed == {1}
