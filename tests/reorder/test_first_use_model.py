"""FirstUseOrder model: helpers beyond the estimators."""

import pytest

from repro.errors import ReorderError
from repro.program import MethodId
from repro.reorder import (
    FirstUseEntry,
    FirstUseOrder,
    estimate_first_use,
    textual_first_use,
)
from repro.workloads import figure1_program


def test_duplicate_entries_rejected():
    entry = FirstUseEntry(method=MethodId("A", "m"), bytes_before=0)
    with pytest.raises(ReorderError):
        FirstUseOrder(entries=[entry, entry])


def test_membership_and_length():
    order = estimate_first_use(figure1_program())
    assert MethodId("A", "main") in order
    assert MethodId("A", "zz") not in order
    assert len(order) == 5


def test_entry_for_and_bytes_before():
    order = estimate_first_use(figure1_program())
    entry = order.entry_for(MethodId("B", "Bar_B"))
    assert entry.bytes_before == order.bytes_before(
        MethodId("B", "Bar_B")
    )
    assert entry.bytes_before > 0


def test_interleaved_order_equals_order():
    order = estimate_first_use(figure1_program())
    assert order.interleaved_order() == order.order


def test_textual_first_use_is_file_order():
    program = figure1_program()
    order = textual_first_use(program)
    assert order.order == list(program.method_ids())
    assert order.source == "textual"
    # Cumulative byte prefixes are monotone.
    byte_values = [entry.bytes_before for entry in order.entries]
    assert byte_values == sorted(byte_values)
    assert byte_values[0] == 0


def test_textual_order_drives_restructure_as_identity():
    from repro.reorder import restructure

    program = figure1_program()
    identity = restructure(program, textual_first_use(program))
    assert [m.name for c in identity.classes for m in c.methods] == [
        m.name for c in program.classes for m in c.methods
    ]


def test_class_order_first_use_of_classes():
    order = estimate_first_use(figure1_program())
    assert order.class_order() == ["A", "B"]
