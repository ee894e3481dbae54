"""Work counts of building a cold first-use order, counted in tests.

A fresh server builds its ``static`` or ``weighted`` order before the
first byte leaves, so the analyses behind them must not pay per
instruction or per method for lookups a table or one local index
answers.  The counts are taken by patching the counted names here;
the library counts nothing.
"""

import pytest

from repro.bytecode import Instruction
from repro.harness import bundle
from repro.program import Program
from repro.reorder import estimate_first_use, weighted_first_use

ORDERS = {
    "static": estimate_first_use,
    "weighted": weighted_first_use,  # no profile: the pure-static mode
}


@pytest.fixture(scope="module")
def jess():
    return bundle("Jess").workload.program


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)
    if isinstance(original, property):

        def read(instance):
            calls.append(name)
            return original.fget(instance)

        monkeypatch.setattr(owner, name, property(read))
    else:

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)


@pytest.mark.parametrize("strategy", sorted(ORDERS))
def test_orders_read_no_opcode_metadata(monkeypatch, jess, strategy):
    """Flags and sizes come from per-opcode tables: no order reads an
    instruction's ``info`` (Jess has 15,099 instructions)."""
    reads = []
    counting(monkeypatch, Instruction, "info", reads)
    ORDERS[strategy](jess)
    assert reads == []


@pytest.mark.parametrize("strategy", sorted(ORDERS))
def test_orders_scan_no_class_list_per_method(monkeypatch, jess, strategy):
    """Method ids resolve through one index per call: apart from the
    entry-point check, no order scans the program's classes (Jess has
    97 classes, 1,568 methods and 1,567 call sites)."""
    scans = []
    counting(monkeypatch, Program, "class_named", scans)
    counting(monkeypatch, Program, "has_class", scans)
    ORDERS[strategy](jess)
    assert scans.count("class_named") <= 1
    assert scans.count("has_class") <= 1
