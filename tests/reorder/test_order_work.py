"""Work counts of building a cold first-use order, counted in tests.

A fresh server builds its ``static`` or ``weighted`` order before the
first byte leaves, so the analyses behind them must not pay per
instruction or per method for lookups a table or one local index
answers.  The counts are taken by patching the counted names here;
the library counts nothing.
"""

from dataclasses import replace

import pytest

from repro.bytecode import Instruction
from repro.harness import bundle
from repro.errors import ClassFileError, ReorderError
from repro.program import MethodId, Program
from repro.reorder import (
    estimate_first_use,
    order_from_profile,
    weighted_first_use,
)
from repro.vm import synthesize_profile

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


def test_profile_order_scans_no_class_list_per_event(monkeypatch):
    """A profile order checks its events against one method index:
    Jess's Train profile has 709 events and makes no class-list scan
    (given the static order it falls back on)."""
    item = bundle("Jess")
    program = item.workload.program
    profile = synthesize_profile(program, item.workload.train_trace)
    assert len(profile.events) > 700
    scans = []
    counting(monkeypatch, Program, "class_named", scans)
    counting(monkeypatch, Program, "has_class", scans)
    counting(monkeypatch, Program, "has_method", scans)
    order = order_from_profile(program, profile, static_order=item.scg)
    assert scans == []
    assert order == item.train


def test_synthesized_profile_scans_no_class_list_per_method(monkeypatch):
    """A synthesized profile resolves methods through one index: Jess's
    Train profile has 709 events over 97 classes and makes no
    class-list scan."""
    workload = bundle("Jess").workload
    expected = synthesize_profile(workload.program, workload.train_trace)
    scans = []
    counting(monkeypatch, Program, "class_named", scans)
    counting(monkeypatch, Program, "has_class", scans)
    profile = synthesize_profile(workload.program, workload.train_trace)
    assert len(profile.events) > 700
    assert scans == []
    assert profile == expected


def test_synthesized_profile_rejects_an_unknown_method():
    workload = bundle("Hanoi").workload
    trace = workload.train_trace
    segments = list(trace.segments)
    class_name = segments[0].method.class_name
    segments[0] = replace(segments[0], method=MethodId(class_name, "nope"))
    with pytest.raises(ClassFileError, match="no method 'nope'"):
        synthesize_profile(workload.program, replace(trace, segments=segments))


def test_profile_order_rejects_an_unknown_method():
    workload = bundle("Hanoi").workload
    profile = synthesize_profile(workload.program, workload.train_trace)
    profile.events[0] = replace(
        profile.events[0], method=MethodId("Nope", "run")
    )
    with pytest.raises(ReorderError, match="unknown method Nope.run"):
        order_from_profile(workload.program, profile)
