"""Work counts of building data-partitioned plans, counted in tests.

Every data-partitioned row of a sweep partitions every class again,
so the partition must not pay per pool entry for what the pool
recorded as the entry arrived.  The counts are taken by patching the
counted names here; the library counts nothing.
"""

import pytest

from repro.classfile import ConstantPool
from repro.harness import bundle
from repro.transfer import TransferPolicy, build_program_plans
from repro.transfer import units as transfer_units


@pytest.fixture(scope="module")
def jess():
    return bundle("Jess").workload.program


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def call(pool, *args, **kwargs):
        calls.append((name, pool))
        return original(pool, *args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def test_partitioned_plans_fetch_and_resolve_no_entry(monkeypatch, jess):
    """Jess's well-formed pools (97 classes, 13,535 entries): the
    closure walk fetches no entry and the roots resolve no
    reference; each partition passes over its pool at most once."""
    expected = build_program_plans(jess, TransferPolicy.DATA_PARTITIONED)
    lookups = []
    for name in ("get", "get_typed", "member_ref", "utf8", "class_name"):
        counting(monkeypatch, ConstantPool, name, lookups)
    passes = []
    counting(monkeypatch, ConstantPool, "__iter__", passes)
    counting(monkeypatch, ConstantPool, "entries", passes)
    passes_per_partition = []
    partition_class = transfer_units.partition_class

    def counted_partition(classfile, layout):
        before = len(passes)
        partition = partition_class(classfile, layout)
        passes_per_partition.append(len(passes) - before)
        return partition

    monkeypatch.setattr(transfer_units, "partition_class", counted_partition)
    plans = build_program_plans(jess, TransferPolicy.DATA_PARTITIONED)
    assert plans == expected
    assert len(passes_per_partition) == len(jess.classes)
    assert lookups == []
    assert max(passes_per_partition) <= 1
