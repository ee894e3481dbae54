"""Wire compression extension."""

import pytest

from repro.reorder import estimate_first_use, restructure
from repro.sched import StripedController
from repro.transfer import (
    T1_LINK,
    TransferPolicy,
    class_compression_ratio,
    compress_plan,
    compress_plans,
    build_class_plan,
    program_compression_ratios,
)
from repro.workloads import figure1_program


def test_ratio_in_unit_interval():
    program = figure1_program()
    for classfile in program.classes:
        ratio = class_compression_ratio(classfile)
        assert 0 < ratio <= 1


def test_program_ratios_cover_all_classes():
    program = figure1_program()
    ratios = program_compression_ratios(program)
    assert set(ratios) == {"A", "B"}


def test_compress_plan_scales_sizes():
    program = figure1_program()
    plan = build_class_plan(
        program.classes[0], TransferPolicy.NON_STRICT
    )
    compressed = compress_plan(plan, 0.5)
    assert compressed.total_bytes < plan.total_bytes
    assert len(compressed.units) == len(plan.units)
    # Unit identity (kind/class/method) is preserved.
    for original, scaled in zip(plan.units, compressed.units):
        assert original.kind == scaled.kind
        assert original.method == scaled.method
        assert scaled.size >= 1


def test_compress_plan_rejects_bad_ratio():
    program = figure1_program()
    plan = build_class_plan(
        program.classes[0], TransferPolicy.NON_STRICT
    )
    with pytest.raises(ValueError):
        compress_plan(plan, 0.0)
    with pytest.raises(ValueError):
        compress_plan(plan, 1.5)


def test_compress_plans_uses_per_class_ratio():
    program = figure1_program()
    plans = {
        classfile.name: build_class_plan(
            classfile, TransferPolicy.NON_STRICT
        )
        for classfile in program.classes
    }
    compressed = compress_plans(plans, {"A": 0.5})  # B defaults to 1.0
    assert compressed["A"].total_bytes < plans["A"].total_bytes
    assert compressed["B"].total_bytes == plans["B"].total_bytes


def test_compressed_controller_transfers_fewer_bytes():
    program = figure1_program()
    order = estimate_first_use(program)
    target = restructure(program, order)
    plain, compressed = (
        StripedController(
            target,
            order,
            (T1_LINK,),
            policy="interleaved",
            ratios=ratios,
        )
        for ratios in (None, program_compression_ratios(target))
    )
    plain_bytes = sum(unit.size for unit in plain.sequence)
    compressed_bytes = sum(unit.size for unit in compressed.sequence)
    assert compressed_bytes < plain_bytes
    # And it still drives the engine to completion.
    engine = compressed.start()
    engine.run_until(1e12)
    assert engine.idle
    assert engine.total_delivered == pytest.approx(compressed_bytes)
