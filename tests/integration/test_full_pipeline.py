"""End-to-end integration: Mini source → every subsystem → simulation."""

import pytest

from repro import (
    MODEM_LINK,
    T1_LINK,
    compile_source,
    estimate_first_use,
    order_from_profile,
    profile_program,
    record_run,
    restructure,
    run_nonstrict,
    run_strict,
    strict_baseline,
)
from repro.classfile import class_layout, deserialize, serialize
from repro.datapart import partition_class
from repro.linker import IncrementalLinker, verify_class
from repro.program import MethodId
from repro.vm import VirtualMachine

SOURCE = """
class App {
    global checksum = 0;

    func main() {
        var blocks = new[16];
        var i = 0;
        while (i < len(blocks)) {
            blocks[i] = Hash.mix(i, 41);
            i = i + 1;
        }
        App.checksum = Fold.sum(blocks);
        print(App.checksum);
        Report.emit(App.checksum);
    }
}

class Hash {
    global salt = 7;

    func mix(value, key) {
        return (value * 31 + key) % 1000 + Hash.salt;
    }

    // Input-dependent cold path.
    func rehash(value) {
        return mix(value, 97);
    }
}

class Fold {
    func sum(values) {
        var total = 0;
        var i = 0;
        while (i < len(values)) {
            total = total + values[i];
            i = i + 1;
        }
        return total;
    }
}

class Report {
    func emit(value) { print(value); }
    func emit_verbose(value) { print(value); print(value); }
}
"""

CPI = 80.0


@pytest.fixture(scope="module")
def compiled():
    return compile_source(SOURCE)


def test_compiled_classes_verify_and_roundtrip(compiled):
    for classfile in compiled.classes:
        verify_class(classfile)
        image = serialize(classfile)
        assert serialize(deserialize(image)) == image


def test_execution_and_profile(compiled):
    result, recorder = record_run(compiled)
    expected = sum((i * 31 + 41) % 1000 + 7 for i in range(16))
    assert result.output == [expected, expected]
    order = recorder.profile.order
    assert order[0] == MethodId("App", "main")
    assert MethodId("Hash", "rehash") not in order  # cold path
    assert MethodId("Report", "emit_verbose") not in order


def test_restructure_preserves_behaviour_and_bytes(compiled):
    profile = profile_program(compiled)
    order = order_from_profile(compiled, profile)
    restructured = restructure(compiled, order)
    baseline = VirtualMachine(compiled).run()
    modified = VirtualMachine(restructured).run()
    assert baseline.output == modified.output
    for original in compiled.classes:
        other = restructured.class_named(original.name)
        assert (
            class_layout(original).strict_size
            == class_layout(other).strict_size
        )


def test_partitioning_consistent_after_restructure(compiled):
    order = estimate_first_use(compiled)
    restructured = restructure(compiled, order)
    for classfile in restructured.classes:
        layout = class_layout(classfile)
        partition = partition_class(classfile, layout)
        assert partition.total_global_bytes == layout.global_size


@pytest.mark.parametrize("link", [T1_LINK, MODEM_LINK], ids=["t1", "modem"])
@pytest.mark.parametrize("method", ["interleaved", "parallel"])
@pytest.mark.parametrize("partitioned", [False, True], ids=["plain", "dp"])
def test_simulation_matrix(compiled, link, method, partitioned):
    _, recorder = record_run(compiled)
    order = order_from_profile(compiled, recorder.profile)
    base = strict_baseline(compiled, recorder.trace, link, CPI)
    sim = run_nonstrict(
        compiled,
        recorder.trace,
        order,
        link,
        CPI,
        method=method,
        max_streams=4 if method == "parallel" else None,
        data_partitioning=partitioned,
    )
    assert sim.total_cycles > 0
    assert sim.total_cycles == pytest.approx(
        sim.execution_cycles + sim.stall_cycles
    )
    # Cold code exists, so some bytes should never transfer.
    assert sim.bytes_terminated > 0
    # Non-strict never exceeds strict by more than the delimiter
    # overhead on this workload.
    assert sim.normalized_to(base.total_cycles) < 110


def test_strict_simulation_agrees_with_arithmetic_bound(compiled):
    _, recorder = record_run(compiled)
    base = strict_baseline(compiled, recorder.trace, T1_LINK, CPI)
    simulated = run_strict(compiled, recorder.trace, T1_LINK, CPI)
    assert simulated.total_cycles <= base.total_cycles + 1


def test_incremental_linker_follows_simulated_arrival_order(compiled):
    """Drive the incremental linker with the exact unit arrival order a
    non-strict transfer produces: globals, then methods, in stream
    order — linking must succeed with no ordering violations."""
    from repro.sched import StripedController
    from repro.transfer import UnitKind

    order = estimate_first_use(compiled)
    restructured = restructure(compiled, order)
    controller = StripedController(
        restructured, order, (T1_LINK,), policy="interleaved"
    )
    engine = controller.start()
    engine.run_until(1e12)
    arrivals = sorted(
        engine.arrival_times.items(), key=lambda item: item[1]
    )
    linker = IncrementalLinker(restructured)
    for unit, _time in arrivals:
        if unit.kind in (UnitKind.GLOBAL_DATA, UnitKind.GLOBAL_FIRST):
            linker.on_global_data(unit.class_name)
        elif unit.kind == UnitKind.METHOD:
            linker.on_method_arrival(unit.method)
    # Every method arrived and verified; now first invocations resolve.
    _, recorder = record_run(compiled)
    for method in recorder.trace.first_use_order():
        linker.on_first_invocation(method)
    assert linker.report.methods_verified == restructured.method_count
    assert linker.report.classes_prepared == len(restructured.classes)
