"""Batched cores against the reference loop: bit-identical.

The contract of :mod:`repro.core.fastsim` is *exact* replication —
every cycle count, stall boundary, and per-method first-invocation
latency must equal the reference loop's floats bit for bit, not
approximately.  All comparisons below use ``==`` on raw floats on
purpose.  ``Simulator.run_reference`` is the oracle; ``Simulator.run``
and the ``run_*`` helpers built on it take the batched cores.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.core import Simulator, resolve_engine, run_nonstrict, run_strict
from repro.harness import BENCHMARK_NAMES, bundle
from repro.observe import TraceRecorder
from repro.reorder import estimate_first_use, restructure
from repro.sched import StripedController, run_striped
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    CompressedInterleavedController,
    InterleavedController,
    ParallelController,
    StrictSequentialController,
    links_from_bandwidths,
)
from repro.vm import record_run
from repro.workloads import figure1_program


def _key(result):
    """Every observable field of a SimulationResult but its labels."""
    return (
        result.total_cycles,
        result.execution_cycles,
        result.stall_cycles,
        result.invocation_latency,
        result.bytes_delivered,
        result.bytes_terminated,
        tuple(
            (stall.method, stall.start, stall.duration)
            for stall in result.stalls
        ),
        tuple(
            (entry.method, entry.latency, entry.demand_fetched)
            for entry in result.latencies.entries
        ),
    )


def _assert_same(batched, reference):
    assert batched.engine == "batched"
    assert reference.engine == "reference"
    assert batched.controller_name == reference.controller_name
    assert _key(batched) == _key(reference)


def _configured(
    program,
    trace,
    order,
    link,
    cpi,
    method="interleaved",
    max_streams=None,
    data_partitioning=False,
):
    """The Simulator ``run_nonstrict`` builds for one configuration."""
    target = restructure(program, order)
    if method == "parallel":
        controller = ParallelController(
            target,
            order,
            link,
            cpi,
            max_streams=max_streams,
            data_partitioning=data_partitioning,
        )
    else:
        controller = InterleavedController(
            target, order, data_partitioning=data_partitioning
        )
    return Simulator(target, trace, controller, link, cpi)


def _assert_nonstrict_matches_oracle(program, trace, order, link, cpi, **kwargs):
    batched = run_nonstrict(program, trace, order, link, cpi, **kwargs)
    reference = _configured(
        program, trace, order, link, cpi, **kwargs
    ).run_reference()
    _assert_same(batched, reference)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("method", ["parallel", "interleaved"])
@pytest.mark.parametrize("ordering", ["SCG", "Train"])
def test_engine_equivalence(name, method, ordering):
    item = bundle(name)
    workload = item.workload
    _assert_nonstrict_matches_oracle(
        workload.program,
        workload.test_trace,
        item.order(ordering),
        T1_LINK,
        workload.cpi,
        method=method,
        max_streams=4 if method == "parallel" else None,
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_striped_equivalence(name):
    """Striped runs take the reference loop.  On one link the paper's
    policies there equal the batched cores, here on the modem with
    data partitioning."""
    item = bundle(name)
    workload = item.workload
    for policy in ("parallel", "interleaved"):
        kwargs = dict(
            max_streams=4 if policy == "parallel" else None,
            data_partitioning=True,
        )
        striped = run_striped(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            (MODEM_LINK,),
            workload.cpi,
            policy=policy,
            **kwargs,
        )
        batched = run_nonstrict(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            MODEM_LINK,
            workload.cpi,
            method=policy,
            **kwargs,
        )
        assert striped.engine == "reference"
        assert batched.engine == "batched"
        assert _key(striped) == _key(batched), policy


def test_data_partitioned_equivalence():
    item = bundle(BENCHMARK_NAMES[0])
    workload = item.workload
    for method in ("parallel", "interleaved"):
        _assert_nonstrict_matches_oracle(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            MODEM_LINK,
            workload.cpi,
            method=method,
            max_streams=4 if method == "parallel" else None,
            data_partitioning=True,
        )


def test_strict_equivalence():
    program = figure1_program()
    _, recorder = record_run(program)
    batched = run_strict(program, recorder.trace, T1_LINK, 30.0)
    reference = Simulator(
        program,
        recorder.trace,
        StrictSequentialController(program),
        T1_LINK,
        30.0,
    ).run_reference()
    _assert_same(batched, reference)


#: Controllers that callers hand to Simulator directly: the
#: compression extension and the two ablations' options.
_DIRECT_CONTROLLERS = {
    "compressed": lambda target, order, cpi: CompressedInterleavedController(
        target, order
    ),
    "eager_start": lambda target, order, cpi: ParallelController(
        target, order, MODEM_LINK, cpi, eager_start=True
    ),
    "block_delimiters": lambda target, order, cpi: InterleavedController(
        target, order, block_delimiters=True
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("kind", sorted(_DIRECT_CONTROLLERS))
def test_controller_equivalence(kind, name):
    item = bundle(name)
    workload = item.workload
    order = item.order("Test")
    target = restructure(workload.program, order)
    controller = _DIRECT_CONTROLLERS[kind](target, order, workload.cpi)
    for link in (T1_LINK, MODEM_LINK):
        simulator = Simulator(
            target, workload.test_trace, controller, link, workload.cpi
        )
        _assert_same(simulator.run(), simulator.run_reference())


def test_recorder_runs_use_reference_loop():
    """A recorder selects the reference loop, which emits the event
    stream; the same run unrecorded takes a batched core and gives
    identical results.  Striped runs always take the reference loop."""
    program = figure1_program()
    _, vm_recorder = record_run(program)
    order = estimate_first_use(program)
    recorder = TraceRecorder(clock="cycles")
    recorded = run_nonstrict(
        program,
        vm_recorder.trace,
        order,
        T1_LINK,
        30.0,
        method="parallel",
        recorder=recorder,
    )
    assert len(recorder.events) > 0
    unrecorded = run_nonstrict(
        program,
        vm_recorder.trace,
        order,
        T1_LINK,
        30.0,
        method="parallel",
    )
    _assert_same(unrecorded, recorded)
    striped = run_striped(
        program,
        vm_recorder.trace,
        order,
        links_from_bandwidths((57_600, 28_800)),
        30.0,
    )
    assert striped.engine == "reference"


def test_engine_resolution():
    program = figure1_program()
    order = estimate_first_use(program)
    assert resolve_engine() == "batched"
    assert resolve_engine(None) == "batched"
    for controller in (
        ParallelController(program, order, T1_LINK, 30.0),
        InterleavedController(program, order),
        CompressedInterleavedController(program, order),
        StrictSequentialController(program),
    ):
        assert resolve_engine(controller) == "batched"
        recorder = TraceRecorder(clock="cycles")
        assert resolve_engine(controller, recorder) == "reference"

    class CustomInterleaved(InterleavedController):
        pass

    for controller in (
        CustomInterleaved(program, order),
        StripedController(program, order, (T1_LINK, MODEM_LINK), 30.0),
    ):
        assert resolve_engine(controller) == "reference"


@pytest.mark.parametrize("kind", ["parallel", "interleaved", "striped"])
def test_rerun_is_identical_recorded_or_not(kind):
    """One Simulator re-run, watched or not, gives the same run: the
    controller's per-run state starts afresh on either loop, and each
    recorder receives the same event stream."""
    item = bundle("Hanoi")
    workload = item.workload
    order = item.order("Test")
    target = restructure(workload.program, order)
    if kind == "parallel":
        controller = ParallelController(
            target, order, MODEM_LINK, workload.cpi, max_streams=4
        )
    elif kind == "interleaved":
        controller = InterleavedController(target, order)
    else:
        controller = StripedController(
            target,
            order,
            links_from_bandwidths((57_600, 28_800)),
            workload.cpi,
        )
    simulator = Simulator(
        target, workload.test_trace, controller, MODEM_LINK, workload.cpi
    )
    recorders = [TraceRecorder(clock="cycles") for _ in range(2)]
    keys = []
    for recorder in (None, recorders[0], recorders[1], None):
        simulator.recorder = recorder
        keys.append(_key(simulator.run()))
    assert keys == [keys[0]] * 4
    assert recorders[0].events
    assert recorders[0].events == recorders[1].events


_SNIPPETS = st.sampled_from(
    [
        "var x = 0; while (x < 8) { x = x + 1; helper(); } print(x);",
        "G.x = 2; helper(); print(G.x * 3); helper();",
        "var a = 1; if (a < 5) { helper(); } print(a);",
        "helper(); helper(); print(9);",
    ]
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=_SNIPPETS, cpi=st.sampled_from([1.0, 12.5, 30.0, 77.0]))
def test_property_random_programs_equivalent(body, cpi):
    """Random programs, fresh traces: both loops agree exactly."""
    source = (
        f"class Main {{ func main() {{ {body} }} "
        "func helper() { var t = 3; print(t); } } "
        "class G { global x = 3; }"
    )
    program = compile_source(source)
    _, recorder = record_run(program)
    order = estimate_first_use(program)
    for method in ("parallel", "interleaved"):
        _assert_nonstrict_matches_oracle(
            program, recorder.trace, order, MODEM_LINK, cpi, method=method
        )
