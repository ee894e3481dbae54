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
from repro.sched import POLICIES, StripedController, run_striped
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    links_from_bandwidths,
    program_compression_ratios,
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
    controller = StripedController(
        target,
        order,
        (link,),
        policy=method,
        max_streams=max_streams,
        data_partitioning=data_partitioning,
    )
    return Simulator(target, trace, controller, cpi)


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
    """``run_striped`` on one link takes the batched cores for the
    paper's policies and equals the reference loop, here on the modem
    with data partitioning."""
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
        reference = _configured(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            MODEM_LINK,
            workload.cpi,
            method=policy,
            **kwargs,
        ).run_reference()
        _assert_same(striped, reference)


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


def _strict_simulator(program, trace, link, cpi):
    controller = StripedController(
        program, None, (link,), policy="strict"
    )
    return Simulator(program, trace, controller, cpi)


def test_strict_equivalence():
    program = figure1_program()
    _, recorder = record_run(program)
    batched = run_strict(program, recorder.trace, T1_LINK, 30.0)
    reference = _strict_simulator(
        program, recorder.trace, T1_LINK, 30.0
    ).run_reference()
    _assert_same(batched, reference)
    workload = bundle("Hanoi").workload
    simulator = _strict_simulator(
        workload.program, workload.test_trace, MODEM_LINK, workload.cpi
    )
    _assert_same(simulator.run(), simulator.run_reference())


#: Options callers pass the controller directly: the compression
#: extension and the two ablations.
_DIRECT_OPTIONS = {
    "compressed": lambda target: dict(
        policy="interleaved", ratios=program_compression_ratios(target)
    ),
    "eager_start": lambda target: dict(
        policy="parallel", eager_start=True
    ),
    "block_delimiters": lambda target: dict(
        policy="interleaved", block_delimiters=True
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("kind", sorted(_DIRECT_OPTIONS))
def test_controller_equivalence(kind, name):
    item = bundle(name)
    workload = item.workload
    order = item.order("Test")
    target = restructure(workload.program, order)
    options = _DIRECT_OPTIONS[kind](target)
    for link in (T1_LINK, MODEM_LINK):
        controller = StripedController(
            target, order, (link,), **options
        )
        simulator = Simulator(
            target, workload.test_trace, controller, workload.cpi
        )
        _assert_same(simulator.run(), simulator.run_reference())


def test_recorder_runs_use_reference_loop():
    """A recorder selects the reference loop, which emits the event
    stream; the same run unrecorded takes a batched core and gives
    identical results.  Runs over several links always take the
    reference loop."""
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
    """Policy × link count × recorder × subclass: only unrecorded
    one-link strict, parallel and interleaved runs of the controller
    itself take a batched core."""
    program = figure1_program()
    order = estimate_first_use(program)
    recorder = TraceRecorder(clock="cycles")
    assert resolve_engine() == "batched"
    assert resolve_engine(None) == "batched"
    assert resolve_engine(None, recorder) == "reference"

    class CustomController(StripedController):
        pass

    for policy in POLICIES:
        batched = policy in ("strict", "parallel", "interleaved")
        one = StripedController(
            program, order, (T1_LINK,), policy=policy
        )
        assert resolve_engine(one) == (
            "batched" if batched else "reference"
        ), policy
        assert resolve_engine(one, recorder) == "reference", policy
        custom = CustomController(
            program, order, (T1_LINK,), policy=policy
        )
        assert resolve_engine(custom) == "reference", policy
        if policy == "strict":
            continue  # one link only
        two = StripedController(
            program, order, (T1_LINK, MODEM_LINK), policy=policy
        )
        assert resolve_engine(two) == "reference", policy
        assert resolve_engine(two, recorder) == "reference", policy


@pytest.mark.parametrize("kind", ["parallel", "interleaved", "striped"])
def test_rerun_is_identical_recorded_or_not(kind):
    """One Simulator re-run, watched or not, gives the same run: the
    controller's per-run state starts afresh on either loop, and each
    recorder receives the same event stream."""
    item = bundle("Hanoi")
    workload = item.workload
    order = item.order("Test")
    target = restructure(workload.program, order)
    if kind == "striped":
        controller = StripedController(
            target,
            order,
            links_from_bandwidths((57_600, 28_800)),
        )
    else:
        controller = StripedController(
            target,
            order,
            (MODEM_LINK,),
            policy=kind,
            max_streams=4 if kind == "parallel" else None,
        )
    simulator = Simulator(
        target, workload.test_trace, controller, workload.cpi
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
