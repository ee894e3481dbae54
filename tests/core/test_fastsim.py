"""The co-simulation core against the oracle loop: bit-identical.

The contract of :mod:`repro.core.fastsim` is *exact* replication —
every cycle count, stall boundary, and per-method first-invocation
latency must equal the oracle loop's floats bit for bit, not
approximately, and a recorded run must emit the oracle's event list,
event for event.  All comparisons below use ``==`` on raw floats on
purpose.  :func:`tests.oracles.simulation_reference.run_reference` is
the oracle; ``Simulator.run`` and the ``run_*`` helpers built on it
take the core, on every policy and link count, recorded or not.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.core import Simulator, run_nonstrict, run_strict
from repro.core.simulation import resolve_engine
from repro.harness import BENCHMARK_NAMES, bundle
from repro.observe import TraceRecorder
from repro.reorder import FirstUseOrder, estimate_first_use, restructure
from repro.reorder.first_use import laid_out_entries
from repro.sched import POLICIES, LinkOutage, StripedController, run_striped
from repro.transfer import (
    MODEM_LINK,
    T1_LINK,
    TransferPolicy,
    links_from_bandwidths,
    program_compression_ratios,
    transfer_layout,
)
from repro.vm import record_run
from repro.workloads import figure1_program
from tests.oracles.simulation_reference import (
    assert_matches_oracle,
    observable,
    run_reference,
)


def _assert_same(batched, reference):
    assert batched.controller_name == reference.controller_name
    assert observable(batched) == observable(reference)


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
    layout = transfer_layout(
        restructure(program, order),
        TransferPolicy.DATA_PARTITIONED
        if data_partitioning
        else TransferPolicy.NON_STRICT,
        order,
    )
    controller = StripedController(
        layout, (link,), policy=method, max_streams=max_streams
    )
    return Simulator(trace, controller, cpi)


def _assert_same_events(batched, reference):
    assert batched.events, "the recorded run emitted nothing"
    assert batched.events == reference.events


def _assert_nonstrict_matches_oracle(program, trace, order, link, cpi, **kwargs):
    """Recorded ``run_nonstrict`` equals the recorded reference loop:
    the same result and the same event list, which is returned."""
    recorders = [TraceRecorder(clock="cycles") for _ in range(2)]
    batched = run_nonstrict(
        program, trace, order, link, cpi, recorder=recorders[0], **kwargs
    )
    simulator = _configured(program, trace, order, link, cpi, **kwargs)
    simulator.recorder = recorders[1]
    _assert_same(batched, run_reference(simulator))
    _assert_same_events(*recorders)
    return recorders[0].events


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
    """Recorded ``run_striped`` on one link equals the recorded oracle
    for the paper's policies, here on the modem with data
    partitioning."""
    item = bundle(name)
    workload = item.workload
    for policy in ("parallel", "interleaved"):
        kwargs = dict(
            max_streams=4 if policy == "parallel" else None,
            data_partitioning=True,
        )
        recorders = [TraceRecorder(clock="cycles") for _ in range(2)]
        striped = run_striped(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            (MODEM_LINK,),
            workload.cpi,
            policy=policy,
            recorder=recorders[0],
            **kwargs,
        )
        simulator = _configured(
            workload.program,
            workload.test_trace,
            item.order("Test"),
            MODEM_LINK,
            workload.cpi,
            method=policy,
            **kwargs,
        )
        simulator.recorder = recorders[1]
        _assert_same(striped, run_reference(simulator))
        _assert_same_events(*recorders)


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


@pytest.mark.parametrize("name", ["Hanoi", "TestDes"])
def test_demand_started_grains_match_the_oracle(name):
    """A reversed first-use order makes execution need classes before
    their watermarks release them, so stalls demand-issue grains
    (``demand_start``), which no Figure 6 configuration does."""
    item = bundle(name)
    workload = item.workload
    order = FirstUseOrder(
        entries=laid_out_entries(
            workload.program, reversed(item.order("SCG").order)
        ),
        source="reversed",
    )
    for max_streams in (None, 1):
        events = _assert_nonstrict_matches_oracle(
            workload.program,
            workload.test_trace,
            order,
            T1_LINK,
            workload.cpi,
            method="parallel",
            max_streams=max_streams,
        )
        assert any(
            event.args.get("action") == "demand_start" for event in events
        ), max_streams


def _strict_simulator(program, trace, link, cpi):
    controller = StripedController(
        transfer_layout(program, TransferPolicy.STRICT),
        (link,),
        policy="strict",
    )
    return Simulator(trace, controller, cpi)


def test_strict_equivalence():
    program = figure1_program()
    _, vm_recorder = record_run(program)
    recorders = [TraceRecorder(clock="cycles") for _ in range(2)]
    batched = run_strict(
        program, vm_recorder.trace, T1_LINK, 30.0, recorder=recorders[0]
    )
    simulator = _strict_simulator(program, vm_recorder.trace, T1_LINK, 30.0)
    simulator.recorder = recorders[1]
    _assert_same(batched, run_reference(simulator))
    _assert_same_events(*recorders)
    workload = bundle("Hanoi").workload
    assert_matches_oracle(
        _strict_simulator(
            workload.program, workload.test_trace, MODEM_LINK, workload.cpi
        )
    )


#: Options callers pass the layout and the controller directly (as
#: ``(layout options, controller options)``): the compression
#: extension and the two ablations.
_DIRECT_OPTIONS = {
    "compressed": lambda target: (
        dict(ratios=program_compression_ratios(target)),
        dict(policy="interleaved"),
    ),
    "eager_start": lambda target: (
        {},
        dict(policy="parallel", eager_start=True),
    ),
    "block_delimiters": lambda target: (
        dict(block_delimiters=True),
        dict(policy="interleaved"),
    ),
}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("kind", sorted(_DIRECT_OPTIONS))
def test_controller_equivalence(kind, name):
    item = bundle(name)
    workload = item.workload
    order = item.order("Test")
    target = restructure(workload.program, order)
    layout_options, options = _DIRECT_OPTIONS[kind](target)
    layout = transfer_layout(
        target, TransferPolicy.NON_STRICT, order, **layout_options
    )
    for link in (T1_LINK, MODEM_LINK):
        controller = StripedController(layout, (link,), **options)
        assert_matches_oracle(
            Simulator(workload.test_trace, controller, workload.cpi)
        )


@pytest.mark.parametrize(
    "options",
    [
        dict(policy="strict"),
        dict(policy="interleaved"),
        dict(policy="parallel"),
        dict(policy="parallel", max_streams=1),
        dict(policy="parallel", max_streams=2, eager_start=True),
    ],
    ids=["strict", "interleaved", "parallel", "parallel-1", "parallel-2-eager"],
)
def test_recorded_one_link_runs_take_the_batched_core(options):
    """A watched one-link run emits the oracle's event list."""
    program = figure1_program()
    _, vm_recorder = record_run(program)
    order = estimate_first_use(program)
    layout = transfer_layout(
        program,
        TransferPolicy.STRICT
        if options["policy"] == "strict"
        else TransferPolicy.NON_STRICT,
        order,
    )
    for link in (T1_LINK, MODEM_LINK):
        controller = StripedController(layout, (link,), **options)
        assert_matches_oracle(Simulator(vm_recorder.trace, controller, 50.0))


@pytest.mark.parametrize(
    "links, policy, options",
    [
        (links_from_bandwidths((57_600, 28_800)), "interleaved", {}),
        (links_from_bandwidths((57_600, 28_800)), "parallel", {}),
        ((T1_LINK,), "round_robin", {}),
        (
            links_from_bandwidths((57_600, 28_800, 14_400)),
            "round_robin",
            dict(escalate=False),
        ),
        (
            links_from_bandwidths((57_600, 28_800)),
            "interleaved",
            dict(outages=(LinkOutage(200_000.0, 0),)),
        ),
    ],
    ids=[
        "two-links-interleaved",
        "two-links-parallel",
        "one-link-round_robin",
        "three-links-round_robin-unescalated",
        "two-links-interleaved-outage",
    ],
)
def test_recorded_striped_and_unit_grain_runs_match_the_oracle(
    links, policy, options
):
    """Several links, unit grains, escalation off and a link outage:
    the recorded run equals the oracle's, ``unit_issued`` and
    ``link_busy`` included."""
    program = figure1_program()
    _, vm_recorder = record_run(program)
    order = estimate_first_use(program)
    layout = transfer_layout(
        restructure(program, order), TransferPolicy.NON_STRICT, order
    )
    controller = StripedController(layout, links, policy=policy, **options)
    _, events = assert_matches_oracle(
        Simulator(vm_recorder.trace, controller, 30.0)
    )
    names = {event.name for event in events}
    assert {"unit_issued", "link_busy"} <= names
    if "outages" in options:
        assert "stripe_rebalance" in names


def test_engine_resolution():
    """``resolve_engine`` names the one loop for every policy and link
    count; only the benchmark harness still reads it."""
    program = figure1_program()
    order = estimate_first_use(program)
    layouts = {
        policy: transfer_layout(program, policy, order)
        for policy in (TransferPolicy.STRICT, TransferPolicy.NON_STRICT)
    }
    assert resolve_engine() == "batched"
    assert resolve_engine(None) == "batched"
    for policy in POLICIES:
        layout = layouts[
            TransferPolicy.STRICT
            if policy == "strict"
            else TransferPolicy.NON_STRICT
        ]
        one = StripedController(layout, (T1_LINK,), policy=policy)
        assert resolve_engine(one) == "batched", policy
        if policy == "strict":
            continue  # one link only
        two = StripedController(
            layout, (T1_LINK, MODEM_LINK), policy=policy
        )
        assert resolve_engine(two) == "batched", policy


@pytest.mark.parametrize("kind", ["parallel", "interleaved", "striped"])
def test_rerun_is_identical_recorded_or_not(kind):
    """One Simulator re-run, watched or not, gives the same run: the
    controller holds no per-run state, and each recorder receives the
    same event stream."""
    item = bundle("Hanoi")
    workload = item.workload
    order = item.order("Test")
    layout = transfer_layout(
        restructure(workload.program, order),
        TransferPolicy.NON_STRICT,
        order,
    )
    if kind == "striped":
        controller = StripedController(
            layout, links_from_bandwidths((57_600, 28_800))
        )
    else:
        controller = StripedController(
            layout,
            (MODEM_LINK,),
            policy=kind,
            max_streams=4 if kind == "parallel" else None,
        )
    simulator = Simulator(workload.test_trace, controller, workload.cpi)
    recorders = [TraceRecorder(clock="cycles") for _ in range(2)]
    keys = []
    for recorder in (None, recorders[0], recorders[1], None):
        simulator.recorder = recorder
        result = simulator.run()
        keys.append(observable(result))
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


# -- drawn one-link parallel configurations ------------------------------

#: Each draw builds and runs a configuration twice, recorded: a fixed,
#: seeded set, so tier-1 runs the same examples each time.
_DRAWN = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _drawn_orders(draw, item):
    order = item.order(draw(st.sampled_from(["SCG", "Train", "Test"])))
    if not draw(st.booleans()):
        return order
    methods = draw(st.permutations(order.order))
    return FirstUseOrder(laid_out_entries(item.workload.program, methods))


@_DRAWN
@given(data=st.data())
def test_drawn_parallel_configurations_match_the_oracle(data):
    """A program (Hanoi, TestDes or JHLZip), a first-use order (SCG,
    Train or Test, or a permutation of one), T1 or modem, a stream
    limit, ``eager_start`` and data partitioning, drawn: recorded
    ``run()`` and the oracle agree on the result and the event
    list."""
    name = data.draw(st.sampled_from(["Hanoi", "TestDes", "JHLZip"]))
    item = bundle(name)
    order = data.draw(_drawn_orders(item), label="order")
    layout = transfer_layout(
        restructure(item.workload.program, order),
        TransferPolicy.DATA_PARTITIONED
        if data.draw(st.booleans(), label="data_partitioning")
        else TransferPolicy.NON_STRICT,
        order,
    )
    controller = StripedController(
        layout,
        (data.draw(st.sampled_from([T1_LINK, MODEM_LINK]), label="link"),),
        policy="parallel",
        max_streams=data.draw(
            st.sampled_from([1, 2, 4, None]), label="max_streams"
        ),
        eager_start=data.draw(st.booleans(), label="eager_start"),
    )
    assert_matches_oracle(
        Simulator(item.workload.test_trace, controller, item.workload.cpi)
    )


# -- drawn multi-link and unit-grain configurations ----------------------

#: A fixed, seeded set of striped draws; each runs the oracle once.
_DRAWN_STRIPES = settings(
    max_examples=800,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Link rates to draw from (bits per second): modem to T1.
_BANDWIDTHS = st.sampled_from([9_600, 14_400, 28_800, 57_600, 1_544_000])


def _figure1():
    program = figure1_program()
    _, vm_recorder = record_run(program)
    return program, vm_recorder.trace, estimate_first_use(program), 30.0


@_DRAWN_STRIPES
@given(data=st.data())
def test_drawn_striped_and_unit_grain_configurations_match_the_oracle(data):
    """A program (Hanoi, TestDes or figure1), a policy (round_robin,
    interleaved or parallel), one to four links at drawn rates, a
    stream limit, data partitioning, and on unit grains escalation and
    up to two link outages, drawn: recorded ``run()`` and the oracle
    agree on the result and the event list, or raise the same typed
    error."""
    name = data.draw(st.sampled_from(["Hanoi", "TestDes", "figure1"]))
    if name == "figure1":
        program, trace, order, cpi = _figure1()
    else:
        item = bundle(name)
        program, trace, cpi = (
            item.workload.program,
            item.workload.test_trace,
            item.workload.cpi,
        )
        order = item.order(
            data.draw(st.sampled_from(["SCG", "Train", "Test"]), label="order")
        )
    layout = transfer_layout(
        restructure(program, order),
        TransferPolicy.DATA_PARTITIONED
        if data.draw(st.booleans(), label="data_partitioning")
        else TransferPolicy.NON_STRICT,
        order,
    )
    policy = data.draw(
        st.sampled_from(["round_robin", "interleaved", "parallel"]),
        label="policy",
    )
    links = links_from_bandwidths(
        data.draw(st.lists(_BANDWIDTHS, min_size=1, max_size=4), label="bps")
    )
    options = dict(
        max_streams=data.draw(
            st.sampled_from([1, 2, 4, None]), label="max_streams"
        ),
        escalate=data.draw(st.booleans(), label="escalate"),
    )
    if policy == "round_robin" or (policy == "interleaved" and len(links) > 1):
        # Outages within the time it takes the slowest link to carry
        # the whole sequence.
        horizon = sum(unit.size for unit in layout.sequence()) * max(
            link.cycles_per_byte for link in links
        )
        options["outages"] = data.draw(
            st.lists(
                st.builds(
                    LinkOutage,
                    st.floats(0.0, 1.0).map(lambda share: share * horizon),
                    st.integers(0, len(links) - 1),
                ),
                max_size=2,
            ),
            label="outages",
        )
    controller = StripedController(layout, links, policy=policy, **options)
    assert_matches_oracle(Simulator(trace, controller, cpi))
