"""Soundness cross-check: analyzer claims vs the cycle-exact simulator.

For every bundled paper workload and both transfer methodologies, the
analyzer's proofs must hold in simulation:

* a ``PROVEN_NO_STALL`` method never stalls;
* a ``PROVEN_STALL`` or ``GUARANTEED_MISPREDICT`` method always stalls;
* a ``GUARANTEED_MISPREDICT`` method is always demand-fetched.

An adversarial (reversed) first-use order additionally exercises the
misprediction proof: the claims must coincide with the simulator's
demand fetches.
"""

import pytest

from repro import T1_LINK
from repro.analyze import analyze_transfer_plan
from repro.cfg import program_facts
from repro.core import run_nonstrict
from repro.reorder import FirstUseEntry, FirstUseOrder, estimate_first_use
from repro.workloads.spec import PAPER_BENCHMARKS, benchmark_spec
from repro.workloads.synthetic import paper_workload

WORKLOAD_NAMES = [spec.name for spec in PAPER_BENCHMARKS]


@pytest.fixture(scope="module")
def workloads():
    loaded = {}
    for name in WORKLOAD_NAMES:
        loaded[name] = paper_workload(benchmark_spec(name))
    return loaded


def reversed_order(program):
    """An adversarial order: static first-use order, reversed."""
    static = estimate_first_use(program)
    entries = []
    cumulative = 0
    for entry in reversed(static.entries):
        entries.append(
            FirstUseEntry(method=entry.method, bytes_before=cumulative)
        )
        cumulative += 10
    return FirstUseOrder(entries=entries, source="adversarial")


def check_soundness(program, trace, order, link, cpi, methodology):
    report = analyze_transfer_plan(
        program,
        program_facts(program),
        order,
        link,
        cpi,
        methodology=methodology,
        trace=trace,
    )
    result = run_nonstrict(
        program, trace, order, link, cpi, method=methodology
    )
    stalled = {stall.method for stall in result.stalls}
    demand_fetched = {
        entry.method
        for entry in result.latencies.entries
        if entry.demand_fetched
    }
    no_stall = set(report.proven_no_stall)
    proven = set(report.proven_stalls)
    mispredicted = set(report.guaranteed_mispredicts)

    assert not no_stall & stalled, (
        f"{methodology}: PROVEN_NO_STALL methods stalled: "
        f"{sorted(map(str, no_stall & stalled))}"
    )
    assert proven <= stalled, (
        f"{methodology}: PROVEN_STALL methods did not stall: "
        f"{sorted(map(str, proven - stalled))}"
    )
    assert mispredicted <= stalled
    assert mispredicted <= demand_fetched, (
        f"{methodology}: GUARANTEED_MISPREDICT not demand-fetched: "
        f"{sorted(map(str, mispredicted - demand_fetched))}"
    )
    return report, result, demand_fetched


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("methodology", ["parallel", "interleaved"])
def test_paper_workloads_static_order(workloads, name, methodology):
    workload = workloads[name]
    program = workload.program
    order = estimate_first_use(program)
    check_soundness(
        program, workload.test_trace, order, T1_LINK,
        workload.cpi, methodology,
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("methodology", ["parallel", "interleaved"])
def test_paper_workloads_adversarial_order(workloads, name, methodology):
    workload = workloads[name]
    program = workload.program
    order = reversed_order(program)
    check_soundness(
        program, workload.test_trace, order, T1_LINK,
        workload.cpi, methodology,
    )


def test_adversarial_order_yields_mispredict_claims(workloads):
    """The mispredict proof has teeth: a wrong order produces claims,
    and every claim is a simulated demand fetch."""
    workload = workloads["Hanoi"]
    program = workload.program
    order = reversed_order(program)
    report, _, demand_fetched = check_soundness(
        program, workload.test_trace, order, T1_LINK,
        workload.cpi, "parallel",
    )
    claims = set(report.guaranteed_mispredicts)
    assert claims, "expected at least one misprediction claim"
    assert claims <= demand_fetched
