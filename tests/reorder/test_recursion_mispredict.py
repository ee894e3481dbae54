"""Static estimation on recursive call graphs, cross-checked against
the analyzer's misprediction report and the simulator's demand fetches.

The static estimator must terminate and produce a total order on
(mutually) recursive call graphs, and — the analyzer/simulator
agreement the paper's pipeline relies on — the set of methods the
analyzer proves mispredicted must match the demand fetches the
cycle-exact simulator actually performs.
"""

from repro import T1_LINK, record_run
from repro.analyze import analyze_transfer_plan
from repro.cfg import program_facts
from repro.core import run_nonstrict
from repro.reorder import FirstUseEntry, FirstUseOrder, estimate_first_use
from repro.workloads import fibonacci_program, mutual_recursion_program

CPI = 30.0


def demand_fetch_agreement(program, order):
    """(analyzer mispredict set, simulator demand-fetch set)."""
    _, recorder = record_run(program)
    trace = recorder.trace
    report = analyze_transfer_plan(
        program,
        program_facts(program),
        order,
        T1_LINK,
        CPI,
        methodology="parallel",
        trace=trace,
    )
    result = run_nonstrict(
        program, trace, order, T1_LINK, CPI, method="parallel"
    )
    demand_fetched = {
        entry.method
        for entry in result.latencies.entries
        if entry.demand_fetched
    }
    return set(report.guaranteed_mispredicts), demand_fetched


def test_estimator_terminates_on_direct_recursion():
    program = fibonacci_program()
    order = estimate_first_use(program)
    order.validate_against(program)
    assert order.order[0] == program.resolve_entry()
    assert any(
        entry.method.method_name == "fib" for entry in order.entries
    )


def test_estimator_terminates_on_mutual_recursion():
    program = mutual_recursion_program()
    order = estimate_first_use(program)
    order.validate_against(program)
    names = {entry.method.method_name for entry in order.entries}
    assert {"main"} < names and len(names) >= 3


def test_recursive_static_order_agrees_with_simulation():
    for program in (fibonacci_program(), mutual_recursion_program()):
        order = estimate_first_use(program)
        claims, demand = demand_fetch_agreement(program, order)
        # The static order predicts these tiny programs perfectly: the
        # analyzer claims no mispredictions and the simulator performs
        # no demand fetches — exact agreement, not just containment.
        assert claims == demand == set()


def test_adversarial_order_mispredicts_match_demand_fetches():
    program = mutual_recursion_program()
    static = estimate_first_use(program)
    entries = []
    cumulative = 0
    for entry in reversed(static.entries):
        entries.append(
            FirstUseEntry(method=entry.method, bytes_before=cumulative)
        )
        cumulative += 10
    order = FirstUseOrder(entries=entries, source="adversarial")
    claims, demand = demand_fetch_agreement(program, order)
    # Soundness: every claim is a real demand fetch.
    assert claims <= demand
