"""Interprocedural first-use work lower bounds (the static work model)."""

import math

from repro import MethodId, record_run
from repro.analyze import first_use_lower_bounds
from repro.cfg import program_facts
from repro.lang import compile_source
from repro.workloads import (
    fibonacci_program,
    figure1_program,
    mutual_recursion_program,
)


def test_figure1_bounds_are_exact_shortest_work():
    program = figure1_program()
    bounds = first_use_lower_bounds(program, program_facts(program))
    assert bounds.bound(MethodId("A", "main")) == 0.0
    # Figure 1's call structure: main loops, calling Bar_B first.
    assert bounds.bound(MethodId("B", "Bar_B")) == 6.0
    assert bounds.bound(MethodId("A", "Bar_A")) == 12.0
    assert bounds.bound(MethodId("A", "Foo_A")) == 16.0
    assert bounds.bound(MethodId("B", "Foo_B")) == 18.0


def test_bounds_never_exceed_observed_first_use():
    for program in (
        figure1_program(),
        fibonacci_program(),
        mutual_recursion_program(),
    ):
        bounds = first_use_lower_bounds(program, program_facts(program))
        _, recorder = record_run(program)
        for event in recorder.profile.events:
            assert (
                bounds.bound(event.method)
                <= event.dynamic_instructions_before
            ), event.method


def test_recursive_call_graphs_get_finite_bounds():
    for program in (fibonacci_program(), mutual_recursion_program()):
        bounds = first_use_lower_bounds(program, program_facts(program))
        for method_id in program.method_ids():
            assert bounds.reachable(method_id)
            assert math.isfinite(bounds.bound(method_id))


def test_unreachable_method_is_infinite():
    program = compile_source(
        """
        class A {
          func main() { print(1); }
          func orphan(x) { return x + 1; }
        }
        """
    )
    bounds = first_use_lower_bounds(program, program_facts(program))
    assert bounds.bound(MethodId("A", "main")) == 0.0
    assert not bounds.reachable(MethodId("A", "orphan"))
    assert bounds.bound(MethodId("A", "orphan")) == math.inf
