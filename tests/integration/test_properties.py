"""Property-based tests across subsystems.

Random Mini programs are generated structurally (never from raw text),
so every sample is syntactically valid; the properties under test are
semantic: compiled programs verify, run deterministically, and survive
restructuring unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source, estimate_first_use, restructure
from repro.errors import VMError
from repro.linker import verify_class
from repro.transfer import (
    NetworkLink,
    StreamEngine,
    TransferUnit,
    UnitKind,
)
from repro.vm import VirtualMachine

# --- random Mini program generation -----------------------------------

_INT = st.integers(-100, 100)


def _expr(depth: int):
    """An expression strategy over locals a, b and global G.x."""
    leaf = st.one_of(
        _INT.map(str),
        st.sampled_from(["a", "b", "G.x"]),
    )
    if depth <= 0:
        return leaf
    sub = _expr(depth - 1)
    binary = st.tuples(
        sub, st.sampled_from(["+", "-", "*"]), sub
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    compare = st.tuples(
        sub, st.sampled_from(["<", "<=", "==", "!="]), sub
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    return st.one_of(leaf, binary, compare)


def _statement(depth: int):
    expression = _expr(2)
    assign = st.tuples(
        st.sampled_from(["a", "b"]), expression
    ).map(lambda t: f"{t[0]} = {t[1]};")
    global_assign = expression.map(lambda e: f"G.x = {e};")
    print_statement = expression.map(lambda e: f"print({e});")
    if depth <= 0:
        return st.one_of(assign, global_assign, print_statement)
    block = st.lists(
        _statement(depth - 1), min_size=1, max_size=3
    ).map(lambda statements: " ".join(statements))
    if_statement = st.tuples(_expr(1), block).map(
        lambda t: f"if ({t[0]}) {{ {t[1]} }}"
    )
    # Loops use the dedicated counter ``c`` that no other generated
    # statement assigns, so every loop provably terminates (an inner
    # loop leaves c == 0, which only makes the outer loop exit sooner).
    bounded_while = st.tuples(
        st.integers(1, 5), block
    ).map(
        lambda t: (
            f"c = {t[0]}; while (c > 0) {{ {t[1]} c = c - 1; }}"
        )
    )
    return st.one_of(
        assign, global_assign, print_statement, if_statement,
        bounded_while,
    )


@st.composite
def mini_programs(draw):
    body = " ".join(
        draw(st.lists(_statement(2), min_size=1, max_size=6))
    )
    helper_body = " ".join(
        draw(st.lists(_statement(1), min_size=1, max_size=3))
    )
    return (
        "class Main { func main() { var a = 0; var b = 0; var c = 0; "
        f"{body} helper(); }} "
        "func helper() { var a = 1; var b = 1; var c = 0; "
        f"{helper_body} }} }}"
        " class G { global x = 3; }"
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=mini_programs())
def test_random_programs_compile_verify_run(source):
    program = compile_source(source)
    for classfile in program.classes:
        verify_class(classfile)
    try:
        first = VirtualMachine(program, max_instructions=200_000).run()
        second = VirtualMachine(program, max_instructions=200_000).run()
    except VMError as error:
        # Division is not generated, so only the instruction limit can
        # trip — and the generator's loops are bounded, so it must not.
        pytest.fail(f"unexpected VM error: {error}")
    assert first.output == second.output
    assert first.globals == second.globals


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=mini_programs())
def test_restructuring_never_changes_semantics(source):
    program = compile_source(source)
    order = estimate_first_use(program)
    restructured = restructure(program, order)
    original = VirtualMachine(program, max_instructions=200_000).run()
    modified = VirtualMachine(
        restructured, max_instructions=200_000
    ).run()
    assert original.output == modified.output
    assert original.globals == modified.globals
    assert (
        original.instructions_executed == modified.instructions_executed
    )


# --- stream engine conservation ---------------------------------------


@st.composite
def unit_streams(draw):
    count = draw(st.integers(1, 8))
    streams = []
    for index in range(count):
        sizes = draw(
            st.lists(st.integers(1, 5000), min_size=1, max_size=6)
        )
        # Distinct class names per unit keep units unique, matching the
        # plan builders' guarantee (the engine rejects duplicates).
        streams.append(
            [
                TransferUnit(
                    kind=UnitKind.GLOBAL_DATA
                    if position == 0
                    else UnitKind.GLOBAL_UNUSED,
                    class_name=f"c{index}u{position}",
                    size=size,
                )
                for position, size in enumerate(sizes)
            ]
        )
    return streams


@settings(max_examples=60, deadline=None)
@given(
    streams=unit_streams(),
    cycles_per_byte=st.floats(0.5, 5000),
    max_streams=st.one_of(st.none(), st.integers(1, 4)),
)
def test_engine_conserves_bytes_and_orders_arrivals(
    streams, cycles_per_byte, max_streams
):
    link = NetworkLink("prop", cycles_per_byte)
    engine = StreamEngine(link, max_streams=max_streams)
    total = 0
    for index, units in enumerate(streams):
        engine.request_stream(f"s{index}", units)
        total += sum(unit.size for unit in units)
    engine.run_until(total * cycles_per_byte * 2 + 10)

    # Conservation: everything delivered, nothing remaining.
    assert engine.total_delivered == pytest.approx(total, rel=1e-6)
    assert engine.remaining_bytes == pytest.approx(0, abs=1e-3)
    assert engine.idle
    # Every unit arrived exactly once.
    assert len(engine.arrival_times) == sum(
        len(units) for units in streams
    )
    # Within each stream, arrivals are in order.
    for index, units in enumerate(streams):
        times = [engine.arrival_times[unit] for unit in units]
        assert times == sorted(times)
    # Aggregate finish time can never beat the link's raw bandwidth.
    finish = max(engine.arrival_times.values())
    assert finish >= total * cycles_per_byte - 1e-3


@settings(max_examples=40, deadline=None)
@given(
    streams=unit_streams(),
    split_point=st.floats(0.1, 0.9),
)
def test_engine_time_slicing_is_consistent(streams, split_point):
    """Running to T in one call equals running in two calls."""
    link = NetworkLink("prop", 7.0)
    total = sum(
        unit.size for units in streams for unit in units
    )
    horizon = total * 7.0 + 10

    single = StreamEngine(link)
    double = StreamEngine(link)
    for index, units in enumerate(streams):
        single.request_stream(f"s{index}", units)
        double.request_stream(f"s{index}", units)
    single.run_until(horizon)
    double.run_until(horizon * split_point)
    double.run_until(horizon)
    assert single.total_delivered == pytest.approx(
        double.total_delivered, rel=1e-9
    )
    for unit, time in single.arrival_times.items():
        assert double.arrival_times[unit] == pytest.approx(
            time, rel=1e-6, abs=1e-3
        )
