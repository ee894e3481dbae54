"""Calibrated synthetic equivalents of the paper's six benchmarks.

The original 1998 binaries are unobtainable, so each benchmark is
regenerated as a *structurally real* program — genuine class files with
verifiable bytecode, call graphs, loops, constant pools — whose
aggregate statistics match the published Tables 1, 2, 3, and 9:

* file count, method count, static instruction count, per-method size
  distribution;
* local vs. global data bytes, and the needed-first / in-methods /
  unused split of the global data (which the generator hits by padding
  fields, LDC-referenced constants, and unreferenced pool entries);
* dynamic instruction counts for a *test* and a smaller *train* input,
  realized as execution traces whose first-use order, method coverage,
  and train/test divergence mimic real input-dependence.

Generation is deterministic per benchmark name (seeded RNG), so every
experiment is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bytecode import CodeBuilder, Opcode
from ..classfile import ClassFileBuilder, FieldInfo, class_layout
from ..datapart import partition_class
from ..errors import WorkloadError
from ..program import MethodId, Program
from ..vm import ExecutionTrace, TraceSegment
from ..reorder.static_estimator import estimate_first_use
from .spec import BenchmarkSpec, benchmark_spec

__all__ = ["SyntheticWorkload", "generate_workload", "paper_workload"]

#: Window from which each method's caller is drawn (recent methods).
_PARENT_WINDOW = 10
#: Fraction of a method's dynamic budget spent at its first use.
_FIRST_USE_FRACTION = (0.25, 0.6)
#: Probability that a call site is wrapped in a conditional.
_CONDITIONAL_CALL_PROB = 0.35


@dataclass
class SyntheticWorkload:
    """One generated benchmark: program plus test/train traces.

    Attributes:
        spec: The published statistics this workload was calibrated to.
        program: The generated program (original textual layout).
        test_trace: Execution trace of the *test* input.
        train_trace: Execution trace of the *train* input.
    """

    spec: BenchmarkSpec
    program: Program
    test_trace: ExecutionTrace
    train_trace: ExecutionTrace

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def cpi(self) -> float:
        return self.spec.cpi


@dataclass
class _MethodPlan:
    """Blueprint for one generated method."""

    index: int
    class_index: int
    name: str
    instructions: int
    children: List[int]
    ldc_bytes: int = 0
    local_payload: int = 0
    loops: bool = True
    is_cold: bool = False

    @property
    def method_name(self) -> str:
        return self.name


def _distribute(total: int, weights: Sequence[float]) -> List[int]:
    """Integer split of ``total`` proportional to ``weights``."""
    weight_sum = sum(weights) or 1.0
    shares = [int(total * weight / weight_sum) for weight in weights]
    remainder = total - sum(shares)
    order = sorted(
        range(len(weights)), key=lambda i: weights[i], reverse=True
    )
    for position in range(remainder):
        shares[order[position % len(order)]] += 1
    return shares


def _method_sizes(
    rng: random.Random, spec: BenchmarkSpec
) -> List[int]:
    """Per-method static instruction counts (lognormal, calibrated)."""
    sigma = 0.75 if spec.instructions_per_method < 60 else 1.0
    weights = [rng.lognormvariate(0.0, sigma) for _ in range(spec.total_methods)]
    sizes = _distribute(spec.static_instructions, weights)
    # Each method needs room for its fixed prologue/epilogue; pay for
    # the flooring by trimming the largest methods so the total holds.
    floor = 5
    sizes = [max(floor, size) for size in sizes]
    excess = sum(sizes) - spec.static_instructions
    for index in sorted(
        range(len(sizes)), key=lambda i: sizes[i], reverse=True
    ):
        if excess <= 0:
            break
        trim = min(excess, sizes[index] - floor)
        sizes[index] -= trim
        excess -= trim
    return sizes


def _assign_classes(
    rng: random.Random, spec: BenchmarkSpec
) -> List[int]:
    """Class index per method: contiguous bands with light noise.

    Real programs are modular: a class's methods are first used close
    together, and a feature the input never exercises leaves *whole
    classes* untouched — which is what lets non-strict transfer skip
    their global data entirely.  Methods therefore fill classes in
    call-graph-order bands, with a small probability of jumping to a
    different partially-filled class.
    """
    quotas = _distribute(
        spec.total_methods, [1.0] * spec.total_files
    )
    remaining = list(quotas)
    assignment: List[int] = []
    current = 0
    for _ in range(spec.total_methods):
        if remaining[current] <= 0 or rng.random() < 0.05:
            started = [
                index
                for index, count in enumerate(remaining)
                if count > 0 and count < quotas[index]
            ]
            if started and rng.random() < 0.35:
                current = rng.choice(started)
            else:
                current = next(
                    index
                    for index, count in enumerate(remaining)
                    if count > 0
                )
        assignment.append(current)
        remaining[current] -= 1
    # Method 0 is main and must live in the entry class (class 0).
    if assignment[0] != 0:
        swap = assignment.index(0)
        assignment[0], assignment[swap] = assignment[swap], assignment[0]
    return assignment


def _inflate_main(
    spec: BenchmarkSpec, sizes: List[int], class_of: Sequence[int]
) -> None:
    """Grow ``main`` to ``spec.main_fraction`` of its class.

    Instructions are taken from the entry class's other methods so
    class and program totals are unchanged.  Models programs whose
    first class is dominated by one huge procedure (the paper's
    TestDes), for which method-level non-strictness cannot shrink the
    invocation latency much.
    """
    if spec.main_fraction <= 0:
        return
    entry_methods = [
        index
        for index in range(spec.total_methods)
        if class_of[index] == 0
    ]
    entry_total = sum(sizes[index] for index in entry_methods)
    target = int(spec.main_fraction * entry_total)
    floor = 5
    for index in entry_methods:
        if index == 0:
            continue
        if sizes[0] >= target:
            break
        take = min(sizes[index] - floor, target - sizes[0])
        if take > 0:
            sizes[index] -= take
            sizes[0] += take


def _call_capacity(
    sizes: Sequence[int], loops_flags: Sequence[bool], index: int
) -> int:
    """How many 3-instruction call sites method ``index`` can emit.

    Mirrors :func:`_emit_body`'s budget: epilogue (2) plus the loop
    scaffold (prologue 2 + header 2 + latch 5) when the body loops,
    with each plain call costing 3 instructions.
    """
    reserved = 2
    if loops_flags[index] and sizes[index] >= 20:
        reserved += 9
    return max(0, (sizes[index] - reserved) // 3)


def _build_call_tree(
    rng: random.Random,
    count: int,
    sizes: List[int],
    loops_flags: Sequence[bool],
) -> List[List[int]]:
    """children[i] = methods whose first caller is i.

    The tree is built so that its depth-first traversal (children in
    creation order) is exactly ``0, 1, 2, ...`` — because in a real
    program the first-use order *is* the depth-first unfolding of the
    dynamic call tree, and that consistency is what gives the paper's
    static estimator its predictive power.  Each new method's parent is
    drawn from the current DFS spine (the entry, its active callee, and
    so on down), biased toward the deep end — like a program
    initializing subsystem after subsystem.

    Capacity-aware: a parent only takes children its body can host as
    3-instruction call sites (so every method stays statically
    reachable); if the whole spine is full, the deepest spine node is
    grown by one call site, paid for by trimming the largest method.
    """
    children: List[List[int]] = [[] for _ in range(count)]
    spine: List[int] = [0]
    for index in range(1, count):
        candidates = [
            node
            for node in spine
            if len(children[node])
            < _call_capacity(sizes, loops_flags, node)
        ]
        if not candidates:
            # Grow the deepest spine node's body by one call site and
            # reclaim the instructions from the largest method so the
            # program total stays calibrated.
            parent = spine[-1]
            donor = max(
                range(count),
                key=lambda i: sizes[i] if i != parent else -1,
            )
            take = min(3, max(0, sizes[donor] - 8))
            sizes[donor] -= take
            sizes[parent] += 3
        else:
            # Bias toward the deep end of the spine: a running program
            # mostly calls new code from where it currently is.
            weights = [
                (position + 1) ** 2
                for position in range(len(candidates))
            ]
            parent = rng.choices(candidates, weights=weights)[0]
        children[parent].append(index)
        spine = spine[: spine.index(parent) + 1] + [index]
    return children


def _balance_cold_sizes(
    spec: BenchmarkSpec,
    sizes: List[int],
    used: Set[int],
    min_sizes: Optional[Sequence[int]] = None,
) -> None:
    """Swap size draws so cold instructions match Table 2's % executed.

    The used/cold *membership* is positional (cold code clusters late),
    but the lognormal size draws are independent of position, so the
    cold set's instruction share can land off target — visibly so when
    only one or two methods are cold.  Swapping size values between a
    cold and a used method fixes the share without disturbing either
    the membership structure or the total instruction count.  Swaps
    respect each method's minimum size (its call sites must still fit).
    """
    total = sum(sizes)
    cold_target = (100.0 - spec.percent_static_executed) / 100.0 * total
    floors = list(min_sizes) if min_sizes else [5] * len(sizes)

    def swappable(donor: int, receiver: int) -> bool:
        return (
            sizes[receiver] >= floors[donor]
            and sizes[donor] >= floors[receiver]
        )

    cold = [index for index in range(len(sizes)) if index not in used]
    hot = [index for index in range(1, len(sizes)) if index in used]
    if not cold or not hot:
        return
    for _ in range(len(sizes)):
        cold_sum = sum(sizes[index] for index in cold)
        error = cold_sum - cold_target
        if abs(error) <= 0.02 * total:
            return
        if error > 0:
            donor = max(cold, key=lambda index: sizes[index])
            fits = [r for r in hot if swappable(donor, r)]
            if not fits:
                return
            receiver = min(fits, key=lambda index: sizes[index])
        else:
            donor = min(cold, key=lambda index: sizes[index])
            fits = [r for r in hot if swappable(donor, r)]
            if not fits:
                return
            receiver = max(fits, key=lambda index: sizes[index])
        improvement = abs(sizes[donor] - sizes[receiver])
        if improvement == 0 or improvement > 2 * abs(error):
            # Find the best partial swap instead of overshooting.
            best = None
            for candidate in hot:
                if not swappable(donor, candidate):
                    continue
                delta = sizes[donor] - sizes[candidate]
                if delta == 0:
                    continue
                if error > 0 and 0 <= delta <= 2 * error:
                    if best is None or delta > sizes[donor] - sizes[best]:
                        best = candidate
                if error < 0 and 2 * error <= delta <= 0:
                    if best is None or delta < sizes[donor] - sizes[best]:
                        best = candidate
            if best is None:
                return
            receiver = best
        sizes[donor], sizes[receiver] = sizes[receiver], sizes[donor]


def _inject_cold_parents(
    rng: random.Random,
    spec: BenchmarkSpec,
    children: List[List[int]],
    used: Set[int],
    sizes: Optional[Sequence[int]] = None,
    loops_flags: Optional[Sequence[bool]] = None,
    scg_rank: Optional[Dict[int, int]] = None,
) -> None:
    """Rewire a few used methods' call sites into the cold region.

    Models dispatch the static call graph cannot see (reflection,
    virtual calls): the method still runs early, but the static
    estimator only finds its call site inside a never-executed method
    just past the hot/cold boundary — so the SCG ordering places it
    late, while a profile places it correctly.
    """
    count = spec.total_methods
    cold = sorted(index for index in range(1, count) if index not in used)
    if len(cold) < max(12, int(0.04 * count)):
        # A near-total-coverage input leaves only a sliver of cold
        # code; hiding call sites inside it would force that sliver
        # (and any data it carries) into every prediction's prefix —
        # a pathology real programs with tiny cold sets do not show.
        return
    # Cold region just past the boundary: plausible homes with room
    # left for one more call site.  "Just past" is judged in static-
    # order space when the rank is available, so a victim's mispredicted
    # position lands near the hot/cold boundary rather than at the very
    # end of the stream.
    if scg_rank:
        by_rank = sorted(
            cold, key=lambda index: scg_rank.get(index, index)
        )
        near_cold = by_rank[: max(1, len(by_rank) // 4)]
    else:
        near_cold = cold[: max(1, len(cold) // 4)]
    if sizes is not None and loops_flags is not None:
        near_cold = [
            index
            for index in near_cold
            if len(children[index])
            < _call_capacity(sizes, loops_flags, index)
        ]
        if not near_cold:
            return
    # Victims are *leaves*: a reflectively-reached method with its own
    # statically-visible subtree would drag that whole subtree into the
    # cold region, overstating how wrong real static analysis gets.
    candidates = [
        index
        for index in sorted(used)
        if index > count // 10 and not children[index]
    ]
    rng.shuffle(candidates)
    victims = candidates[: max(1, int(0.015 * len(used)))]

    parent_of: Dict[int, int] = {}
    for parent, child_list in enumerate(children):
        for child in child_list:
            parent_of[child] = parent

    def is_descendant(node: int, ancestor: int) -> bool:
        current = node
        while current in parent_of:
            current = parent_of[current]
            if current == ancestor:
                return True
        return False

    for victim in victims:
        new_parent = rng.choice(near_cold)
        if victim in children[new_parent]:
            continue
        # Re-parenting under the victim's own descendant would detach
        # a cycle from the call tree (statically unreachable code).
        if new_parent == victim or is_descendant(new_parent, victim):
            continue
        if sizes is not None and loops_flags is not None:
            if len(children[new_parent]) >= _call_capacity(
                sizes, loops_flags, new_parent
            ):
                continue
        old_parent = parent_of.get(victim)
        if old_parent is not None:
            children[old_parent].remove(victim)
        children[new_parent].append(victim)
        parent_of[victim] = new_parent


def _choose_used(
    rng: random.Random,
    spec: BenchmarkSpec,
    sizes: Sequence[int],
    scg_rank: Optional[Dict[int, int]] = None,
) -> Set[int]:
    """Pick the set of methods the test input executes.

    Cold code clusters: in real programs, never-executed methods are
    predominantly the ones reached late (or not at all) by the static
    traversal — error handlers and rarely-taken features — which is why
    the paper's static estimator profits from ordering them last.  The
    selection is therefore strongly biased toward *early* call-graph
    positions, with enough scatter that the static estimator still
    mispredicts some of the time.  Sized so used static instructions
    match Table 2's '% executed' column.
    """
    target = spec.percent_static_executed / 100.0 * sum(sizes)
    count = spec.total_methods
    # Prefix by call-graph position, fuzzed only near the boundary: a
    # method well before the cut is used, well after it is cold, and a
    # band around it (3% of the program) goes either way.  At least one
    # method always stays cold (every real input leaves something out).
    band = max(2, int(0.03 * count))
    reserve = max(1, int(0.01 * count))
    # The reserved always-cold methods are the ones the static
    # estimator orders *last* (deepest statically-unreachable-looking
    # code), so concentrated cold data cannot ambush the prediction.
    if scg_rank:
        reserved = set(
            sorted(
                range(1, count),
                key=lambda index: scg_rank.get(index, index),
            )[-reserve:]
        )
    else:
        reserved = set(range(count - reserve, count))
    used = {0}
    used_instructions = sizes[0]
    cursor = 1
    while (
        used_instructions < target
        and cursor < count
        and len(used) < count - reserve
    ):
        if rng.random() < 0.5:
            index = cursor
            cursor += 1
        else:
            index = min(count - 1, cursor + rng.randrange(band))
        if index in used or index in reserved:
            cursor += 1 if index == cursor else 0
            continue
        used.add(index)
        used_instructions += sizes[index]
    # Sweep any boundary holes the fuzz left behind.
    for index in range(1, count):
        if used_instructions >= target:
            break
        if index not in used and index not in reserved:
            used.add(index)
            used_instructions += sizes[index]
    return used


def _emit_body(
    builder: CodeBuilder,
    rng: random.Random,
    plan: _MethodPlan,
    make_call_ref,
    ldc_constants: Sequence[Tuple[str, bool]],
    make_ldc_index,
    target_instructions: int,
    state_field_ref: Optional[int] = None,
) -> None:
    """Emit a verifiable body with exactly ``target_instructions``
    instructions.

    Layout: an optional counted loop wrapping the call sites (food for
    the static estimator's loop-priority heuristic), conditional
    wrappers around some calls, LDC references to this method's share
    of the global data, and balanced filler.  ``make_call_ref`` interns
    a callee's MethodRef lazily, so only emitted calls add pool
    entries.
    """
    emitted = 0

    def emit(opcode: Opcode, *operands: int) -> None:
        nonlocal emitted
        builder.emit(opcode, *operands)
        emitted += 1

    loop_label = None
    end_label = None
    # Instructions that must come after the main body.
    reserved = 2  # epilogue: load 0 + ireturn
    use_loop = plan.loops and target_instructions >= 20
    if use_loop:
        reserved += 5  # latch: load, iconst, sub, store, goto
        emit(Opcode.ICONST, 2 + rng.randrange(3))
        emit(Opcode.STORE, 1)
        loop_label = builder.new_label("loop")
        end_label = builder.new_label("end")
        builder.bind(loop_label)
        emit(Opcode.LOAD, 1)
        builder.branch(Opcode.IFLE, end_label)
        emitted += 1

    def room() -> int:
        return target_instructions - reserved - emitted

    for position, callee in enumerate(plan.resolved_children):
        # A conditional wrapper costs 5 instructions instead of 3;
        # never let it starve the calls still to come (every child must
        # keep its call site, or it goes statically unreachable).
        remaining_calls = len(plan.resolved_children) - position - 1
        conditional = (
            rng.random() < _CONDITIONAL_CALL_PROB
            and room() >= 5 + 3 * remaining_calls
        )
        cost = 5 if conditional else 3
        if room() < cost:
            break
        ref = make_call_ref(callee)
        if conditional:
            skip = builder.new_label("skip")
            emit(Opcode.LOAD, 0)
            builder.branch(Opcode.IFLE, skip)
            emitted += 1
            emit(Opcode.ICONST, rng.randrange(16))
            emit(Opcode.CALL, ref)
            emit(Opcode.POP)
            builder.bind(skip)
        else:
            emit(Opcode.ICONST, rng.randrange(16))
            emit(Opcode.CALL, ref)
            emit(Opcode.POP)

    for constant in ldc_constants:
        if room() < 2:
            break
        emit(Opcode.LDC, make_ldc_index(constant))
        emit(Opcode.POP)

    # Touch the class's state field so its FieldRef chain is live.
    if state_field_ref is not None and room() >= 2:
        emit(Opcode.GETSTATIC, state_field_ref)
        emit(Opcode.POP)

    # Hot code is compact (tight loops of short ops); cold code is
    # constant-laden and verbose — which is how real programs end up
    # with far more cold *bytes* than cold *instructions*.
    if plan.is_cold:
        while room() >= 2:
            emit(Opcode.ICONST, rng.randrange(256))
            emit(Opcode.POP)
        if room() == 1:
            emit(Opcode.NOP)
    else:
        while room() >= 1:
            emit(Opcode.NOP)

    if use_loop:
        emit(Opcode.LOAD, 1)
        emit(Opcode.ICONST, 1)
        emit(Opcode.SUB)
        emit(Opcode.STORE, 1)
        builder.branch(Opcode.GOTO, loop_label)
        emitted += 1
        builder.bind(end_label)

    emit(Opcode.LOAD, 0)
    emit(Opcode.IRETURN)


def _pad_string(rng: random.Random, length: int) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEF/$_0123456789"
    return "".join(rng.choice(alphabet) for _ in range(length))


def _build_class(
    class_seed: float,
    spec: BenchmarkSpec,
    class_index: int,
    plans: Sequence[_MethodPlan],
    class_names: Sequence[str],
    ldc_plan: Optional[Dict[int, List[Tuple[str, bool]]]] = None,
):
    """Build one class; ``ldc_plan`` carries pass-2 padding constants.

    Every method gets its own RNG seeded from ``(class_seed, index)``,
    so a body is bit-identical across build passes regardless of what
    its siblings look like — which keeps the static estimator's view of
    the final program equal to the base pass's.
    """
    builder = ClassFileBuilder(class_names[class_index])
    builder.add_field(f"state{class_index}", initial_value=0)
    state_ref = builder.field_ref(
        class_names[class_index], f"state{class_index}"
    )
    for plan in plans:
        method_rng = random.Random(f"{class_seed}:{plan.index}")

        def make_call_ref(callee, _builder=builder):
            callee_class, callee_name = callee
            return _builder.method_ref(
                class_names[callee_class], callee_name, "(I)I"
            )

        ldc_constants: List[Tuple[str, bool]] = []
        if ldc_plan and plan.index in ldc_plan:
            ldc_constants = list(ldc_plan[plan.index])

        def make_ldc_index(constant, _builder=builder, _rng=method_rng):
            payload, is_int = constant
            if is_int:
                return _builder.constant_pool.add_integer(
                    _rng.randrange(2**31)
                )
            return _builder.add_string_constant(payload)
        body = CodeBuilder()
        descriptor = "()V" if plan.index == 0 else "(I)I"
        _emit_body(
            body,
            method_rng,
            plan,
            make_call_ref,
            ldc_constants,
            make_ldc_index,
            plan.instructions,
            state_field_ref=state_ref,
        )
        instructions = body.build()
        if plan.index == 0:
            # main is ()V: rewrite the epilogue to a plain return.
            instructions = instructions[:-2] + [
                instructions[-2].__class__(Opcode.RETURN)
            ]
        builder.add_method(
            plan.name,
            descriptor,
            instructions,
            max_stack=8,
            max_locals=4,
            local_data=b"\xd7" * plan.local_payload,
        )
    return builder


@lru_cache(maxsize=None)
def generate_workload(
    name: str, seed: Optional[int] = None
) -> SyntheticWorkload:
    """Generate (and cache) the calibrated workload for a benchmark.

    Args:
        name: A paper benchmark name (``BIT``, ``Hanoi``, ...).
        seed: Override the deterministic per-name seed.
    """
    spec = benchmark_spec(name)
    return _generate(spec, seed)


def paper_workload(spec: BenchmarkSpec) -> SyntheticWorkload:
    """Generate a workload for an arbitrary (possibly custom) spec."""
    return _generate(spec, None)


def _generate(
    spec: BenchmarkSpec, seed: Optional[int]
) -> SyntheticWorkload:
    rng = random.Random(
        seed if seed is not None else _stable_seed(spec.name)
    )
    sizes = _method_sizes(rng, spec)
    class_of = _assign_classes(rng, spec)
    _inflate_main(spec, sizes, class_of)
    loops_flags = [
        rng.random() < 0.7 for _ in range(spec.total_methods)
    ]
    children = _build_call_tree(
        rng, spec.total_methods, sizes, loops_flags
    )

    class_names = [
        f"{spec.name.lower()}/C{index}" for index in range(spec.total_files)
    ]
    method_names = [
        "main" if index == 0 else f"m{index}"
        for index in range(spec.total_methods)
    ]

    # Structural randomness is drawn ONCE and reused by every build
    # pass, so the base pass (which fixes the static estimator's view)
    # and the final pass produce identical call structure.
    # Call sites appear in slightly perturbed order so the static
    # estimator is good but not perfect.  Only call sites with *small*
    # subtrees are perturbed: the paper's loop-priority heuristics are
    # built to get the big branches right, so real estimation errors
    # are many-and-small, not whole-subsystem transpositions.
    subtree = [1] * spec.total_methods
    for index in range(spec.total_methods - 1, 0, -1):
        for child in children[index]:
            subtree[index] += subtree[child]
    for child in children[0]:
        subtree[0] += subtree[child]
    small = max(3, int(0.02 * spec.total_methods))
    call_orders: List[List[int]] = []
    for index in range(spec.total_methods):
        order = list(children[index])
        for position in range(len(order) - 1):
            if (
                rng.random() < 0.12
                and subtree[order[position]] <= small
                and subtree[order[position + 1]] <= small
            ):
                order[position], order[position + 1] = (
                    order[position + 1],
                    order[position],
                )
        call_orders.append(order)
    class_seeds = [rng.random() for _ in range(spec.total_files)]
    # Textual (source) order within a class is what the author wrote —
    # uncorrelated with first-use order.  Decided once; restructuring
    # re-sorts by first use anyway.
    textual_orders: List[List[int]] = [
        [] for _ in range(spec.total_files)
    ]
    for index in range(spec.total_methods):
        textual_orders[class_of[index]].append(index)
    for order in textual_orders:
        rng.shuffle(order)

    def make_plans(used_set):
        plan_of = {}
        for index in range(spec.total_methods):
            plan = _MethodPlan(
                index=index,
                class_index=class_of[index],
                name=method_names[index],
                instructions=sizes[index],
                children=list(call_orders[index]),
                loops=loops_flags[index],
                is_cold=(
                    used_set is not None and index not in used_set
                ),
            )
            plan.resolved_children = [
                (class_of[child], method_names[child])
                for child in call_orders[index]
            ]
            plan_of[index] = plan
        by_class = [
            [plan_of[index] for index in textual_orders[class_index]]
            for class_index in range(spec.total_files)
        ]
        return list(plan_of.values()), by_class

    def build_classes(by_class, ldc_plan=None):
        return [
            _build_class(
                class_seeds[class_index],
                spec,
                class_index,
                by_class[class_index],
                class_names,
                ldc_plan=ldc_plan,
            ).build()
            for class_index in range(spec.total_files)
        ]

    # ---- base pass: the exact static first-use rank -------------------
    # Payload, LDC padding, and filler flavour do not change branches or
    # call sites, so the base program's static order equals the final
    # program's (cold-parent injection, applied only to large cold sets,
    # perturbs it mildly).
    _, base_by_class = make_plans(None)
    base_program = Program(
        classes=build_classes(base_by_class),
        entry_point=MethodId(class_names[0], "main"),
    )
    base_order = estimate_first_use(base_program)
    name_to_index = {
        name: index for index, name in enumerate(method_names)
    }
    scg_rank = {
        name_to_index[method.method_name]: position
        for position, method in enumerate(base_order.order)
    }

    used = _choose_used(rng, spec, sizes, scg_rank)
    min_sizes = [
        2
        + (9 if loops_flags[index] and sizes[index] >= 20 else 0)
        + 3 * len(children[index])
        for index in range(spec.total_methods)
    ]
    _balance_cold_sizes(spec, sizes, used, min_sizes=min_sizes)
    _inject_cold_parents(
        rng,
        spec,
        call_orders,
        used,
        sizes,
        loops_flags,
        scg_rank=scg_rank,
    )

    plans, plans_by_class = make_plans(used)

    # ---- pass 1: skeleton classes, measure data composition ----------
    skeleton = build_classes(plans_by_class)

    # ---- calibrate padding against Table 9 targets ---------------------
    global_target = spec.global_data_kb * 1024 * spec.wire_scale
    class_weights = [
        max(1, len(plans_by_class[index]))
        * (
            2.0
            if plans_by_class[index]
            and all(plan.is_cold for plan in plans_by_class[index])
            else 1.0
        )
        for index in range(spec.total_files)
    ]
    global_per_class = _distribute(
        int(global_target), class_weights
    )
    ldc_plan: Dict[int, List[Tuple[str, bool]]] = {}
    field_padding: List[List[FieldInfo]] = []
    unused_padding: List[int] = []
    for class_index, classfile in enumerate(skeleton):
        partition = partition_class(classfile, class_layout(classfile))
        target_total = global_per_class[class_index]
        first_deficit = int(
            spec.percent_globals_needed_first / 100 * target_total
            - partition.first_bytes
        )
        methods_deficit = int(
            spec.percent_globals_in_methods / 100 * target_total
            - partition.method_bytes
        )
        unused_deficit = int(
            spec.percent_globals_unused / 100 * target_total
            - partition.unused_bytes
        )
        fields: List[FieldInfo] = []
        field_number = 0
        while first_deficit > 20:
            name_length = min(40, max(4, first_deficit - 11))
            field_name = (
                f"f{class_index}_{field_number}_"
                + _pad_string(rng, max(1, name_length - 8))
            )
            fields.append(FieldInfo(name=field_name))
            # field_info (8) + Utf8 entry (3 + len).
            first_deficit -= 8 + 3 + len(field_name)
            field_number += 1
        field_padding.append(fields)

        class_plans = plans_by_class[class_index]
        if class_plans and methods_deficit > 0:
            # Share the deficit by how many LDC pairs each body can
            # actually host, so small methods are not over-assigned.
            # Cold methods carry more constant data per instruction
            # (unexercised features ship their tables and messages).
            rooms = [
                max(
                    0,
                    (plan.instructions - 4 - 3 * len(plan.children))
                    // 2,
                )
                * (1.0 if plan.index in used else 2.5)
                for plan in class_plans
            ]
            if sum(rooms) == 0:
                rooms = [1] * len(class_plans)
            shares = _distribute(methods_deficit, rooms)
            # int_constant_bias is a *byte*-share target (Table 8:
            # TestDes's pool is 53% integer bytes), so integer entries
            # (5 bytes each) are drawn until their running byte share
            # catches up with the target.
            int_bytes = 0
            string_bytes = 0
            for plan, share, pairs in zip(
                class_plans, shares, [int(r) for r in rooms]
            ):
                constants: List[Tuple[str, bool]] = []
                remaining = share
                pairs = max(1, pairs)
                per_pair = max(48, share // pairs + 1)
                while remaining > 4:
                    filled = int_bytes + string_bytes
                    if int_bytes < spec.int_constant_bias * (filled + 5):
                        constants.append(("", True))
                        int_bytes += 5
                        remaining -= 5
                    elif remaining > 8:
                        length = min(
                            400, max(4, min(per_pair, remaining) - 6)
                        )
                        constants.append(
                            (_pad_string(rng, length), False)
                        )
                        string_bytes += 6 + length
                        remaining -= 6 + length
                    else:
                        break
                # Emit big string entries first: bodies emit LDC pairs
                # until they run out of room, and a dropped 5-byte
                # integer costs far less fill than a dropped string.
                constants.sort(
                    key=lambda constant: len(constant[0]),
                    reverse=True,
                )
                ldc_plan[plan.index] = constants
        unused_padding.append(max(0, unused_deficit))

    # ---- local data payload calibration --------------------------------
    # Method unit bytes of the skeleton, plus the LDC pairs pass 2 adds
    # (an LDC+POP pair is 4 bytes and displaces a 6-byte ICONST+POP
    # pair, so padding constants shrink code by 2 bytes per pair) and
    # the 6-byte LocalData attribute header each payload introduces.
    skeleton_method_bytes = sum(
        class_layout(classfile).local_bytes for classfile in skeleton
    )
    ldc_pair_count = sum(
        len(constants) for constants in ldc_plan.values()
    )
    local_target = spec.local_data_kb * 1024 * spec.wire_scale
    payload_total = max(
        0,
        int(
            local_target
            - skeleton_method_bytes
            + 2 * ldc_pair_count
            - 6 * spec.total_methods
        ),
    )
    # Split the payload pool between hot and cold methods so that the
    # test input's *needed bytes* land on spec.percent_bytes_needed.
    wire_estimate = local_target + global_target
    cold_target_bytes = (
        (100.0 - spec.percent_bytes_needed) / 100.0 * wire_estimate
    )
    cold_plans = [plan for plan in plans if plan.is_cold]
    hot_plans = [plan for plan in plans if not plan.is_cold]
    cold_unit_bytes = 0
    for class_index, classfile in enumerate(skeleton):
        for plan in plans_by_class[class_index]:
            if plan.is_cold:
                # method_info framing + code (payload comes below).
                cold_unit_bytes += classfile.method(plan.name).size
    cold_class_globals = sum(
        global_per_class[class_index]
        for class_index in range(spec.total_files)
        if plans_by_class[class_index]
        and all(
            plan.is_cold for plan in plans_by_class[class_index]
        )
    )
    cold_payload_target = int(
        max(
            0,
            min(
                payload_total,
                cold_target_bytes
                - cold_unit_bytes
                - cold_class_globals,
            ),
        )
    )
    hot_payload_total = payload_total - cold_payload_target
    if cold_plans and cold_payload_target:
        # Weight heavily toward the latest (deepest-cold) methods: a
        # cold method near the hot/cold boundary may still be ordered
        # early by the static estimator, and loading it with data would
        # make the whole prediction useless.
        count = spec.total_methods
        for plan, share in zip(
            cold_plans,
            _distribute(
                cold_payload_target,
                [
                    plan.instructions
                    * (
                        0.05
                        + (
                            scg_rank.get(plan.index, plan.index)
                            / count
                        )
                        ** 4
                    )
                    for plan in cold_plans
                ],
            ),
        ):
            plan.local_payload = share
    if hot_plans and hot_payload_total:
        for plan, share in zip(
            hot_plans,
            _distribute(
                hot_payload_total,
                [plan.instructions for plan in hot_plans],
            ),
        ):
            plan.local_payload = share

    # ---- pass 2: final classes with padding ------------------------------
    classes = []
    for class_index, classfile in enumerate(
        build_classes(plans_by_class, ldc_plan=ldc_plan)
    ):
        classfile.fields += tuple(field_padding[class_index])
        remaining_unused = unused_padding[class_index]
        pad_number = 0
        while remaining_unused > 8:
            length = min(60, max(4, remaining_unused - 6))
            classfile.constant_pool.add_string(
                f"pad{pad_number}~" + _pad_string(rng, length)
            )
            remaining_unused -= 6 + length + 5
            pad_number += 1
        classes.append(classfile)

    # The on-disk class order is arbitrary in real programs (jar/dir
    # order), except that the entry class ships first (the paper: "the
    # first class file to execute ... is transferred first").  Shuffle
    # the rest so the no-reordering baseline is honest; restructuring
    # re-sorts classes by first use anyway.
    tail = classes[1:]
    rng.shuffle(tail)
    program = Program(
        classes=[classes[0]] + tail,
        entry_point=MethodId(class_names[0], "main"),
    )

    # ---- traces -------------------------------------------------------------
    method_ids = [
        MethodId(class_names[class_of[index]], method_names[index])
        for index in range(spec.total_methods)
    ]
    test_trace = _build_trace(
        random.Random(rng.random()),
        spec.dynamic_instructions_test,
        sorted(used),
        sizes,
        method_ids,
        span=spec.first_use_span,
    )
    train_used = _train_used(rng, used, spec)
    train_trace = _build_trace(
        random.Random(rng.random()),
        spec.dynamic_instructions_train,
        train_used,
        sizes,
        method_ids,
        span=spec.first_use_span,
    )
    return SyntheticWorkload(
        spec=spec,
        program=program,
        test_trace=test_trace,
        train_trace=train_trace,
    )


def _stable_seed(name: str) -> int:
    value = 0
    for char in name:
        value = (value * 131 + ord(char)) % (2**31)
    return value


def _train_used(
    rng: random.Random, used: Set[int], spec: BenchmarkSpec
) -> List[int]:
    """The train input's method set: mostly the test set, minus a slice.

    The train input is smaller, so late methods are more likely to be
    missing; the overlap models the paper's Train-vs-Test fidelity gap.
    """
    ordered = sorted(used)
    train: List[int] = []
    for position, index in enumerate(ordered):
        drop_probability = 0.01 + 0.06 * position / max(
            1, len(ordered) - 1
        )
        if index == 0 or rng.random() > drop_probability:
            train.append(index)
    # A handful of order perturbations: input-dependent control flow.
    for position in range(1, len(train) - 1):
        if rng.random() < 0.06:
            train[position], train[position + 1] = (
                train[position + 1],
                train[position],
            )
    return train


def _build_trace(
    rng: random.Random,
    total_instructions: int,
    used_order: Sequence[int],
    sizes: Sequence[int],
    method_ids: Sequence[MethodId],
    span: float = 0.05,
) -> ExecutionTrace:
    """Assemble a trace: first uses spread over the run, then a drain.

    Per-method dynamic budgets are proportional to static size times a
    lognormal reuse factor, with the entry method boosted (it is the
    driver loop).  Each first use executes a fraction of its budget,
    interleaved with revisits of earlier methods, and the remaining
    budgets drain after the last first use — matching the familiar
    profile of initialization touching many methods early and a
    compute loop dominating the tail.
    """
    if not used_order:
        raise WorkloadError("trace needs at least one used method")
    reuse = {
        index: rng.lognormvariate(0.0, 1.0) for index in used_order
    }
    reuse[used_order[0]] *= 6.0  # main keeps running throughout
    budgets = dict(
        zip(
            used_order,
            _distribute(
                total_instructions,
                [sizes[i] * reuse[i] for i in used_order],
            ),
        )
    )
    for index in used_order:
        # A first use by definition executes at least one instruction.
        budgets[index] = max(1, budgets[index])
    segments: List[TraceSegment] = []
    started: List[int] = []

    def emit(index: int, count: int) -> None:
        count = min(count, budgets[index])
        if count > 0:
            segments.append(
                TraceSegment(method_ids[index], count)
            )
            budgets[index] -= count

    # Startup burst: all first uses happen within `span` of the total
    # execution; half that window goes to the first-use chunks, half to
    # interleaved revisits of already-started methods.
    span_budget = int(span * total_instructions)
    first_chunks = _distribute(
        max(len(used_order), span_budget // 2),
        [max(1.0, budgets[index]) for index in used_order],
    )
    gap_budget = max(0, span_budget // 2)
    gaps = _distribute(
        gap_budget, [1.0 + rng.random() for _ in used_order]
    )
    for position, index in enumerate(used_order):
        emit(index, max(1, first_chunks[position]))
        started.append(index)
        remaining_gap = gaps[position]
        attempts = 0
        while remaining_gap > 0 and attempts < 4:
            revisit = started[
                int(len(started) * rng.random() ** 2)
            ]  # biased toward early methods (the driver loop)
            before = budgets[revisit]
            emit(revisit, remaining_gap)
            remaining_gap -= before - budgets[revisit]
            attempts += 1

    # Main phase: drain remaining budgets in interleaved passes.
    active = [index for index in used_order if budgets[index] > 0]
    while active:
        rng.shuffle(active)
        for index in active:
            emit(index, max(1, budgets[index] // 2))
        active = [index for index in active if budgets[index] > 0]
    return ExecutionTrace(segments=segments)
