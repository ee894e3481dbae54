"""The ``weighted`` first-use strategy: optimized transfer layout.

The paper predicts first-use order two ways — a static call-graph DFS
(SCG, §4.1) and a training profile (Train, §4.2) — and lays methods out
*in predicted first-use order*.  Train is provably optimal on its own
trace, so the only room to improve is how unprofiled methods are
handled: Train dumps every method the training input never used at the
tail of the stream, and the interleaved methodology has no demand
fetch, so one early-needed unseen method stalls execution until nearly
the whole file has arrived — poisoning every later first use.

This module adds the third strategy from ROADMAP ("Optimizing Function
Layout for Mobile Applications", Meta 2022), built on the weighted
call graph of :mod:`repro.analyze.interproc`:

1. **Measured spine.**  Profiled methods are laid out in measured
   first-use order (identical to Train over that subset — their
   relative order is ground truth).

2. **Affinity-anchor placement.**  Each unprofiled-but-reachable
   method is anchored to its strongest-affinity *measured* neighbour
   in the weighted call graph and scheduled for insertion immediately
   after it: cold code rides with the hot caller/callee most likely to
   fault it in.  Methods with no measured neighbour stay at the tail.

3. **Economic insertion gate.**  An anchored insertion ships bytes
   that delay every later first use — a certain cost — against the
   *expected* cost of tail placement: the stall from the anchor's time
   until tail arrival plus the poisoning of every first use inside
   that window, discounted by the prior :data:`P_UNSEEN_USE` that an
   unseen method is used at all.  Execution-bound sessions (file lands
   before late first uses) keep the tail free, and the layout
   degenerates towards Train; stall-bound sessions insert.

4. **Balanced-partitioning tail.**  Interprocedurally dead methods are
   laid out by recursive graph bisection over call-edge affinity, so a
   misprediction that faults one in tends to have already fetched its
   neighbours.

Without a profile the layout degrades to a pure-static mode (the
SCG-comparable configuration): probability-discounted interprocedural
distances order every reachable method.  The resulting
:class:`~repro.reorder.first_use.FirstUseOrder` carries
``source="weighted"`` and plugs into every consumer of SCG/Train
orders: the simulator, the transfer-plan analyzer, netserve planning,
the CLI, and the load generator.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..analyze.dataflow import analyze_program
from ..analyze.interproc import InterprocAnalysis, analyze_interproc
from ..cfg import program_facts
from ..classfile import class_layout
from ..program import MethodId, Program
from ..transfer.link import T1_LINK, NetworkLink
from ..vm import FirstUseProfile
from .first_use import FirstUseOrder, laid_out_entries

__all__ = ["weighted_first_use"]

#: Default CPI matching the paper's simulator configuration.
DEFAULT_CPI = 30.0

#: Prior probability that a method unseen by the training input is
#: first-used by another input (Laplace's rule of succession after one
#: miss: (0 + 1) / (1 + 2)).
P_UNSEEN_USE = 1.0 / 3.0

#: Below this size the bisection recursion stops and keeps input order.
_BISECT_LEAF = 4

_BISECT_SWEEPS = 4


def _affinity_graph(
    analysis: InterprocAnalysis,
) -> Dict[MethodId, Dict[MethodId, float]]:
    """Symmetric call-edge affinity between methods."""
    affinity: Dict[MethodId, Dict[MethodId, float]] = {}
    for edge, weight in analysis.edge_weights.items():
        if edge.caller == edge.callee:
            continue
        value = max(weight, 1.0)
        for a, b in ((edge.caller, edge.callee), (edge.callee, edge.caller)):
            affinity.setdefault(a, {})[b] = (
                affinity.get(a, {}).get(b, 0.0) + value
            )
    # Dead methods have no feasible edges; fall back to the raw graph so
    # the tail still clusters callers with their callees.
    for edge in analysis.call_graph.edges:
        if not edge.internal or edge.caller == edge.callee:
            continue
        for a, b in ((edge.caller, edge.callee), (edge.callee, edge.caller)):
            affinity.setdefault(a, {}).setdefault(b, 1.0)
    return affinity


def _affinity_order(
    nodes: Sequence[MethodId],
    affinity: Dict[MethodId, Dict[MethodId, float]],
) -> List[MethodId]:
    """Recursive balanced bisection keeping high-affinity pairs close.

    A lightweight Kernighan–Lin refinement swaps the best cross-half
    pair while it improves the cut, then each half recurses.  Input
    order is the deterministic tie-break.
    """
    nodes = list(nodes)
    if len(nodes) <= _BISECT_LEAF:
        return nodes
    mid = (len(nodes) + 1) // 2
    left, right = nodes[:mid], nodes[mid:]

    def side_weight(node: MethodId, side: List[MethodId]) -> float:
        edges = affinity.get(node, {})
        return sum(edges.get(other, 0.0) for other in side)

    for _ in range(_BISECT_SWEEPS):
        best_gain = 0.0
        best_pair: Optional[Tuple[int, int]] = None
        for i, a in enumerate(left):
            gain_a = side_weight(a, right) - side_weight(a, left)
            for j, b in enumerate(right):
                gain_b = side_weight(b, left) - side_weight(b, right)
                pair_gain = (
                    gain_a + gain_b - 2.0 * affinity.get(a, {}).get(b, 0.0)
                )
                if pair_gain > best_gain + 1e-12:
                    best_gain = pair_gain
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        left[i], right[j] = right[j], left[i]
    return _affinity_order(left, affinity) + _affinity_order(right, affinity)


def _predicted_first_use(
    program: Program,
    analysis: InterprocAnalysis,
    profile: Optional[FirstUseProfile],
    cpi: float,
) -> Tuple[Dict[MethodId, float], Dict[MethodId, bool]]:
    """Predicted first-use time in cycles per method.

    Profiled methods use measured dynamic instructions before first
    use.  Unprofiled-but-reachable methods fall back to the
    interprocedural probability-discounted distance (in instructions)
    scaled by ``cpi`` — comparable *to each other*, not to measured
    times, which is why placement anchors them to measured neighbours
    instead of merging the two scales.  Interprocedurally unreachable
    methods are ``inf``.
    """
    times: Dict[MethodId, float] = {}
    measured: Dict[MethodId, bool] = {}
    if profile is not None:
        for event in profile.events:
            times[event.method] = event.dynamic_instructions_before * cpi
            measured[event.method] = True
    for method_id in program.method_ids():
        if method_id in times:
            continue
        measured[method_id] = False
        distance = analysis.expected_first_use(method_id)
        times[method_id] = (
            math.inf if math.isinf(distance) else distance * cpi
        )
    return times, measured


def weighted_first_use(
    program: Program,
    profile: Optional[FirstUseProfile] = None,
    link: Optional[NetworkLink] = None,
    cpi: float = DEFAULT_CPI,
) -> FirstUseOrder:
    """Build the optimized-layout first-use order for ``program``.

    Args:
        program: The program to lay out.
        profile: Optional training profile; when given, measured
            first-use times drive the layout (the Train-comparable
            configuration).  Without it the layout is fully static
            (the SCG-comparable configuration).
        link: Link whose byte rate prices the insertion gate
            (default T1).
        cpi: Cycles per executed instruction for first-use times.
    """
    facts = program_facts(program)
    analysis = analyze_interproc(program, facts, analyze_program(program, facts))
    link = link or T1_LINK
    times, measured = _predicted_first_use(program, analysis, profile, cpi)
    affinity = _affinity_graph(analysis)

    file_rank = {m: i for i, m in enumerate(program.method_ids())}
    anchored = [m for m in file_rank if measured.get(m, False)]
    anchored.sort(key=lambda m: (times[m], file_rank[m]))
    dead = [m for m in file_rank if math.isinf(times[m])]

    if not anchored:
        # Static mode: no measured spine to anchor to — discounted
        # interprocedural distance orders every reachable method.
        live = [m for m in file_rank if not math.isinf(times[m])]
        live.sort(key=lambda m: (times[m], file_rank[m]))
        layout = live + _affinity_order(dead, affinity)
        return _as_order(program, layout, measured)

    unseen = [
        m
        for m in file_rank
        if not measured.get(m, False) and not math.isinf(times[m])
    ]

    # Affinity-anchor placement: each unseen method is scheduled at its
    # strongest measured neighbour's time.  Sort keys make measured
    # methods sort first at equal times (secondary key -1 < file_rank).
    placed: List[Tuple[float, int, MethodId]] = []
    tail: List[MethodId] = []
    for method_id in unseen:
        best: Optional[MethodId] = None
        best_weight = 0.0
        for neighbour, weight in affinity.get(method_id, {}).items():
            if measured.get(neighbour, False) and weight > best_weight:
                best, best_weight = neighbour, weight
        if best is None:
            tail.append(method_id)
        else:
            placed.append((times[best], file_rank[method_id], method_id))
    placed.sort()

    # Economic insertion gate: the candidate's shipped bytes delay
    # every later first use (certain cost); tail placement risks a
    # stall from its anchored need time until tail arrival plus the
    # poisoning of every first use inside that window — the
    # interleaved stream has no demand fetch, so one early-needed tail
    # method releases everything after it at its own arrival
    # (expected cost, discounted by P_UNSEEN_USE).
    rate = link.cycles_per_byte
    global_bytes = {
        classfile.name: class_layout(classfile).global_bytes
        for classfile in program.classes
    }
    sizes = {
        method_id: program.method(method_id).size for method_id in file_rank
    }
    candidate_layout = (
        anchored + [m for _, _, m in placed] + tail + dead
    )
    arrivals: Dict[MethodId, float] = {}
    prefix = 0.0
    seen_classes: set = set()
    for method_id in candidate_layout:
        prefix += sizes[method_id]
        if method_id.class_name not in seen_classes:
            seen_classes.add(method_id.class_name)
            prefix += global_bytes[method_id.class_name]
        arrivals[method_id] = prefix * rate
    anchored_times = sorted((times[m], arrivals[m]) for m in anchored)

    inserted: List[Tuple[float, int, MethodId]] = []
    for need, rank, method_id in placed:
        arrival = arrivals[method_id]
        if need >= arrival:
            tail.append(method_id)
            continue
        stall = arrival - need
        poison = sum(
            arrival - max(u_j, a_j)
            for u_j, a_j in anchored_times
            if need < u_j < arrival and a_j < arrival
        )
        later = sum(1 for u_j, _ in anchored_times if u_j > need)
        insert_cost = (
            sizes[method_id] + global_bytes[method_id.class_name]
        ) * rate * later
        if P_UNSEEN_USE * (stall + poison) > insert_cost:
            inserted.append((need, rank, method_id))
        else:
            tail.append(method_id)

    merged = [(times[m], -1, m) for m in anchored] + inserted
    merged.sort(key=lambda item: (item[0], item[1]))
    layout = (
        [m for _, _, m in merged]
        + sorted(tail, key=lambda m: file_rank[m])
        + _affinity_order(dead, affinity)
    )
    return _as_order(program, layout, measured)


def _as_order(
    program: Program,
    layout: Sequence[MethodId],
    measured: Dict[MethodId, bool],
) -> FirstUseOrder:
    profiled = {method for method, flag in measured.items() if flag}
    entries = laid_out_entries(program, layout, measured=profiled)
    order = FirstUseOrder(entries=entries, source="weighted")
    order.validate_against(program)
    return order
