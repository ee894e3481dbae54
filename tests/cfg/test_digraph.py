"""Property tests for the shared graph algorithms in repro.cfg.digraph.

Each algorithm is checked against its definition on small random
digraphs: irreducible cycles, self-loops, duplicate edges and nodes
unreachable from the entry all occur.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cfg import (
    dominates,
    dominator_tree,
    reverse_postorder,
    shortest_paths,
    strongly_connected_components,
)

ENTRY = 0

#: Two joins whose earliest predecessor in reverse postorder is not the
#: immediate dominator, an irreducible two-entry cycle, a self-loop, a
#: duplicate edge and an unreachable node.
DIAMONDS = {0: [1, 2], 1: [3], 2: [3, 4], 3: [4], 4: []}
IRREDUCIBLE = {0: [1, 2], 1: [2, 1], 2: [1, 3, 3], 3: [], 4: [0]}


@st.composite
def digraphs(draw, max_nodes=7):
    """A successor map over nodes 0..n-1; node 0 is the entry."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1)
            ),
            max_size=3 * size,
        )
    )
    successors = {node: [] for node in range(size)}
    for source, target in edges:
        successors[source].append(target)
    return successors


@st.composite
def weighted_digraphs(draw):
    successors = draw(digraphs())
    return {
        node: [
            (target, draw(st.integers(min_value=1, max_value=20)))
            for target in targets
        ]
        for node, targets in successors.items()
    }


def _reachable(successors, entry, removed=None):
    if entry == removed:
        return set()
    seen = {entry}
    frontier = [entry]
    while frontier:
        node = frontier.pop()
        for target in successors[node]:
            if target != removed and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


@settings(max_examples=200, deadline=None)
@given(digraphs())
@example(DIAMONDS)
@example(IRREDUCIBLE)
def test_reverse_postorder_covers_reachable_nodes_once(successors):
    order = reverse_postorder(ENTRY, successors)
    assert order[0] == ENTRY
    assert len(order) == len(set(order))
    assert set(order) == _reachable(successors, ENTRY)


@settings(max_examples=200, deadline=None)
@given(digraphs())
@example(DIAMONDS)
@example(IRREDUCIBLE)
def test_dominators_match_the_definition(successors):
    """d dominates n exactly when n is unreachable from the entry once
    d is removed."""
    idom = dominator_tree(ENTRY, successors)
    reachable = _reachable(successors, ENTRY)
    assert set(idom) == reachable
    assert idom[ENTRY] is None
    for dominator in reachable:
        cut = _reachable(successors, ENTRY, removed=dominator)
        for node in reachable:
            expected = node == dominator or node not in cut
            assert dominates(idom, dominator, node) == expected, (
                dominator,
                node,
            )


@settings(max_examples=200, deadline=None)
@given(digraphs())
@example(DIAMONDS)
@example(IRREDUCIBLE)
def test_components_are_mutual_reachability_in_reverse_topological_order(
    successors,
):
    components = strongly_connected_components(successors)
    members = [node for component in components for node in component]
    assert sorted(members) == sorted(successors)
    component_of = {
        node: index
        for index, component in enumerate(components)
        for node in component
    }
    reach = {node: _reachable(successors, node) for node in successors}
    for a in successors:
        for b in successors:
            mutual = b in reach[a] and a in reach[b]
            assert (component_of[a] == component_of[b]) == mutual, (a, b)
    # Every component comes before any component that can reach it.
    for source, targets in successors.items():
        for target in targets:
            assert component_of[target] <= component_of[source]


def _bellman_ford(successors, source):
    distances = {node: math.inf for node in successors}
    distances[source] = 0
    for _ in range(len(successors)):
        for node, edges in successors.items():
            for target, cost in edges:
                if distances[node] + cost < distances[target]:
                    distances[target] = distances[node] + cost
    return {
        node: distance
        for node, distance in distances.items()
        if math.isfinite(distance)
    }


@settings(max_examples=200, deadline=None)
@given(weighted_digraphs())
def test_shortest_paths_match_bellman_ford(successors):
    assert shortest_paths(ENTRY, successors) == _bellman_ford(
        successors, ENTRY
    )
