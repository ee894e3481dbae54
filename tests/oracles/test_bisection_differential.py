"""The dead-method bisection against its cubic predecessor.

``_affinity_order`` computes each right-half method's gain once per
sweep instead of once per pair.  On drawn affinity graphs it must lay
methods out exactly as :func:`.weighted_reference.reference_affinity_order`
does, and its ``_side_weight`` calls must grow as n log n, not as n²
per sweep.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.program import MethodId
from repro.reorder import weighted
from repro.reorder.weighted import _BISECT_SWEEPS, _affinity_order

from .weighted_reference import reference_affinity_order

#: A fixed, seeded set of draws: tier-1 runs the same examples each time.
TIER1 = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

#: Repeated weights make equal gains, where the tie-break decides.
_WEIGHTS = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.floats(0.01, 50.0, allow_nan=False),
)


@st.composite
def affinity_graphs(draw):
    count = draw(st.integers(0, 40))
    nodes = [MethodId(f"C{index % 3}", f"m{index}") for index in range(count)]
    affinity = {}
    if count > 1:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(0, count - 1),
                    st.integers(0, count - 1),
                    _WEIGHTS,
                ),
                max_size=3 * count,
            )
        )
        for a, b, weight in pairs:
            if a == b:
                continue
            for x, y in ((nodes[a], nodes[b]), (nodes[b], nodes[a])):
                affinity.setdefault(x, {})[y] = (
                    affinity.get(x, {}).get(y, 0.0) + weight
                )
    return draw(st.permutations(nodes)), affinity


@TIER1
@given(affinity_graphs())
def test_bisection_matches_the_cubic_reference(graph):
    nodes, affinity = graph
    assert _affinity_order(nodes, affinity) == reference_affinity_order(
        nodes, affinity
    )


def random_graph(count, edges_per_node, seed):
    rng = random.Random(seed)
    nodes = [MethodId("Dead", f"m{index}") for index in range(count)]
    affinity = {}
    for _ in range(edges_per_node * count):
        a, b = rng.sample(nodes, 2)
        weight = rng.choice([1.0, 2.0, 3.0])
        for x, y in ((a, b), (b, a)):
            affinity.setdefault(x, {})[y] = (
                affinity.get(x, {}).get(y, 0.0) + weight
            )
    return nodes, affinity


def test_side_weight_calls_grow_as_n_log_n(monkeypatch):
    """Each sweep weighs every method against both halves once: at most
    2·n calls per sweep per recursion level.  Weighing ``b`` inside
    the loop over ``a`` made the top level alone cost n²/2 per sweep
    (20,200 calls at n = 200)."""
    calls = []
    side_weight = weighted._side_weight

    def counting(node, side, affinity):
        calls.append(node)
        return side_weight(node, side, affinity)

    monkeypatch.setattr(weighted, "_side_weight", counting)
    count = 200
    nodes, affinity = random_graph(count, 3, seed=11)
    order = _affinity_order(nodes, affinity)
    assert sorted(order) == sorted(nodes)
    levels = math.ceil(math.log2(count))
    assert 0 < len(calls) <= 2 * _BISECT_SWEEPS * count * levels
