"""The dead-method bisection whose pair scan was cubic.

``reference_affinity_order`` is ``_affinity_order`` as it was when each
sweep recomputed ``gain_b`` for every pair ``(a, b)``, although the
value depends only on ``b`` and the sweep's two halves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.program import MethodId
from repro.reorder.weighted import _BISECT_LEAF, _BISECT_SWEEPS


def reference_affinity_order(
    nodes: Sequence[MethodId],
    affinity: Dict[MethodId, Dict[MethodId, float]],
) -> List[MethodId]:
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
    return reference_affinity_order(left, affinity) + reference_affinity_order(
        right, affinity
    )
