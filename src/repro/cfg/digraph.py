"""Graph algorithms over a successor map, shared by CFGs and call graphs.

A successor map sends a node to the targets of its out-edges, in edge
order; duplicate edges and self-loops are fine, and a node without
out-edges may be left out.  Method CFGs (block ids) and the call graph
(method ids) both use these, so each algorithm exists once.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple, TypeVar

__all__ = [
    "reverse_postorder", "dominator_tree", "dominates",
    "strongly_connected_components", "shortest_paths",
]

Node = TypeVar("Node", bound=Hashable)


def reverse_postorder(
    entry: Node, successors: Mapping[Node, Sequence[Node]]
) -> List[Node]:
    """Nodes reachable from ``entry`` in reverse depth-first postorder."""
    visited = {entry}
    postorder: List[Node] = []
    stack = [(entry, iter(successors.get(entry, ())))]
    while stack:
        node, pending = stack[-1]
        for successor in pending:
            if successor not in visited:
                visited.add(successor)
                stack.append((successor, iter(successors.get(successor, ()))))
                break
        else:
            postorder.append(node)
            stack.pop()
    return postorder[::-1]


def dominator_tree(
    entry: Node, successors: Mapping[Node, Sequence[Node]]
) -> Dict[Node, Optional[Node]]:
    """Immediate dominators (Cooper–Harvey–Kennedy), in reverse postorder.

    The entry maps to ``None``; nodes unreachable from it are absent.
    """
    order = reverse_postorder(entry, successors)
    position = {node: index for index, node in enumerate(order)}
    predecessors: Dict[Node, List[Node]] = {node: [] for node in order}
    for node in order:
        for successor in successors.get(node, ()):
            predecessors[successor].append(node)
    idom = {entry: entry}

    def intersect(a: Node, b: Node) -> Node:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            # The depth-first parent precedes ``node``, so at least one
            # predecessor is always processed.
            processed = [p for p in predecessors[node] if p in idom]
            new_idom = processed[0]
            for predecessor in processed[1:]:
                new_idom = intersect(new_idom, predecessor)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return {**idom, entry: None}


def dominates(
    idom: Mapping[Node, Optional[Node]], dominator: Node, node: Node
) -> bool:
    """Whether ``dominator`` dominates ``node`` (reflexive)."""
    current: Optional[Node] = node
    while current is not None:
        if current == dominator:
            return True
        current = idom.get(current)
    return False


def strongly_connected_components(
    successors: Mapping[Node, Sequence[Node]]
) -> List[List[Node]]:
    """Tarjan's strongly connected components, iterative, roots in map order.

    Components come out in *reverse topological* order of the
    condensation: each appears before any component that can reach it.
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []

    def open_node(node: Node) -> Tuple[Node, Iterator[Node]]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors.get(node, ()))

    for root in successors:
        if root in index:
            continue
        work = [open_node(root)]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    work.append(open_node(successor))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[Node] = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    components.append(component)
    return components


def shortest_paths(
    source: Node, successors: Mapping[Node, Iterable[Tuple[Node, float]]]
) -> Dict[Node, float]:
    """Dijkstra over ``(successor, cost)`` edges with non-negative costs.

    Returns the cheapest path cost from ``source`` (0.0) to every node
    it reaches; unreachable nodes are absent.
    """
    distances: Dict[Node, float] = {source: 0.0}
    # The push counter breaks cost ties, so nodes are never compared.
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    pushed = 0
    while heap:
        distance, _, node = heapq.heappop(heap)
        if distance > distances[node]:
            continue
        for successor, cost in successors.get(node, ()):
            candidate = distance + cost
            if candidate < distances.get(successor, math.inf):
                distances[successor] = candidate
                pushed += 1
                heapq.heappush(heap, (candidate, pushed, successor))
    return distances
