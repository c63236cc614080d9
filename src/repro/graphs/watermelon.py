"""Watermelon graph recognition (paper Section 7.2).

A *watermelon graph* is defined by two endpoint nodes ``v1, v2`` and a
collection of internally disjoint paths of length at least 2 between them.
Theorem 1.4 gives a strong and hiding one-round LCP with ``O(log n)``-bit
certificates for this class; the prover needs the decomposition produced
here (endpoints, and each path as an ordered node sequence).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError
from .graph import Graph, Node
from .traversal import is_connected


@dataclass(frozen=True)
class WatermelonDecomposition:
    """Endpoints and the ordered internal paths of a watermelon graph.

    Each path is the full node sequence ``(v1, ..., v2)`` including both
    endpoints; paths are sorted by their internal node lists for
    determinism.
    """

    endpoints: tuple[Node, Node]
    paths: tuple[tuple[Node, ...], ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def path_lengths(self) -> list[int]:
        """Edge counts of the paths."""
        return [len(p) - 1 for p in self.paths]

    def path_number_of(self, node: Node) -> int:
        """1-based path index of an internal *node*."""
        for index, path in enumerate(self.paths, start=1):
            if node in path[1:-1]:
                return index
        raise GraphError(f"node {node!r} is not internal to any watermelon path")


def watermelon_decomposition(graph: Graph) -> WatermelonDecomposition | None:
    """Decompose *graph* as a watermelon, or return ``None``.

    Recognition logic: in a watermelon with ``k >= 3`` paths the endpoints
    are exactly the nodes of degree ``k >= 3`` and all internal nodes have
    degree 2.  With ``k <= 2`` paths the graph is a path or an (even or
    odd) cycle, where the endpoint choice is ambiguous; we pick the
    deterministic choice described inline.  Single-path watermelons are
    exactly simple paths with at least 2 edges; two-path watermelons are
    exactly cycles of length >= 4 (each arc must have length >= 2).  A
    graph fact (computed once on a frozen graph).
    """
    return graph.fact("watermelon_decomposition", lambda: _decompose(graph))


def _decompose(graph: Graph) -> WatermelonDecomposition | None:
    n = graph.order
    if n < 3 or not is_connected(graph) or graph.has_loop():
        return None

    degrees = {v: graph.degree(v) for v in graph.nodes}
    high = sorted((v for v, d in degrees.items() if d >= 3), key=repr)
    deg2 = [v for v, d in degrees.items() if d == 2]
    deg1 = sorted((v for v, d in degrees.items() if d == 1), key=repr)

    if len(high) > 2 or (high and deg1):
        return None

    if len(high) == 2:
        v1, v2 = high
        if len(deg2) != n - 2:
            return None
        return _trace_paths(graph, v1, v2)
    if len(high) == 1:
        # A single high-degree node cannot be both endpoints (paths have
        # length >= 2, so v1 != v2 and both ends have the same degree).
        return None
    if len(deg1) == 2 and len(deg2) == n - 2:
        # A simple path: one-path watermelon, endpoints are the leaves.
        if n - 1 < 2:
            return None
        return _trace_paths(graph, deg1[0], deg1[1])
    if not deg1 and len(deg2) == n:
        # A cycle: two-path watermelon. Pick the deterministic endpoints:
        # the smallest node and the node opposite it (both arcs length>=2).
        if n < 4:
            return None
        nodes_sorted = sorted(graph.nodes, key=repr)
        v1 = nodes_sorted[0]
        order = _cycle_order(graph, v1)
        v2 = order[len(order) // 2]
        return _trace_paths(graph, v1, v2)
    return None


def is_watermelon(graph: Graph) -> bool:
    """True iff *graph* is a watermelon graph."""
    return watermelon_decomposition(graph) is not None


def _cycle_order(graph: Graph, start: Node) -> list[Node]:
    """Nodes of a cycle graph in traversal order starting at *start*."""
    order = [start]
    prev: Node | None = None
    current = start
    while True:
        nxt = sorted((w for w in graph.neighbors(current) if w != prev), key=repr)[0]
        if nxt == start:
            return order
        order.append(nxt)
        prev, current = current, nxt


def _trace_paths(graph: Graph, v1: Node, v2: Node) -> WatermelonDecomposition | None:
    """Follow degree-2 chains from *v1* and validate the watermelon shape."""
    paths: list[tuple[Node, ...]] = []
    seen_internal: set[Node] = set()
    for first in sorted(graph.neighbors(v1), key=repr):
        if first == v2:
            return None  # a direct edge is a length-1 path, disallowed
        if first in seen_internal:
            continue
        path = [v1, first]
        prev: Node = v1
        current: Node = first
        while current != v2:
            if graph.degree(current) != 2 or current == v1:
                return None
            (nxt,) = [w for w in graph.neighbors(current) if w != prev]
            path.append(nxt)
            prev, current = current, nxt
        internal = set(path[1:-1])
        if internal & seen_internal:
            return None
        seen_internal |= internal
        paths.append(tuple(path))
    # Every node must be used: endpoints plus the internal nodes.
    if len(seen_internal) + 2 != graph.order:
        return None
    if any(len(p) - 1 < 2 for p in paths):
        return None
    paths.sort(key=lambda p: [repr(x) for x in p])
    return WatermelonDecomposition(endpoints=(v1, v2), paths=tuple(paths))
