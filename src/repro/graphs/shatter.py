"""Shatter points (paper Section 7.1).

A node ``v`` is a *shatter point* of ``G`` if ``G - N[v]`` is disconnected
(has at least two connected components).  Theorem 1.3 gives a strong and
hiding LCP for 2-coloring on the class of graphs admitting a shatter point;
the certificates are built around the component structure of ``G - N[v]``,
which is what :func:`shatter_decomposition` computes.

Lemma 7.1 characterizes bipartiteness around a shatter point; it is
implemented here as :func:`lemma_7_1_conditions` and machine-checked in the
test suite against plain bipartiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GraphError
from .graph import Graph, Node
from .properties import bipartition
from .traversal import connected_components


@dataclass(frozen=True)
class ShatterDecomposition:
    """The structure around a shatter point ``v``.

    *components* lists the connected components of ``G - N[v]`` in a
    deterministic order; component numbering (1-based, as in the paper's
    certificates) follows this order.
    """

    point: Node
    neighbors: frozenset[Node]
    components: tuple[frozenset[Node], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    def component_number(self, node: Node) -> int:
        """1-based index of the component containing *node*."""
        for index, comp in enumerate(self.components, start=1):
            if node in comp:
                return index
        raise GraphError(f"node {node!r} is not in any component of G - N[v]")


def shatter_decomposition(graph: Graph, v: Node) -> ShatterDecomposition:
    """Decompose *graph* around candidate shatter point *v*.

    The result is valid regardless of whether *v* actually shatters the
    graph; check :attr:`ShatterDecomposition.component_count` >= 2.  A
    graph fact per *v* (computed once on a frozen graph).
    """
    return graph.fact(("shatter_decomposition", v), lambda: _decompose(graph, v))


def _decompose(graph: Graph, v: Node) -> ShatterDecomposition:
    rest = graph.subtract_closed_neighborhood(v)
    comps = connected_components(rest)
    comps_sorted = tuple(
        frozenset(c) for c in sorted(comps, key=lambda c: sorted(map(repr, c)))
    )
    return ShatterDecomposition(
        point=v, neighbors=frozenset(graph.neighbors(v)), components=comps_sorted
    )


def is_shatter_point(graph: Graph, v: Node) -> bool:
    """True iff ``G - N[v]`` has at least two connected components."""
    return shatter_decomposition(graph, v).component_count >= 2


def shatter_points(graph: Graph) -> list[Node]:
    """All shatter points of *graph*, in node order (a graph fact)."""
    return list(
        graph.fact(
            "shatter_points",
            lambda: [v for v in graph.nodes if is_shatter_point(graph, v)],
            seal=tuple,
        )
    )


def has_shatter_point(graph: Graph) -> bool:
    """True iff *graph* admits a shatter point (the class H of Thm 1.3)."""
    return any(is_shatter_point(graph, v) for v in graph.nodes)


def lemma_7_1_conditions(graph: Graph, v: Node) -> tuple[bool, str]:
    """Evaluate the three conditions of Lemma 7.1 at node *v*.

    Returns ``(holds, reason)`` where *reason* names the first violated
    condition (or is empty).  Lemma 7.1: ``G`` is bipartite iff

    1. ``N(v)`` is independent;
    2. every component ``C_i`` of ``G - N[v]`` is bipartite;
    3. the nodes of ``N^2(v)`` intersect only one side of each ``G[C_i]``.
    """
    neighbors = graph.neighbors(v)
    for a in neighbors:
        for b in neighbors:
            if a != b and graph.has_edge(a, b):
                return False, f"N(v) not independent: edge ({a!r}, {b!r})"
        if graph.has_edge(a, a):
            return False, f"N(v) not independent: loop at {a!r}"

    decomp = shatter_decomposition(graph, v)
    for index, comp in enumerate(decomp.components, start=1):
        sub = graph.induced_subgraph(comp)
        result = bipartition(sub)
        if not result.is_bipartite:
            return False, f"component {index} is not bipartite"
        coloring = result.coloring
        assert coloring is not None
        # Colors of component nodes adjacent to N(v); they must be uniform
        # per component (condition 3, "N^2(v) touches one part only").
        touched = {
            coloring[w]
            for u in neighbors
            for w in graph.neighbors(u)
            if w in comp
        }
        if len(touched) > 1:
            return False, f"N^2(v) touches both sides of component {index}"
    return True, ""
