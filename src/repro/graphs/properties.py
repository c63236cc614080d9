"""Graph properties used by the paper: bipartiteness, cycles, girth, shape.

The central predicate is :func:`bipartition`, which either returns a proper
2-coloring or an explicit odd-cycle witness — both sides are needed:
completeness proofs consume the coloring, while hiding proofs (Lemma 3.2)
consume odd cycles of the accepting neighborhood graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..errors import GraphError
from .graph import Graph, Node, sealed_coloring
from .traversal import connected_components, is_connected


@dataclass(frozen=True)
class BipartitionResult:
    """Outcome of a bipartiteness test.

    Exactly one of *coloring* and *odd_cycle* is set.  *odd_cycle* is a
    closed walk given as a node list ``[v0, ..., vk, v0]`` of odd length
    (a read-only mapping and a tuple when the result is a frozen graph's
    fact).
    """

    coloring: Mapping[Node, int] | None
    odd_cycle: Sequence[Node] | None

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None


def bipartition(graph: Graph) -> BipartitionResult:
    """Proper 2-coloring of *graph*, or an odd-cycle witness.

    A loop counts as an odd cycle of length 1, consistent with the paper's
    convention that loops are allowed but never properly colorable.  On a
    :class:`~repro.graphs.graph.FrozenGraph` the result is a graph fact:
    computed once, its coloring a read-only mapping and its odd cycle a
    tuple.
    """
    return graph.fact("bipartition", lambda: _bipartition(graph), seal=_sealed)


def _sealed(split: BipartitionResult) -> BipartitionResult:
    return BipartitionResult(
        coloring=sealed_coloring(split.coloring),
        odd_cycle=None if split.odd_cycle is None else tuple(split.odd_cycle),
    )


def _bipartition(graph: Graph) -> BipartitionResult:
    for v in graph.nodes:
        if graph.has_edge(v, v):
            return BipartitionResult(coloring=None, odd_cycle=[v, v])

    color: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    for root in graph.nodes:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue: deque[Node] = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(graph.neighbors(u), key=repr):
                if w not in color:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return BipartitionResult(
                        coloring=None, odd_cycle=_odd_cycle_from_conflict(parent, u, w)
                    )
    return BipartitionResult(coloring=color, odd_cycle=None)


def _odd_cycle_from_conflict(
    parent: dict[Node, Node | None], u: Node, w: Node
) -> list[Node]:
    """Reconstruct an odd closed walk from a same-color BFS edge ``{u, w}``."""
    ancestors_u = _ancestry(parent, u)
    ancestors_w = _ancestry(parent, w)
    common = None
    ancestors_w_set = set(ancestors_w)
    for node in ancestors_u:
        if node in ancestors_w_set:
            common = node
            break
    if common is None:  # pragma: no cover - BFS tree guarantees a common root
        raise GraphError("conflict edge endpoints share no BFS ancestor")
    up = ancestors_u[: ancestors_u.index(common) + 1]
    down = ancestors_w[: ancestors_w.index(common) + 1]
    # Walk u -> ... -> common -> ... -> w -> u.
    cycle = up + down[-2::-1]
    cycle.append(u)
    return cycle


def _ancestry(parent: dict[Node, Node | None], v: Node) -> list[Node]:
    chain = [v]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


def is_bipartite(graph: Graph) -> bool:
    """True iff *graph* has a proper 2-coloring."""
    return bipartition(graph).is_bipartite


def find_odd_cycle(graph: Graph) -> list[Node] | None:
    """An odd closed walk ``[v0, ..., v0]`` if one exists, else ``None``."""
    cycle = bipartition(graph).odd_cycle
    return None if cycle is None else list(cycle)


def is_odd_closed_walk(graph: Graph, walk: list[Node]) -> bool:
    """True iff *walk* is a closed walk of odd length along edges of
    *graph*, in the ``[v0, ..., vk, v0]`` convention of
    :func:`find_odd_cycle`.

    Used to validate non-bipartiteness witnesses regardless of which
    detector produced them (BFS bipartition or the streaming
    :class:`~repro.graphs.incremental.ParityForest`).
    """
    if len(walk) < 2 or walk[0] != walk[-1]:
        return False
    if (len(walk) - 1) % 2 == 0:
        return False
    return all(graph.has_edge(u, v) for u, v in zip(walk, walk[1:]))


def proper_coloring_ok(graph: Graph, coloring: dict[Node, object]) -> bool:
    """True iff *coloring* assigns distinct values across every edge."""
    return all(
        u in coloring and v in coloring and coloring[u] != coloring[v]
        for u, v in graph.edges
    )


def is_cycle_graph(graph: Graph) -> bool:
    """True iff *graph* is a single cycle ``C_n`` with ``n >= 3``."""
    return (
        graph.order >= 3
        and is_connected(graph)
        and all(graph.degree(v) == 2 for v in graph.nodes)
        and not graph.has_loop()
    )


def is_even_cycle(graph: Graph) -> bool:
    """True iff *graph* is a cycle of even length (class H2, Theorem 1.1)."""
    return is_cycle_graph(graph) and graph.order % 2 == 0


def is_path_graph(graph: Graph) -> bool:
    """True iff *graph* is a simple path ``P_n`` with ``n >= 1``."""
    if graph.order == 0 or not is_connected(graph) or graph.has_loop():
        return False
    if graph.order == 1:
        return graph.size == 0
    degrees = graph.degree_sequence()
    return degrees.count(1) == 2 and all(d in (1, 2) for d in degrees)


def is_tree(graph: Graph) -> bool:
    """True iff *graph* is connected and acyclic."""
    return is_connected(graph) and graph.size == graph.order - 1 and not graph.has_loop()


def girth(graph: Graph) -> int | None:
    """Length of a shortest cycle, or ``None`` for forests.

    A loop has girth 1; parallel edges cannot occur in this representation.
    """
    if graph.has_loop():
        return 1
    best: int | None = None
    for root in graph.nodes:
        dist = {root: 0}
        parent: dict[Node, Node | None] = {root: None}
        queue: deque[Node] = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(graph.neighbors(u), key=repr):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle_len = dist[u] + dist[w] + 1
                    if best is None or cycle_len < best:
                        best = cycle_len
    return best


def cycle_count_lower_bound(graph: Graph) -> int:
    """The cycle-space dimension ``m - n + c`` (counts independent cycles).

    Section 5.2 requires yes-instances "containing at least two cycles";
    this is the standard way to make that count precise.
    """
    return graph.size - graph.order + len(connected_components(graph))


def has_at_least_two_cycles(graph: Graph) -> bool:
    """True iff the cycle space of *graph* has dimension at least 2."""
    return cycle_count_lower_bound(graph) >= 2
