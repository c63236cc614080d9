"""Exact graph coloring for small graphs.

Lemma 3.2 characterizes hiding via the ``k``-colorability of the accepting
neighborhood graph, so we need an exact ``k``-coloring procedure (not a
heuristic): a negative answer must be a proof.  Backtracking with
saturation-first ordering (DSATUR-style) is exact and fast at the sizes
the neighborhood graphs reach.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..errors import GraphError
from .graph import Graph, Node, sealed_coloring


def k_coloring(graph: Graph, k: int) -> Mapping[Node, int] | None:
    """A proper ``k``-coloring of *graph*, or ``None`` if none exists.

    A graph fact per ``k``: on a :class:`~repro.graphs.graph.FrozenGraph`
    it is computed once and returned as a read-only mapping."""
    if k < 0:
        raise GraphError("k_coloring needs k >= 0")
    return graph.fact(("k_coloring", k), lambda: _k_coloring(graph, k), seal=sealed_coloring)


def _k_coloring(graph: Graph, k: int) -> dict[Node, int] | None:
    if graph.has_loop():
        return None
    if graph.order == 0:
        return {}
    if k == 0:
        return None
    if k >= 2:
        from .properties import bipartition  # noqa: PLC0415

        split = bipartition(graph)
        if split.is_bipartite:
            assert split.coloring is not None
            return dict(split.coloring)
        if k == 2:
            return None

    order = sorted(graph.nodes, key=lambda v: (-graph.degree(v), repr(v)))
    rank = {v: i for i, v in enumerate(order)}
    coloring: dict[Node, int] = {}
    # DSATUR bookkeeping: for every uncolored node, how many colored
    # neighbors use each color.  Maintained on assign/unassign, so picking
    # the next node never rescans neighborhoods — the saturation of v is
    # just len(neighbor_colors[v]).  The search assigns and unassigns
    # in strict stack order, so while a node is colored its own counts go
    # untouched and are exact again by the time it is uncolored.
    neighbor_colors: dict[Node, dict[int, int]] = {v: {} for v in order}
    # Saturation buckets: bit i of buckets[s] is set iff order[i] is
    # uncolored with saturation s.  `order` is sorted by (degree desc,
    # repr), so the lowest bit of the highest non-empty bucket is the
    # (-saturation, -degree, repr) minimum without scanning the nodes.
    buckets = [0] * (k + 1)
    buckets[0] = (1 << len(order)) - 1

    def assign(v: Node, color: int) -> None:
        coloring[v] = color
        buckets[len(neighbor_colors[v])] ^= 1 << rank[v]
        for u in graph.neighbors(v):
            if u not in coloring:
                counts = neighbor_colors[u]
                if color in counts:
                    counts[color] += 1
                else:
                    bit = 1 << rank[u]
                    buckets[len(counts)] ^= bit
                    counts[color] = 1
                    buckets[len(counts)] |= bit

    def unassign(v: Node, color: int) -> None:
        del coloring[v]
        buckets[len(neighbor_colors[v])] |= 1 << rank[v]
        for u in graph.neighbors(v):
            if u not in coloring:
                counts = neighbor_colors[u]
                if counts[color] == 1:
                    bit = 1 << rank[u]
                    buckets[len(counts)] ^= bit
                    del counts[color]
                    buckets[len(counts)] |= bit
                else:
                    counts[color] -= 1

    def choose_next() -> Node | None:
        for bits in reversed(buckets):
            if bits:
                return order[(bits & -bits).bit_length() - 1]
        return None

    # Depth-first search on an explicit stack — one frame per colored
    # node, so the depth is the graph's order and must not recurse.
    # Frames are (node, colors its neighbors held when it was picked,
    # color it holds); the search order is that of the plain recursion.
    stack: list[tuple[Node, set[int], int]] = []
    v = choose_next()
    used = set(neighbor_colors[v]) if v is not None else set()
    start = 0
    while v is not None:
        color = next((c for c in range(start, k) if c not in used), None)
        if color is not None:
            assign(v, color)
            stack.append((v, used, color))
            v = choose_next()
            if v is not None:
                used, start = set(neighbor_colors[v]), 0
            continue
        # v has no color left: undo its parent's choice and move on.
        while True:
            if not stack:
                return None
            v, used, color = stack.pop()
            unassign(v, color)
            # Symmetry breaking: a strictly larger fresh color than any
            # used so far is equivalent to this one, so v fails too.
            if color <= max(coloring.values(), default=-1):
                start = color + 1
                break
    return dict(coloring)


def is_k_colorable(graph: Graph, k: int) -> bool:
    """True iff *graph* admits a proper ``k``-coloring."""
    return k_coloring(graph, k) is not None


def chromatic_number(graph: Graph, max_k: int | None = None) -> int:
    """The chromatic number, by trying ``k = 0, 1, 2, ...``.

    *max_k* bounds the search (default: the number of nodes, which always
    suffices for loop-free graphs).  Raises on graphs with loops.
    """
    if graph.has_loop():
        raise GraphError("chromatic number undefined for graphs with loops")
    bound = graph.order if max_k is None else max_k
    for k in range(bound + 1):
        if is_k_colorable(graph, k):
            return k
    raise GraphError(f"graph is not {bound}-colorable; raise max_k")


def greedy_coloring(graph: Graph) -> dict[Node, int]:
    """Greedy coloring in degree order — an upper-bound baseline used by
    benchmarks to contrast exact and heuristic results."""
    coloring: dict[Node, int] = {}
    for v in sorted(graph.nodes, key=lambda v: (-graph.degree(v), repr(v))):
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        color = 0
        while color in used:
            color += 1
        coloring[v] = color
    return coloring
