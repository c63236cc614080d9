"""Canonical encodings and isomorphism tools for small graphs.

The family-enumeration machinery (Lemma 3.1 needs "all labeled
yes-instances on at most n nodes") deduplicates graphs up to isomorphism.
For the small orders we enumerate (n <= 8) a brute-force canonical form —
the lexicographically smallest adjacency bitstring over all node
permutations, computed with pruning — is fast enough and has no false
merges, unlike hash-based invariants.
"""

from __future__ import annotations

from itertools import permutations

from .graph import Graph, Node


def adjacency_matrix(graph: Graph, order: list[Node] | None = None) -> list[list[int]]:
    """Dense adjacency matrix in the given node *order* (default: insertion)."""
    nodes = order if order is not None else graph.nodes
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    matrix = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        matrix[index[u]][index[v]] = 1
        matrix[index[v]][index[u]] = 1
    return matrix


def graph_key(graph: Graph) -> tuple[int, ...]:
    """A hashable *labelled* key: (n, sorted edge index pairs).

    Two graphs get the same key iff they are identical as labelled graphs
    after mapping nodes to their insertion-order indices.
    """
    nodes = graph.nodes
    index = {v: i for i, v in enumerate(nodes)}
    edges = sorted((min(index[u], index[v]), max(index[u], index[v])) for u, v in graph.edges)
    return (len(nodes), *[i * len(nodes) + j for i, j in edges])


def canonical_form(graph: Graph) -> tuple[int, ...]:
    """Canonical isomorphism-invariant key for a small graph.

    The key is ``(n, *edge_codes)`` minimized over all node permutations.
    Degree-sequence pre-partitioning prunes the permutation search: only
    permutations mapping nodes to same-degree positions can win.
    """
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return (0,)
    # Group nodes by degree; permutations must respect degree classes.
    by_degree: dict[int, list[Node]] = {}
    for v in nodes:
        by_degree.setdefault(graph.degree(v), []).append(v)
    degrees_sorted = sorted(by_degree)
    # Target positions: nodes sorted by degree get contiguous index blocks.
    blocks = [by_degree[d] for d in degrees_sorted]

    best: tuple[int, ...] | None = None
    for ordering in _block_permutations(blocks):
        index = {v: i for i, v in enumerate(ordering)}
        codes = sorted(
            min(index[u], index[v]) * n + max(index[u], index[v]) for u, v in graph.edges
        )
        key = tuple(codes)
        if best is None or key < best:
            best = key
    assert best is not None
    return (n, *best)


def _block_permutations(blocks: list[list[Node]]):
    """All orderings that permute nodes only within their degree block."""
    if not blocks:
        yield []
        return
    head, *rest = blocks
    for head_perm in permutations(head):
        for tail in _block_permutations(rest):
            yield list(head_perm) + tail


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for small graphs (via canonical forms)."""
    if g1.order != g2.order or g1.size != g2.size:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    return canonical_form(g1) == canonical_form(g2)


def find_isomorphism(g1: Graph, g2: Graph) -> dict[Node, Node] | None:
    """An explicit isomorphism ``g1 -> g2`` for small graphs, or ``None``."""
    if g1.order != g2.order or g1.size != g2.size:
        return None
    if g1.degree_sequence() != g2.degree_sequence():
        return None
    nodes2 = g2.nodes
    deg2 = {v: g2.degree(v) for v in nodes2}
    nodes1 = sorted(g1.nodes, key=lambda v: (-g1.degree(v), repr(v)))

    def backtrack(assigned: dict[Node, Node], used: set[Node]) -> dict[Node, Node] | None:
        if len(assigned) == g1.order:
            return dict(assigned)
        v = nodes1[len(assigned)]
        for w in nodes2:
            if w in used or deg2[w] != g1.degree(v):
                continue
            ok = True
            for prev_v, prev_w in assigned.items():
                if g1.has_edge(v, prev_v) != g2.has_edge(w, prev_w):
                    ok = False
                    break
            if not ok:
                continue
            assigned[v] = w
            used.add(w)
            result = backtrack(assigned, used)
            if result is not None:
                return result
            del assigned[v]
            used.remove(w)
        return None

    return backtrack({}, set())
