"""Graph generators for the families used throughout the paper.

Every generator returns a :class:`~repro.graphs.graph.Graph` with integer
nodes ``0..n-1`` and a deterministic structure, so instances (and hence
views, neighborhood graphs, and experiment outputs) are reproducible.

The families map onto the paper as follows:

* paths / stars / caterpillars / pendant variants — minimum-degree-1 class
  ``H1`` of Theorem 1.1;
* even cycles — class ``H2``;
* grids and trees — the ``r``-forgetful graphs of the lower bound
  (Theorem 1.2, Fig. 1);
* watermelon graphs — Theorem 1.4;
* theta / pan / barbell and friends — graphs with shatter points and
  the no-instance stock for soundness checks.
"""

from __future__ import annotations

import heapq
import random

from ..errors import GraphError
from .graph import Graph


def empty_graph(n: int) -> Graph:
    """``n`` isolated nodes (used by the Lemma 6.2 padding trick)."""
    _require(n >= 0, "empty_graph needs n >= 0")
    return Graph(nodes=range(n))


def path_graph(n: int) -> Graph:
    """The path ``P_n`` on nodes ``0..n-1``."""
    _require(n >= 1, "path_graph needs n >= 1")
    return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n``; even ``n`` gives the class H2 of Theorem 1.1."""
    _require(n >= 3, "cycle_graph needs n >= 3")
    return Graph(edges=[(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """A star: center ``0`` joined to ``leaves`` leaves ``1..leaves``."""
    _require(leaves >= 1, "star_graph needs at least one leaf")
    return Graph(edges=[(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    """The clique ``K_n`` (a no-instance of 2-col for ``n >= 3``)."""
    _require(n >= 1, "complete_graph needs n >= 1")
    g = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """``K_{a,b}`` with parts ``0..a-1`` and ``a..a+b-1``."""
    _require(a >= 1 and b >= 1, "complete_bipartite_graph needs both parts non-empty")
    g = Graph(nodes=range(a + b))
    for i in range(a):
        for j in range(a, a + b):
            g.add_edge(i, j)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` grid; the canonical r-forgetful yes-instance."""
    _require(rows >= 1 and cols >= 1, "grid_graph needs positive dimensions")
    g = Graph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def binary_tree(height: int) -> Graph:
    """Complete binary tree of the given *height* (height 0 = one node)."""
    _require(height >= 0, "binary_tree needs height >= 0")
    n = 2 ** (height + 1) - 1
    g = Graph(nodes=range(n))
    for v in range(1, n):
        g.add_edge(v, (v - 1) // 2)
    return g


def spider_graph(legs: int, leg_length: int) -> Graph:
    """*legs* disjoint paths of *leg_length* edges glued at a center ``0``."""
    _require(legs >= 1 and leg_length >= 1, "spider_graph needs positive parameters")
    g = Graph(nodes=[0])
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
    return g


def caterpillar_graph(spine: int, legs_per_node: int = 1) -> Graph:
    """A path of *spine* nodes with pendant leaves attached to each."""
    _require(spine >= 1 and legs_per_node >= 0, "caterpillar needs spine >= 1")
    g = path_graph(spine)
    nxt = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(v, nxt)
            nxt += 1
    return g


def pan_graph(cycle_len: int, tail_len: int = 1) -> Graph:
    """A cycle with a pendant path (a "pan"); min degree 1, one cycle."""
    _require(cycle_len >= 3 and tail_len >= 1, "pan_graph needs cycle >= 3, tail >= 1")
    g = cycle_graph(cycle_len)
    prev = 0
    for i in range(tail_len):
        nxt = cycle_len + i
        g.add_edge(prev, nxt)
        prev = nxt
    return g


def theta_graph(a: int, b: int, c: int) -> Graph:
    """Two hubs joined by three internally disjoint paths of lengths a,b,c.

    Theta graphs are the smallest watermelon graphs with three paths and
    the canonical min-degree-2, two-cycle instances needed by the lower
    bound of Section 5.
    """
    return watermelon_graph([a, b, c])


def watermelon_graph(path_lengths: list[int]) -> Graph:
    """A watermelon graph (Section 7.2): endpoints ``0`` and ``1`` joined by
    internally disjoint paths whose *lengths* (edge counts) are given.

    Every length must be at least 2, per the paper's definition.
    """
    _require(len(path_lengths) >= 1, "watermelon_graph needs at least one path")
    _require(all(length >= 2 for length in path_lengths), "watermelon paths need length >= 2")
    g = Graph(nodes=[0, 1])
    nxt = 2
    for length in path_lengths:
        prev = 0
        for _ in range(length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g


def barbell_graph(clique: int, bridge: int) -> Graph:
    """Two ``K_clique`` cliques joined by a path of *bridge* edges."""
    _require(clique >= 3 and bridge >= 1, "barbell needs clique >= 3, bridge >= 1")
    g = complete_graph(clique)
    offset = clique
    # Second clique.
    for i in range(clique):
        for j in range(i + 1, clique):
            g.add_edge(offset + i, offset + j)
    # Bridge path from node 0 to node offset.
    prev = 0
    for i in range(bridge - 1):
        nxt = 2 * clique + i
        g.add_edge(prev, nxt)
        prev = nxt
    g.add_edge(prev, offset)
    return g


def book_graph(pages: int) -> Graph:
    """*pages* triangles sharing one common edge ``{0, 1}`` (odd cycles)."""
    _require(pages >= 1, "book_graph needs pages >= 1")
    g = Graph(edges=[(0, 1)])
    for i in range(pages):
        v = 2 + i
        g.add_edge(0, v)
        g.add_edge(1, v)
    return g


def friendship_graph(triangles: int) -> Graph:
    """*triangles* triangles sharing the single hub ``0``."""
    _require(triangles >= 1, "friendship_graph needs triangles >= 1")
    g = Graph(nodes=[0])
    nxt = 1
    for _ in range(triangles):
        a, b = nxt, nxt + 1
        nxt += 2
        g.add_edge(0, a)
        g.add_edge(0, b)
        g.add_edge(a, b)
    return g


def lollipop_with_pendants(cycle_len: int, pendants: int) -> Graph:
    """An odd or even cycle with *pendants* leaves on node 0 (class H1 stock)."""
    _require(cycle_len >= 3 and pendants >= 1, "needs cycle >= 3 and pendants >= 1")
    g = cycle_graph(cycle_len)
    for i in range(pendants):
        g.add_edge(0, cycle_len + i)
    return g


def random_tree(n: int, seed: int) -> Graph:
    """A uniformly random labelled tree via a random Prüfer sequence."""
    _require(n >= 1, "random_tree needs n >= 1")
    if n == 1:
        return Graph(nodes=[0])
    if n == 2:
        return Graph(edges=[(0, 1)])
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_prufer(prufer)


def tree_from_prufer(prufer: list[int]) -> Graph:
    """Decode a Prüfer sequence into the tree it encodes."""
    n = len(prufer) + 2
    _require(all(0 <= x < n for x in prufer), "Prüfer entries out of range")
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    g = Graph(nodes=range(n))
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, x)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    g.add_edge(u, v)
    return g


def random_bipartite_graph(a: int, b: int, p: float, seed: int) -> Graph:
    """Random bipartite graph: each cross edge present with probability *p*."""
    _require(a >= 1 and b >= 1, "random_bipartite_graph needs both parts non-empty")
    _require(0.0 <= p <= 1.0, "edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    g = Graph(nodes=range(a + b))
    for i in range(a):
        for j in range(a, a + b):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi ``G(n, p)`` (no-instance stock for soundness checks)."""
    _require(n >= 1, "random_graph needs n >= 1")
    _require(0.0 <= p <= 1.0, "edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    g = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube ``Q_dim`` (bipartite, regular)."""
    _require(dim >= 1, "hypercube_graph needs dim >= 1")
    g = Graph(nodes=range(2**dim))
    for v in range(2**dim):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if v < w:
                g.add_edge(v, w)
    return g


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)


def toroidal_grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` torus (grid with wraparound).

    Unlike the finite grid, the torus has no boundary, so it satisfies the
    r-forgetful property everywhere once it is large enough; it is
    bipartite iff both dimensions are even.
    """
    _require(rows >= 3 and cols >= 3, "toroidal_grid_graph needs dimensions >= 3")
    g = Graph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_edge(v, r * cols + (c + 1) % cols)
            g.add_edge(v, ((r + 1) % rows) * cols + c)
    return g
