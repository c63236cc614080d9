"""Incremental non-``k``-colorability detectors for streamed edge feeds.

The streaming hiding engine (:mod:`repro.neighborhood.streaming`) fuses
the construction of ``V(D, n)`` with the Lemma 3.2 colorability decision:
instead of materializing the graph and then coloring it, edges are fed
one at a time into the structures here, which either absorb the edge or
report a non-``k``-colorability witness the moment one exists.

* :class:`ParityForest` — union-find with parity for ``k = 2``.  Each
  union stores the tree edge, so when a same-parity edge closes an odd
  cycle the actual closed walk is recovered from the forest (the witness
  the Figures 3–6 experiments display), not just a yes/no bit.
* :class:`IncrementalKColoring` — a DSATUR-maintained proper coloring
  for general ``k``.  Conflicting edges trigger a local repair (recolor
  one endpoint) and, when that fails, a conflict-driven restart: an exact
  re-solve of the accumulated subgraph via :func:`~repro.graphs.coloring.
  k_coloring`.  ``failed`` becomes ``True`` exactly when the accumulated
  subgraph is not ``k``-colorable — a sound early-exit signal, since a
  non-``k``-colorable subgraph keeps any supergraph non-``k``-colorable.

Both structures support :meth:`clone`, which the cross-``n`` warm start
uses to extend a finished sweep's state without mutating it.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph


class ParityForest:
    """Union-find with parity plus the spanning forest for walk recovery.

    Nodes are dense integer indices (the view indices of the neighborhood
    graph).  :meth:`add_edge` returns ``None`` while the accumulated graph
    stays bipartite, and an odd closed walk ``[v0, ..., vk, v0]`` (the
    :func:`repro.graphs.properties.find_odd_cycle` convention) the moment
    an edge closes an odd cycle.
    """

    __slots__ = ("parent", "parity", "rank", "tree_adj", "unions")

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.parity: list[int] = []
        self.rank: list[int] = []
        #: Adjacency over *forest* edges only — the unique tree path
        #: between same-component nodes is the walk skeleton.
        self.tree_adj: dict[int, list[int]] = {}
        self.unions = 0

    def ensure(self, idx: int) -> None:
        """Register nodes ``0..idx`` (no-op for known indices)."""
        while len(self.parent) <= idx:
            i = len(self.parent)
            self.parent.append(i)
            self.parity.append(0)
            self.rank.append(0)

    def find(self, x: int) -> tuple[int, int]:
        """``(root, parity_to_root)`` with iterative path compression."""
        parent, parity = self.parent, self.parity
        root, p = x, 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        # Second pass: point the chain at the root with adjusted parities.
        node, p_node = x, p
        while parent[node] != root:
            nxt = parent[node]
            nxt_parity = p_node ^ parity[node]
            parent[node] = root
            parity[node] = p_node
            node, p_node = nxt, nxt_parity
        return root, p

    def add_edge(self, i: int, j: int) -> list[int] | None:
        """Feed one edge; returns an odd closed walk iff it creates one."""
        self.ensure(max(i, j))
        if i == j:
            # A loop is an odd closed walk of length 1.
            return [i, i]
        root_i, parity_i = self.find(i)
        root_j, parity_j = self.find(j)
        if root_i != root_j:
            # Union by rank; the edge itself joins the forest.
            if self.rank[root_i] < self.rank[root_j]:
                root_i, root_j = root_j, root_i
                parity_i, parity_j = parity_j, parity_i
            self.parent[root_j] = root_i
            self.parity[root_j] = parity_i ^ parity_j ^ 1
            if self.rank[root_i] == self.rank[root_j]:
                self.rank[root_i] += 1
            self.tree_adj.setdefault(i, []).append(j)
            self.tree_adj.setdefault(j, []).append(i)
            self.unions += 1
            return None
        if parity_i != parity_j:
            return None  # closes an even cycle: still bipartite
        # Same component, same parity: the tree path i -> j is even, so
        # path + this edge is an odd closed walk.
        return self._tree_path(i, j) + [i]

    def _tree_path(self, src: int, dst: int) -> list[int]:
        """The unique forest path ``[src, ..., dst]`` (BFS).

        Runs once per sweep: the streaming engine stops feeding the
        forest after the first odd closed walk."""
        prev: dict[int, int] = {src: src}
        queue: deque[int] = deque([src])
        while queue:
            u = queue.popleft()
            if u == dst:
                break
            for w in self.tree_adj.get(u, ()):
                if w not in prev:
                    prev[w] = u
                    queue.append(w)
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def two_coloring(self) -> dict[int, int]:
        """Parity-to-root colors — a proper 2-coloring while no odd cycle
        has been reported."""
        return {i: self.find(i)[1] for i in range(len(self.parent))}

    def clone(self) -> "ParityForest":
        other = ParityForest()
        other.parent = list(self.parent)
        other.parity = list(self.parity)
        other.rank = list(self.rank)
        other.tree_adj = {k: list(v) for k, v in self.tree_adj.items()}
        other.unions = self.unions
        return other

    def __len__(self) -> int:
        return len(self.parent)


class IncrementalKColoring:
    """A proper ``k``-coloring maintained under edge insertions.

    The invariant between calls: ``color`` is a proper coloring of every
    edge fed so far, unless ``failed`` is set, in which case the
    accumulated subgraph has been *proved* non-``k``-colorable by the
    exact solver.  Conflicts are resolved DSATUR-style: first a local
    repair (recolor one endpoint to a color unused by its neighbors),
    then a conflict-driven restart (exact re-solve of the whole
    accumulated subgraph).
    """

    __slots__ = ("k", "adj", "color", "failed", "restarts", "repairs")

    def __init__(self, k: int) -> None:
        self.k = k
        self.adj: dict[int, list[int]] = {}
        self.color: dict[int, int] = {}
        self.failed = False
        self.restarts = 0
        self.repairs = 0

    def add_node(self, i: int) -> None:
        if i in self.color or self.failed:
            if self.k == 0 and i not in self.color:
                self.failed = True
            return
        if self.k == 0:
            self.failed = True
            return
        self.adj.setdefault(i, [])
        self.color[i] = 0

    def add_edge(self, i: int, j: int) -> None:
        if self.failed:
            return
        self.add_node(i)
        self.add_node(j)
        if self.failed:
            return
        if i == j:
            self.failed = True  # loops are never properly colorable
            return
        self.adj[i].append(j)
        self.adj[j].append(i)
        if self.color[i] != self.color[j]:
            return
        if self._repair(j) or self._repair(i):
            self.repairs += 1
            return
        self._restart()

    def _repair(self, v: int) -> bool:
        used = {self.color[u] for u in self.adj[v]}
        for c in range(self.k):
            if c not in used:
                self.color[v] = c
                return True
        return False

    def _restart(self) -> None:
        from .coloring import k_coloring  # noqa: PLC0415

        self.restarts += 1
        g = Graph(nodes=self.color)
        for v, nbrs in self.adj.items():
            for u in nbrs:
                if v <= u:
                    g.add_edge(v, u)
        solution = k_coloring(g, self.k)
        if solution is None:
            self.failed = True
        else:
            self.color = dict(solution)

    def clone(self) -> "IncrementalKColoring":
        other = IncrementalKColoring(self.k)
        other.adj = {k: list(v) for k, v in self.adj.items()}
        other.color = dict(self.color)
        other.failed = self.failed
        other.restarts = self.restarts
        other.repairs = self.repairs
        return other

    def __len__(self) -> int:
        return len(self.color)
