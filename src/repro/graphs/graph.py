"""Core undirected graph type used throughout the library.

The paper (Section 2) works with finite undirected graphs where loops are
allowed.  Nodes are arbitrary hashable objects, although the rest of the
library conventionally uses small integers.

The class is deliberately minimal and explicit: adjacency sets, a stable
node insertion order, and the handful of structural operations the
certification machinery needs (induced subgraphs, unions, copies).
Algorithms (BFS, bipartiteness, diameter, ...) live in
:mod:`repro.graphs.traversal` and :mod:`repro.graphs.properties`.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import Any

from ..errors import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable
Edge = tuple[Node, Node]

_MISSING = object()


def sealed_coloring(coloring: dict[Node, int] | None) -> Mapping[Node, int] | None:
    """A read-only view of *coloring* (``None`` passes through): the
    form in which :meth:`FrozenGraph.fact` keeps colorings."""
    return None if coloring is None else MappingProxyType(coloring)


def edge_key(u: Node, v: Node) -> Edge:
    """Canonical representation of the undirected edge ``{u, v}``.

    Endpoints are ordered by ``repr`` so that arbitrary hashable node types
    get a deterministic edge key; for the integer nodes used in practice
    this is simply numeric order.
    """
    if isinstance(u, int) and isinstance(v, int):
        return (u, v) if u <= v else (v, u)
    return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """A finite undirected graph with optional loops.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.degree(1)
    2
    """

    __slots__ = ("_adj",)

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()) -> None:
        self._adj: dict[Node, set[Node]] = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an edge list; nodes are inferred."""
        return cls(edges=edges)

    def add_node(self, v: Node) -> None:
        """Add node *v* (no-op if already present)."""
        self._adj.setdefault(v, set())

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``; endpoints are added as needed.

        Loops (``u == v``) are allowed, following the paper's convention.
        """
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raises if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_node(self, v: Node) -> None:
        """Remove node *v* and all incident edges; raises if absent."""
        if v not in self._adj:
            raise NodeNotFoundError(v)
        for u in list(self._adj[v]):
            self._adj[u].discard(v)
        del self._adj[v]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """Nodes in insertion order."""
        return list(self._adj)

    @property
    def order(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def edges(self) -> list[Edge]:
        """All edges, each reported once in canonical form."""
        seen: set[Edge] = set()
        out: list[Edge] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    @property
    def size(self) -> int:
        """Number of edges (loops count once)."""
        return len(self.edges)

    def fact(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        seal: Callable[[Any], Any] | None = None,
    ) -> Any:
        """``compute()``, memoized per *key* on a :class:`FrozenGraph`.

        A graph-only fact (a coloring, a decomposition, a base list) is
        a function of the adjacency alone.  A mutable graph can change
        under it, so here it is recomputed on every call and returned as
        computed; the frozen override keeps ``seal(compute())`` — the
        read-only form of the fact — for the object's lifetime.
        """
        return compute()

    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def has_node(self, v: Node) -> bool:
        """True if *v* is a node of the graph."""
        return v in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if ``{u, v}`` is an edge of the graph."""
        return u in self._adj and v in self._adj[u]

    def has_loop(self) -> bool:
        """True if any node has a loop."""
        return any(v in nbrs for v, nbrs in self._adj.items())

    def neighbors(self, v: Node) -> set[Node]:
        """The open neighborhood ``N(v)`` (a fresh set)."""
        if v not in self._adj:
            raise NodeNotFoundError(v)
        return set(self._adj[v])

    def closed_neighborhood(self, v: Node) -> set[Node]:
        """The closed neighborhood ``N[v] = N(v) ∪ {v}``."""
        return self.neighbors(v) | {v}

    def degree(self, v: Node) -> int:
        """The degree of *v* (a loop contributes 1 here)."""
        if v not in self._adj:
            raise NodeNotFoundError(v)
        return len(self._adj[v])

    def min_degree(self) -> int:
        """``δ(G)``; raises on the empty graph."""
        if not self._adj:
            raise GraphError("min_degree() of an empty graph")
        return min(len(nbrs) for nbrs in self._adj.values())

    def max_degree(self) -> int:
        """``Δ(G)``; raises on the empty graph."""
        if not self._adj:
            raise GraphError("max_degree() of an empty graph")
        return max(len(nbrs) for nbrs in self._adj.values())

    def degree_sequence(self) -> list[int]:
        """Sorted (non-increasing) degree sequence."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "Graph":
        """An independent copy of this graph."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def induced_subgraph(self, keep: Iterable[Node]) -> "Graph":
        """The subgraph induced by the node set *keep* (``G[U]``)."""
        keep_set = set(keep)
        missing = keep_set - set(self._adj)
        if missing:
            raise NodeNotFoundError(sorted(missing, key=repr)[0])
        g = Graph()
        for v in self._adj:
            if v in keep_set:
                g.add_node(v)
        for u, v in self.edges:
            if u in keep_set and v in keep_set:
                g.add_edge(u, v)
        return g

    def subtract_closed_neighborhood(self, v: Node) -> "Graph":
        """``G - N[v]``, used by the shatter-point machinery (Section 7.1)."""
        return self.induced_subgraph(set(self._adj) - self.closed_neighborhood(v))

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; nodes are re-tagged ``(0, v)`` and ``(1, v)``."""
        g = Graph()
        for v in self._adj:
            g.add_node((0, v))
        for v in other._adj:
            g.add_node((1, v))
        for u, v in self.edges:
            g.add_edge((0, u), (0, v))
        for u, v in other.edges:
            g.add_edge((1, u), (1, v))
        return g

    def relabeled(self, mapping: dict[Node, Node]) -> "Graph":
        """A copy with nodes renamed through *mapping* (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabeling mapping is not injective")
        missing = set(self._adj) - set(mapping)
        if missing:
            raise GraphError(f"relabeling mapping misses nodes: {sorted(missing, key=repr)}")
        g = Graph()
        for v in self._adj:
            g.add_node(mapping[v])
        for u, v in self.edges:
            g.add_edge(mapping[u], mapping[v])
        return g

    def to_integer_nodes(self) -> tuple["Graph", dict[Node, int]]:
        """Relabel nodes to ``0..n-1`` in insertion order; returns the map."""
        mapping = {v: i for i, v in enumerate(self._adj)}
        return self.relabeled(mapping), mapping

    # ------------------------------------------------------------------
    # Comparison and display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._adj) == set(other._adj)
            and {v: nbrs for v, nbrs in self._adj.items()}
            == {v: nbrs for v, nbrs in other._adj.items()}
        )

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("Graph is mutable and unhashable; use FrozenGraph.freeze()")

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, size={self.size})"


class FrozenGraph(Graph):
    """An immutable :class:`Graph`: every mutator raises.

    The family caches of :mod:`repro.graphs.families` hand these out on
    the ``mutable=False`` fast path, so a sweep shares one object per
    representative instead of paying a defensive copy per hit.  Use
    :meth:`Graph.copy` (inherited — it returns a plain mutable
    :class:`Graph`) when a mutable variant is needed.

    Graph facts.  Because the adjacency never changes, every fact a
    caller derives through :meth:`fact` (the edge list, the 2- and
    ``k``-colorings, the shatter and watermelon decompositions, the
    shatter prover's per-point plan, the sweep's port and identifier
    lists) is computed once per object and shared by every later
    caller.  Facts are read-only: producers store tuples, frozensets,
    frozen dataclasses and :class:`types.MappingProxyType` colorings, so
    no caller can mutate what the next one reads.  They live as long as
    the graph; :func:`repro.graphs.families.clear_family_cache` drops the
    cached representatives and their facts with them.  Copies and
    pickles carry the adjacency only.
    """

    __slots__ = ("_facts",)

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()) -> None:
        staging = Graph(nodes, edges)
        object.__setattr__(self, "_adj", staging._adj)
        object.__setattr__(self, "_facts", {})

    @classmethod
    def freeze(cls, graph: Graph) -> "FrozenGraph":
        """An immutable snapshot of *graph* (adjacency is copied)."""
        frozen = cls.__new__(cls)
        frozen.__setstate__({v: set(nbrs) for v, nbrs in graph._adj.items()})
        return frozen

    def __getstate__(self) -> dict:
        return self._adj

    def __setstate__(self, adj: dict) -> None:
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_facts", {})

    def fact(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        seal: Callable[[Any], Any] | None = None,
    ) -> Any:
        facts = self._facts
        value = facts.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            if seal is not None:
                value = seal(value)
            facts[key] = value
        return value

    @property
    def edges(self) -> list[Edge]:
        return list(self.fact("edges", lambda: Graph.edges.fget(self), seal=tuple))

    def add_node(self, v: Node) -> None:
        raise GraphError("FrozenGraph is immutable; copy() for a mutable graph")

    def add_edge(self, u: Node, v: Node) -> None:
        raise GraphError("FrozenGraph is immutable; copy() for a mutable graph")

    def remove_edge(self, u: Node, v: Node) -> None:
        raise GraphError("FrozenGraph is immutable; copy() for a mutable graph")

    def remove_node(self, v: Node) -> None:
        raise GraphError("FrozenGraph is immutable; copy() for a mutable graph")

    def __repr__(self) -> str:
        return f"FrozenGraph(order={self.order}, size={self.size})"
