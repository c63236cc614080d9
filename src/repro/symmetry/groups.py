"""Automorphism groups of small graphs.

The symmetry layer needs, per family representative, the full
automorphism group: node orbits drive the emission labeler's candidate
restriction, port/identifier stabilizers drive the labeling-orbit
pruning of :func:`repro.certification.enumeration.
unanimously_accepted_labelings`, and base signatures collapse isomorphic
``(ports, ids)`` bases (see :mod:`repro.symmetry.prune`).

Groups come from :func:`repro.symmetry.canon.colex_canonical` — the set
of minimizing assignments *is* the automorphism group — and are memoized
by labelled :func:`repro.graphs.encoding.graph_key`.  The orderly
generator seeds the cache at emission time (it has just computed every
group anyway), so a sweep over generated families never recomputes one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.encoding import graph_key
from ..graphs.graph import Graph, Node
from ..perf.cache import LRUCache
from ..perf.stats import GLOBAL_STATS
from .canon import automorphisms_from_perms, colex_canonical

#: ``graph_key -> tuple of index permutations``.  The key identifies the
#: labelled graph up to insertion-order indices, which is exactly the
#: space the stored permutations act on, so one entry serves every graph
#: object with the same labelled structure regardless of node names.
_AUT_CACHE = LRUCache(65536)


def clear_automorphism_cache() -> None:
    """Drop all memoized automorphism groups (tests and cold-process
    isolation)."""
    _AUT_CACHE.clear()


@dataclass(frozen=True)
class AutomorphismGroup:
    """The automorphism group of one graph.

    *nodes* lists the graph's nodes in insertion order; *perms* the group
    elements as permutations of insertion-order indices (``perms[m][i]``
    = image index of node ``nodes[i]``), identity first.
    """

    nodes: tuple[Node, ...]
    perms: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        """``|Aut(G)|``."""
        return len(self.perms)

    @property
    def is_trivial(self) -> bool:
        return len(self.perms) == 1

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Node-index orbits, each sorted, ordered by smallest member.

        ``orbit(v) = {sigma(v)}``, so the minimum over the perms' column
        ``v`` is the smallest member of ``v``'s orbit and keys it."""
        groups: dict[int, list[int]] = {}
        for v, column in enumerate(zip(*self.perms)):
            groups.setdefault(min(column), []).append(v)
        return tuple(tuple(members) for _, members in sorted(groups.items()))

    def orbit_representatives(self) -> tuple[int, ...]:
        """The smallest index of each orbit."""
        return tuple(orbit[0] for orbit in self.orbits())


def automorphism_group(graph: Graph) -> AutomorphismGroup:
    """The automorphism group of *graph* (memoized by labelled key)."""
    nodes = tuple(graph.nodes)
    key = graph_key(graph)
    perms = _AUT_CACHE.get(key)
    if perms is not None:
        GLOBAL_STATS.incr("aut_cache_hits")
        return AutomorphismGroup(nodes=nodes, perms=perms)
    GLOBAL_STATS.incr("aut_cache_misses")
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    _, min_perms = colex_canonical(adj, n)
    perms = automorphisms_from_perms(min_perms, n) if n else ((),)
    _AUT_CACHE.put(key, perms)
    return AutomorphismGroup(nodes=nodes, perms=perms)


def seed_automorphisms(graph: Graph, perms: tuple[tuple[int, ...], ...]) -> None:
    """Pre-populate the cache (the orderly generator calls this at
    emission time with the group it computed during generation)."""
    _AUT_CACHE.put(graph_key(graph), perms)
