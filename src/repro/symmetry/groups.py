"""Automorphism groups of small graphs.

The symmetry layer needs, per family representative, the full
automorphism group: node orbits drive the emission labeler's candidate
restriction, port/identifier stabilizers drive the labeling-orbit
pruning of :func:`repro.certification.enumeration.
unanimously_accepted_labelings`, and base signatures collapse isomorphic
``(ports, ids)`` bases (see :mod:`repro.symmetry.prune`).

Groups come from :func:`repro.symmetry.canon.colex_canonical` — the set
of minimizing assignments *is* the automorphism group — and are a graph
fact (:meth:`repro.graphs.graph.Graph.fact`): a :class:`FrozenGraph`
keeps its group for its lifetime, a mutable graph recomputes it per
call.  Orderly emission and the direct families seed the fact on every
representative they build (generation has just computed the group), so
a sweep over cached families never computes one; ``automorphism_groups``
on :data:`~repro.perf.stats.GLOBAL_STATS` counts the groups computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.graph import Graph, Node
from ..perf.stats import GLOBAL_STATS
from .canon import automorphisms_from_perms, colex_canonical

#: The :meth:`~repro.graphs.graph.Graph.fact` key of the group.
GROUP_FACT = "automorphism_group"


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
    """The automorphism group of *graph* (a graph fact)."""
    return graph.fact(GROUP_FACT, lambda: _compute_group(graph))


def _compute_group(graph: Graph) -> AutomorphismGroup:
    GLOBAL_STATS.incr("automorphism_groups")
    nodes = tuple(graph.nodes)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for u, v in graph.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    _, min_perms = colex_canonical(adj, n)
    perms = automorphisms_from_perms(min_perms, n) if n else ((),)
    return AutomorphismGroup(nodes=nodes, perms=perms)


def seed_automorphisms(graph: Graph, perms: tuple[tuple[int, ...], ...]) -> None:
    """Set the group fact of *graph* to *perms* (permutations of its
    insertion-order indices, identity first).  Generation calls this on
    the frozen representatives it emits; on a mutable graph, which keeps
    no facts, it does nothing."""
    graph.fact(GROUP_FACT, lambda: AutomorphismGroup(nodes=tuple(graph.nodes), perms=perms))
