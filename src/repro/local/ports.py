"""Port assignments (paper Section 2.2).

A port assignment gives every node ``v`` a private numbering
``1..d(v)`` of its incident edges: ``prt(v, e) <= d(v)`` and distinct
ports for distinct incident edges.  Ports are how anonymous nodes refer to
their neighbors, and the even-cycle LCP's certificates (Lemma 4.2) are
built entirely out of port pairs.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import permutations

from ..errors import PortAssignmentError
from ..graphs.graph import Graph, Node


class PortAssignment:
    """An immutable port assignment for a fixed graph.

    Stored as ``{v: {neighbor: port}}``; both directions of an edge carry
    their own independent port.  The reverse map ``{v: {port: neighbor}}``
    of :meth:`neighbor_at` is built on its first call: a sweep keeps many
    assignments alive and never asks it.
    """

    __slots__ = ("_ports", "_by_port")

    def __init__(self, ports: dict[Node, dict[Node, int]]) -> None:
        self._ports = {v: dict(nbrs) for v, nbrs in ports.items()}
        self._by_port: dict[Node, dict[int, Node]] | None = None
        for v, nbrs in self._ports.items():
            if len(set(nbrs.values())) != len(nbrs):
                _reverse(v, nbrs)  # raises, naming the first repeated port

    def _reverse_map(self) -> dict[Node, dict[int, Node]]:
        if self._by_port is None:
            self._by_port = {v: _reverse(v, nbrs) for v, nbrs in self._ports.items()}
        return self._by_port

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def port(self, v: Node, u: Node) -> int:
        """The port number of *v* on the edge ``{v, u}``."""
        try:
            return self._ports[v][u]
        except KeyError:
            raise PortAssignmentError(f"no port at {v!r} toward {u!r}") from None

    def neighbor_at(self, v: Node, port: int) -> Node:
        """The neighbor reached from *v* through *port*."""
        try:
            return self._reverse_map()[v][port]
        except KeyError:
            raise PortAssignmentError(f"node {v!r} has no port {port}") from None

    def ports_of(self, v: Node) -> dict[Node, int]:
        """A copy of ``{neighbor: port}`` for node *v*."""
        return dict(self._ports.get(v, {}))

    def edge_ports(self, u: Node, v: Node) -> tuple[int, int]:
        """The pair ``(prt(u, uv), prt(v, uv))``."""
        return self.port(u, v), self.port(v, u)

    # ------------------------------------------------------------------
    # Validation and construction
    # ------------------------------------------------------------------

    def validate(self, graph: Graph) -> None:
        """Check the two conditions of Section 2.2 against *graph*."""
        if graph.has_loop():
            raise PortAssignmentError("port assignments are defined for loop-free graphs")
        for v in graph.nodes:
            nbrs = graph.neighbors(v)
            assigned = self._ports.get(v, {})
            if set(assigned) != nbrs:
                raise PortAssignmentError(
                    f"node {v!r}: ports cover {sorted(map(repr, assigned))}, "
                    f"neighbors are {sorted(map(repr, nbrs))}"
                )
            d = graph.degree(v)
            for u, p in assigned.items():
                if not 1 <= p <= d:
                    raise PortAssignmentError(
                        f"node {v!r}: port {p} toward {u!r} outside 1..{d}"
                    )

    @classmethod
    def canonical(cls, graph: Graph) -> "PortAssignment":
        """Deterministic ports: neighbors in sorted order get ports 1, 2, ..."""
        ports = {
            v: {u: i for i, u in enumerate(sorted(graph.neighbors(v), key=repr), start=1)}
            for v in graph.nodes
        }
        assignment = cls(ports)
        assignment.validate(graph)
        return assignment

    @classmethod
    def random(cls, graph: Graph, seed: int) -> "PortAssignment":
        """Uniformly random proper ports (deterministic per *seed*)."""
        rng = random.Random(seed)
        ports: dict[Node, dict[Node, int]] = {}
        for v in graph.nodes:
            nbrs = sorted(graph.neighbors(v), key=repr)
            numbers = list(range(1, len(nbrs) + 1))
            rng.shuffle(numbers)
            ports[v] = dict(zip(nbrs, numbers))
        assignment = cls(ports)
        assignment.validate(graph)
        return assignment

    def relabeled(self, mapping: dict[Node, Node]) -> "PortAssignment":
        """Transport the assignment through a node renaming."""
        return PortAssignment(
            {
                mapping[v]: {mapping[u]: p for u, p in nbrs.items()}
                for v, nbrs in self._ports.items()
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortAssignment):
            return NotImplemented
        return self._ports == other._ports

    def __repr__(self) -> str:
        return f"PortAssignment(nodes={len(self._ports)})"


def _reverse(v: Node, nbrs: dict[Node, int]) -> dict[int, Node]:
    """``{port: neighbor}`` of node *v*; raises on a port used twice."""
    reverse: dict[int, Node] = {}
    for u, p in nbrs.items():
        if p in reverse:
            raise PortAssignmentError(
                f"node {v!r} uses port {p} for both {reverse[p]!r} and {u!r}"
            )
        reverse[p] = u
    return reverse


def all_port_assignments(graph: Graph) -> Iterator[PortAssignment]:
    """Every proper port assignment of *graph* (use only on tiny graphs).

    The count is ``∏_v d(v)!``, which explodes quickly; the Lemma 3.1
    builder caps enumeration sizes before calling this.
    """
    nodes = graph.nodes
    neighbor_lists = [sorted(graph.neighbors(v), key=repr) for v in nodes]
    perm_choices = [list(permutations(range(1, len(nbrs) + 1))) for nbrs in neighbor_lists]

    def assemble(index: int, acc: dict[Node, dict[Node, int]]) -> Iterator[PortAssignment]:
        if index == len(nodes):
            yield PortAssignment(acc)
            return
        v = nodes[index]
        for perm in perm_choices[index]:
            acc[v] = dict(zip(neighbor_lists[index], perm))
            yield from assemble(index + 1, acc)
        acc.pop(v, None)

    yield from assemble(0, {})


def count_port_assignments(graph: Graph) -> int:
    """The exact number of proper port assignments (``∏_v d(v)!``)."""
    total = 1
    for v in graph.nodes:
        total *= math.factorial(graph.degree(v))
    return total
