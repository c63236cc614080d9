"""Synchronous message-passing simulation of the LOCAL model: the
tests' oracle for view extraction.

The paper treats an ``r``-round local algorithm as "the result of the
nodes broadcasting to their neighbors everything they know for ``r``
rounds" (Section 2.2).  This module implements that literally: nodes flood
their knowledge bases for ``r`` synchronous rounds and then reconstruct
their radius-``r`` view from the records they hold.  The package computes
every view directly (:func:`repro.local.views.extract_view`); the tests
check that :func:`simulate_views` reconstructs **exactly** the same views —
in particular, edges between two distance-``r`` nodes are invisible in
both, because a fully resolved edge record needs one exchange to be
created and ``dist`` more rounds to travel.

The knowledge base is built from two record kinds: node records (what a
node knows about itself) and edge records (a fully resolved edge,
including both port numbers).  Records are engine-level — they carry an
engine uid so knowledge can be assembled, but decoders never see uids:
the reconstructed *view* is the only thing handed to them.
:class:`RunStats` counts messages and record volume per round.

Fault injection (certificate erasure, per the resilient-labeling-scheme
discussion in Section 1.2) is supported through ``erased_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import ViewError
from repro.graphs.graph import Node
from repro.local.instance import Instance
from repro.local.views import View, _assemble_view


@dataclass(frozen=True)
class NodeRecord:
    """What a node initially knows about itself.

    ``uid`` is an engine-internal name used purely for assembling
    knowledge (it plays the role of "which physical node"), while ``ident``
    is the model-level identifier (``None`` in anonymous executions).
    Degrees are deliberately absent: a radius-``r`` view does not reveal
    boundary degrees, and including them would make the simulator
    strictly stronger than the model.
    """

    uid: Hashable
    ident: int | None
    label: Hashable


@dataclass(frozen=True)
class EdgeRecord:
    """A fully resolved edge with both endpoint ports.

    Stored in canonical orientation (smaller uid repr first) so the same
    edge learned from both sides deduplicates.
    """

    uid_a: Hashable
    port_a: int
    uid_b: Hashable
    port_b: int

    @staticmethod
    def canonical(uid_a: Hashable, port_a: int, uid_b: Hashable, port_b: int) -> "EdgeRecord":
        if repr(uid_a) <= repr(uid_b):
            return EdgeRecord(uid_a, port_a, uid_b, port_b)
        return EdgeRecord(uid_b, port_b, uid_a, port_a)


@dataclass(frozen=True)
class Message:
    """One message sent through a port in one round.

    *sender_port* is the port the sender used; the receiver independently
    knows its own arrival port.  The payload is the sender's current
    knowledge (sets of records) plus the sender's own node record so the
    receiver can resolve the connecting edge.
    """

    sender_record: NodeRecord
    sender_port: int
    node_records: frozenset[NodeRecord]
    edge_records: frozenset[EdgeRecord]

    def size_units(self) -> int:
        """Crude message size: number of records carried (+1 for header)."""
        return 1 + len(self.node_records) + len(self.edge_records)


@dataclass
class RoundStats:
    """Accounting for a single synchronous round."""

    round_index: int
    messages: int = 0
    record_units: int = 0


@dataclass
class RunStats:
    """Accounting for a whole simulation run."""

    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def total_record_units(self) -> int:
        return sum(r.record_units for r in self.rounds)


ERASED = ("__erased__",)
"""Sentinel certificate carried by nodes whose label was erased by a fault."""


@dataclass
class _NodeState:
    """Per-node simulator state: everything the node currently knows."""

    record: NodeRecord
    node_records: set[NodeRecord]
    edge_records: set[EdgeRecord]


class SyncSimulator:
    """Synchronous LOCAL executor for one instance.

    Parameters
    ----------
    instance:
        The network to run on (labeling optional).
    include_ids:
        Whether model-level identifiers are visible (anonymous runs hide
        them from the reconstructed views, as required for anonymous
        decoders).
    erased_nodes:
        Nodes whose certificate is replaced by :data:`ERASED` before the
        run — a crash-erasure fault model.
    """

    def __init__(
        self,
        instance: Instance,
        include_ids: bool = True,
        erased_nodes: set[Node] | None = None,
    ) -> None:
        self.instance = instance
        self.include_ids = include_ids
        self.erased = set(erased_nodes or ())
        self.stats = RunStats()
        self._states: dict[Node, _NodeState] = {}
        for v in instance.graph.nodes:
            label = None
            if instance.labeling is not None:
                label = ERASED if v in self.erased else instance.labeling.of(v)
            record = NodeRecord(
                uid=v,
                ident=instance.ids.id_of(v) if include_ids else None,
                label=label,
            )
            self._states[v] = _NodeState(
                record=record, node_records={record}, edge_records=set()
            )

    def run(self, rounds: int) -> None:
        """Execute *rounds* synchronous flooding rounds."""
        graph = self.instance.graph
        ports = self.instance.ports
        for round_index in range(1, rounds + 1):
            stats = RoundStats(round_index=round_index)
            inboxes: dict[Node, list[tuple[int, Message]]] = {v: [] for v in graph.nodes}
            for v in graph.nodes:
                state = self._states[v]
                for u in graph.neighbors(v):
                    message = Message(
                        sender_record=state.record,
                        sender_port=ports.port(v, u),
                        node_records=frozenset(state.node_records),
                        edge_records=frozenset(state.edge_records),
                    )
                    inboxes[u].append((ports.port(u, v), message))
                    stats.messages += 1
                    stats.record_units += message.size_units()
            for v, arrivals in inboxes.items():
                state = self._states[v]
                for arrival_port, message in arrivals:
                    state.node_records.add(message.sender_record)
                    state.node_records |= message.node_records
                    state.edge_records |= message.edge_records
                    state.edge_records.add(
                        EdgeRecord.canonical(
                            message.sender_record.uid,
                            message.sender_port,
                            state.record.uid,
                            arrival_port,
                        )
                    )
            self.stats.rounds.append(stats)

    def reconstruct_view(self, v: Node, radius: int) -> View:
        """Assemble the radius-*radius* view of *v* from its knowledge.

        Requires ``run(radius)`` (or more rounds) to have happened; the
        reconstruction keeps only nodes within *radius* hops and edges with
        an endpoint strictly inside the ball, mirroring ``G_v^r``.
        """
        state = self._states[v]
        known_nodes = {rec.uid: rec for rec in state.node_records}
        # The knowledge graph as a port table: its keys are the adjacency.
        ports: dict[Node, dict[Node, int]] = {u: {} for u in known_nodes}
        for rec in state.edge_records:
            if rec.uid_a in ports and rec.uid_b in ports:
                ports[rec.uid_a][rec.uid_b] = rec.port_a
                ports[rec.uid_b][rec.uid_a] = rec.port_b

        ident_of = None
        if self.include_ids:
            def ident_of(x: Node) -> int:  # noqa: F811 - deliberate rebind
                ident = known_nodes[x].ident
                if ident is None:
                    raise ViewError(f"node record for {x!r} carries no identifier")
                return ident

        return _assemble_view(
            radius=radius,
            center=v,
            adjacency=ports,
            ports=ports,
            id_of=ident_of,
            id_bound=self.instance.id_bound if self.include_ids else None,
            label_of=lambda x: known_nodes[x].label,
        )


def simulate_views(
    instance: Instance,
    radius: int,
    include_ids: bool = True,
    erased_nodes: set[Node] | None = None,
) -> tuple[dict[Node, View], RunStats]:
    """Run the flooding protocol and reconstruct every node's view."""
    simulator = SyncSimulator(instance, include_ids=include_ids, erased_nodes=erased_nodes)
    simulator.run(radius)
    views = {
        v: simulator.reconstruct_view(v, radius) for v in instance.graph.nodes
    }
    return views, simulator.stats


def run_algorithm_distributed(algorithm, instance: Instance) -> tuple[dict[Node, object], RunStats]:
    """Execute a local algorithm through the message-passing engine.

    Semantically equal to ``algorithm.run_on(instance)`` — the test suite
    enforces this equivalence — but the views are obtained by actual
    flooding, and message statistics are returned.
    """
    views, stats = simulate_views(
        instance, algorithm.radius, include_ids=not algorithm.anonymous
    )
    return {v: algorithm.run(view) for v, view in views.items()}, stats
