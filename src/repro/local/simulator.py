"""Synchronous message-passing simulation of the LOCAL model.

The paper treats an ``r``-round local algorithm as "the result of the
nodes broadcasting to their neighbors everything they know for ``r``
rounds" (Section 2.2).  This module implements that literally: nodes flood
their knowledge bases for ``r`` synchronous rounds and then reconstruct
their radius-``r`` view from the records they hold.

The point of the simulator is validation and accounting:

* :func:`simulate_views` is proven (in the test suite, over many graphs
  and radii) to reconstruct **exactly** ``extract_view``'s output — in
  particular, edges between two distance-``r`` nodes are invisible in both,
  because a fully resolved edge record needs one exchange to be created
  and ``dist`` more rounds to travel.
* :class:`RunStats` measures message and record volume, giving the
  message-complexity "table" of the benchmark suite.

Fault injection (certificate erasure, per the resilient-labeling-scheme
discussion in Section 1.2) is supported through ``erased_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ViewError
from ..graphs.graph import Node
from .instance import Instance
from .messages import EdgeRecord, Message, NodeRecord, RoundStats, RunStats
from .views import View, _assemble_view


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
