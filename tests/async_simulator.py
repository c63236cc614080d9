"""Asynchronous message-passing execution with an α-synchronizer: the
tests' oracle for view extraction under asynchrony.

The LOCAL model is synchronous, but real networks are not; the classic
bridge is a *synchronizer* (Awerbuch 1985): nodes tag messages with round
numbers and only advance to round ``t + 1`` after receiving every
neighbor's round-``t`` message.  This module implements an event-driven
engine with adversarially scheduled per-message delays and the
α-synchronizer on top, and the test suite proves the end result is
*exactly* the synchronous execution: the reconstructed views equal
``extract_view``'s output for every delay schedule.

The paper's decoders run unchanged over the asynchronous network, and
:class:`AsyncStats` counts the synchronizer's cost (events processed,
virtual time span).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.graphs.graph import Node
from repro.local.instance import Instance
from repro.local.views import View, _assemble_view

from .simulator import ERASED, EdgeRecord, NodeRecord


class AsyncSimulationError(ReproError):
    """The asynchronous engine reached an inconsistent state."""


@dataclass(order=True)
class _Event:
    """A message delivery at a virtual time (the scheduler's clock)."""

    time: float
    sequence: int
    target: Node = field(compare=False)
    arrival_port: int = field(compare=False)
    sender_port: int = field(compare=False)
    round_index: int = field(compare=False)
    sender_record: NodeRecord = field(compare=False)
    node_records: frozenset = field(compare=False)
    edge_records: frozenset = field(compare=False)


@dataclass
class AsyncStats:
    """Accounting for one asynchronous run."""

    events_processed: int = 0
    messages_sent: int = 0
    virtual_time_span: float = 0.0
    max_round_skew: int = 0


class DelaySchedule:
    """Per-message delays.

    ``uniform`` draws i.i.d. delays from ``[low, high)``; ``fifo`` keeps
    per-link FIFO order by making delays monotone per (sender, receiver)
    pair — the α-synchronizer is correct either way, which the tests
    exercise.
    """

    def __init__(self, seed: int, low: float = 0.1, high: float = 10.0, fifo: bool = False):
        self._rng = random.Random(seed)
        self.low = low
        self.high = high
        self.fifo = fifo
        self._last: dict[tuple[Node, Node], float] = {}

    def delay(self, sender: Node, receiver: Node, now: float) -> float:
        raw = self._rng.uniform(self.low, self.high)
        arrival = now + raw
        if self.fifo:
            floor = self._last.get((sender, receiver), 0.0)
            arrival = max(arrival, floor + 1e-9)
            self._last[(sender, receiver)] = arrival
        return arrival


@dataclass
class _AsyncNodeState:
    record: NodeRecord
    node_records: set
    edge_records: set
    round_index: int = 0  # rounds completed
    #: round -> set of ports heard from
    heard: dict[int, set[int]] = field(default_factory=dict)
    #: round -> buffered knowledge from that round's messages
    buffered_nodes: dict[int, set] = field(default_factory=dict)
    buffered_edges: dict[int, set] = field(default_factory=dict)


class AsyncSimulator:
    """Event-driven asynchronous executor with an α-synchronizer.

    Nodes flood their knowledge exactly as in
    :class:`~tests.simulator.SyncSimulator`, but messages arrive
    with arbitrary (scheduler-chosen) delays.  A node buffers round-``t``
    messages until it has one from *every* port, then merges them and
    emits its round-``t + 1`` messages.  After ``rounds`` completed
    rounds everywhere, knowledge is identical to the synchronous run's.
    """

    def __init__(self, instance: Instance, schedule: DelaySchedule, include_ids: bool = True,
                 erased_nodes: set[Node] | None = None) -> None:
        self.instance = instance
        self.schedule = schedule
        self.include_ids = include_ids
        self.erased = set(erased_nodes or ())
        self.stats = AsyncStats()
        self._sequence = 0
        self._states: dict[Node, _AsyncNodeState] = {}
        for v in instance.graph.nodes:
            label = None
            if instance.labeling is not None:
                label = ERASED if v in self.erased else instance.labeling.of(v)
            record = NodeRecord(
                uid=v,
                ident=instance.ids.id_of(v) if include_ids else None,
                label=label,
            )
            self._states[v] = _AsyncNodeState(
                record=record, node_records={record}, edge_records=set()
            )

    # ------------------------------------------------------------------

    def run(self, rounds: int) -> None:
        """Execute until every node has completed *rounds* rounds."""
        graph = self.instance.graph
        if rounds < 1 or graph.order == 0:
            return
        queue: list[_Event] = []
        now = 0.0
        for v in graph.nodes:
            self._emit_round(v, 1, now, queue)
        while queue:
            event = heapq.heappop(queue)
            self.stats.events_processed += 1
            now = event.time
            self._deliver(event, rounds, queue)
        self.stats.virtual_time_span = now
        incomplete = [
            v for v, s in self._states.items()
            if s.round_index < rounds and graph.degree(v) > 0
        ]
        if incomplete:
            raise AsyncSimulationError(
                f"nodes never completed round {rounds}: {sorted(map(repr, incomplete))}"
            )

    def _emit_round(self, v: Node, round_index: int, now: float, queue: list) -> None:
        """Send v's round-``round_index`` messages to all neighbors."""
        graph = self.instance.graph
        ports = self.instance.ports
        state = self._states[v]
        for u in graph.neighbors(v):
            self._sequence += 1
            self.stats.messages_sent += 1
            heapq.heappush(
                queue,
                _Event(
                    time=self.schedule.delay(v, u, now),
                    sequence=self._sequence,
                    target=u,
                    arrival_port=ports.port(u, v),
                    sender_port=ports.port(v, u),
                    round_index=round_index,
                    sender_record=state.record,
                    node_records=frozenset(state.node_records),
                    edge_records=frozenset(state.edge_records),
                ),
            )

    def _deliver(self, event: _Event, rounds: int, queue: list) -> None:
        state = self._states[event.target]
        r = event.round_index
        state.heard.setdefault(r, set())
        if event.arrival_port in state.heard[r]:
            raise AsyncSimulationError(
                f"duplicate round-{r} message on port {event.arrival_port} "
                f"at {event.target!r}"
            )
        state.heard[r].add(event.arrival_port)
        state.buffered_nodes.setdefault(r, set())
        state.buffered_edges.setdefault(r, set())
        state.buffered_nodes[r].add(event.sender_record)
        state.buffered_nodes[r] |= event.node_records
        state.buffered_edges[r] |= event.edge_records
        state.buffered_edges[r].add(
            EdgeRecord.canonical(
                event.sender_record.uid,
                event.sender_port,
                state.record.uid,
                event.arrival_port,
            )
        )
        skew = r - (state.round_index + 1)
        self.stats.max_round_skew = max(self.stats.max_round_skew, abs(skew))
        self._try_advance(event.target, rounds, queue, event.time)

    def _try_advance(self, v: Node, rounds: int, queue: list, now: float) -> None:
        """α-synchronizer: advance while the next round is fully heard."""
        graph = self.instance.graph
        degree = graph.degree(v)
        state = self._states[v]
        while True:
            next_round = state.round_index + 1
            if next_round > rounds:
                return
            if len(state.heard.get(next_round, ())) < degree:
                return
            state.node_records |= state.buffered_nodes.pop(next_round, set())
            state.edge_records |= state.buffered_edges.pop(next_round, set())
            state.round_index = next_round
            if next_round < rounds:
                self._emit_round(v, next_round + 1, now, queue)

    # ------------------------------------------------------------------

    def reconstruct_view(self, v: Node, radius: int) -> View:
        """Assemble the radius-*radius* view from async knowledge.

        Identical logic to the synchronous engine's reconstruction; the
        equivalence theorem (test suite) is that the knowledge sets match
        after the synchronizer has run ``radius`` rounds.
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
            def ident_of(x: Node) -> int:  # noqa: F811
                ident = known_nodes[x].ident
                if ident is None:
                    raise AsyncSimulationError(f"record for {x!r} has no identifier")
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


def simulate_views_async(
    instance: Instance,
    radius: int,
    seed: int,
    include_ids: bool = True,
    fifo: bool = False,
    erased_nodes: set[Node] | None = None,
) -> tuple[dict[Node, View], AsyncStats]:
    """Run the asynchronous protocol and reconstruct every node's view."""
    schedule = DelaySchedule(seed=seed, fifo=fifo)
    simulator = AsyncSimulator(
        instance, schedule, include_ids=include_ids, erased_nodes=erased_nodes
    )
    simulator.run(radius)
    views = {v: simulator.reconstruct_view(v, radius) for v in instance.graph.nodes}
    return views, simulator.stats
