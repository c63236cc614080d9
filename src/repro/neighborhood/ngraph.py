"""The accepting neighborhood graph ``V(D, n)`` (Section 3, Lemma 3.1).

Nodes are accepting views; edges join yes-instance-compatible views (two
views held by adjacent nodes of a common labeled yes-instance, both
accepting).  The builder records *provenance* — for every view and edge,
one concrete (instance, node) pair realizing it — because the
realizability machinery of Section 5 and the figure experiments need to
trace views back to instances.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..certification.lcp import LCP
from ..graphs.graph import Graph, Node
from ..graphs.coloring import k_coloring
from ..graphs.properties import bipartition
from ..local.instance import Instance
from ..local.views import View, view_with_labels
from ..obs.progress import GLOBAL_PROGRESS
from ..obs.trace import NULL_TRACER, Tracer
from ..perf.cache import ViewLayoutCache, default_layout_cache
from ..perf.stats import GLOBAL_STATS, PerfStats

#: The builder announces ``instances_scanned`` progress every this many
#: scanned instances (plus a final remainder).
PROGRESS_EVERY = 256


@dataclass
class NeighborhoodGraph:
    """``V(D, n)`` (or a subgraph of it spanned by chosen instances)."""

    radius: int
    include_ids: bool
    views: list[View] = field(default_factory=list)
    index: dict[View, int] = field(default_factory=dict)
    edges: set[tuple[int, int]] = field(default_factory=set)
    #: One (instance, node) witness per view index.
    view_witness: dict[int, tuple[Instance, Node]] = field(default_factory=dict)
    #: One (instance, (u, v)) witness per edge.
    edge_witness: dict[tuple[int, int], tuple[Instance, tuple[Node, Node]]] = field(
        default_factory=dict
    )
    #: Adjacency lists over view indices, maintained alongside ``edges``
    #: so neighborhood queries don't scan the full edge set.
    adjacency: dict[int, list[int]] = field(default_factory=dict)
    instances_scanned: int = 0
    #: False for graphs reconstructed from the persistent cache, whose
    #: view/edge witnesses (instance provenance) did not survive the
    #: round trip.
    has_provenance: bool = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_view(self, view: View, instance: Instance, node: Node) -> int:
        """Register an accepting view; returns its index."""
        return self.add_view_tracked(view, instance, node)[0]

    def add_view_tracked(
        self, view: View, instance: Instance, node: Node
    ) -> tuple[int, bool]:
        """Register an accepting view; returns ``(index, created)``.

        *created* tells streaming consumers whether this event introduced
        a new node of ``V(D, n)`` (views repeat massively across
        instances, and consumers must see each node exactly once).
        """
        existing = self.index.get(view)
        if existing is not None:
            return existing, False
        idx = len(self.views)
        self.views.append(view)
        self.index[view] = idx
        self.view_witness[idx] = (instance, node)
        return idx, True

    def add_edge(self, i: int, j: int, instance: Instance, edge: tuple[Node, Node]) -> None:
        """Register a yes-instance-compatible pair."""
        self.add_edge_tracked(i, j, instance, edge)

    def add_edge_tracked(
        self, i: int, j: int, instance: Instance, edge: tuple[Node, Node]
    ) -> bool:
        """Register a compatible pair; returns whether the edge is new."""
        key = (i, j) if i <= j else (j, i)
        if key in self.edges:
            return False
        self.edges.add(key)
        self.edge_witness[key] = (instance, edge)
        self.adjacency.setdefault(i, []).append(j)
        if j != i:
            self.adjacency.setdefault(j, []).append(i)
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.views)

    @property
    def size(self) -> int:
        return len(self.edges)

    def to_graph(self) -> Graph:
        """``V(D, n)`` as a plain graph on view indices."""
        g = Graph(nodes=range(len(self.views)))
        for i, j in self.edges:
            g.add_edge(i, j)
        return g

    def is_k_colorable(self, k: int) -> bool:
        """Whether ``V(D, n) ∈ G(k-col)`` — the Lemma 3.2 pivot."""
        return k_coloring(self.to_graph(), k) is not None

    def proper_coloring(self, k: int) -> dict[int, int] | None:
        """A canonical proper ``k``-coloring of the view graph, if any.

        This is the deterministic coloring ``c`` from the proof of
        Lemma 3.2; the extraction decoder is built on top of it.
        """
        return k_coloring(self.to_graph(), k)

    def find_odd_cycle(self) -> list[View] | None:
        """An odd closed walk of views, or ``None`` if bipartite.

        A non-``None`` result *proves* the LCP hiding for ``k = 2``
        (Lemma 3.2), even when this object only covers a subgraph of the
        full ``V(D, n)``.
        """
        split = bipartition(self.to_graph())
        if split.odd_cycle is None:
            return None
        return [self.views[i] for i in split.odd_cycle]

    def neighbors_of(self, view: View) -> list[View]:
        """Neighboring views, via the maintained adjacency lists."""
        idx = self.index[view]
        return [self.views[j] for j in self.adjacency.get(idx, [])]


def memoized_decide(decoder):
    """The builder's decide hook: ``decoder.decide`` itself, since the
    builder interns views and so decides each distinct view once per
    build.  The end-to-end benchmark harness times decoder calls through
    this name."""
    return decoder.decide


class GraphConsumer:
    """Contract for consumers driven by the neighborhood-graph builder.

    The builder changed contract from "return a finished graph" to
    "drive a consumer": as the scan discovers each *new* view and edge of
    ``V(D, n)``, it calls :meth:`on_view` / :meth:`on_edge` immediately —
    before the next instance is even enumerated.  A consumer that sets
    ``done`` stops the scan on the spot (the streaming hiding engine does
    this the moment a non-``k``-colorability witness exists).
    """

    #: Builders stop scanning as soon as this turns True.
    done: bool = False

    def on_view(self, idx: int, view: View) -> None:
        """A new node of ``V(D, n)`` (called once per distinct view)."""

    def on_edge(self, i: int, j: int) -> None:
        """A new edge of ``V(D, n)`` (called once per distinct edge)."""


def build_neighborhood_graph(
    lcp: LCP,
    labeled_instances: Iterable[Instance],
    stats: PerfStats | None = None,
    consumer: GraphConsumer | None = None,
    into: NeighborhoodGraph | None = None,
    tracer: Tracer | None = None,
) -> NeighborhoodGraph:
    """Scan labeled yes-instances and assemble (a subgraph of) ``V(D, n)``.

    Every scanned instance contributes its accepting views as nodes and
    its edges-with-both-endpoints-accepting as neighborhood-graph edges.
    Feeding the full Lemma 3.1 enumeration
    (:func:`repro.neighborhood.aviews.yes_instances_up_to`) yields the
    exact ``V(D, n)`` (up to the enumeration bounds); feeding a hand-built
    witness list yields the subgraph the paper's hiding proofs use.

    With a *consumer*, every new view/edge is streamed out as it is
    found, and the scan stops (mid-instance, mid-enumeration) as soon as
    ``consumer.done`` is set — this is what makes the hiding decision
    early-exit without materializing the rest of the graph, and because
    the instance stream is a generator, the un-scanned suffix is never
    even enumerated.  *into* continues an existing graph instead of
    starting fresh (the cross-``n`` warm start: ``V(D, n-1)`` embeds into
    ``V(D, n)``).

    Views are interned: view layouts are fetched once per run of
    instances on one ``(graph, ports, ids)`` base (through the shared
    layout cache), and a view is a layout template plus a label tuple,
    so each distinct ``(template, labels)`` pair of the call is cloned,
    decided and indexed once, however many (labeling, node) pairs hold
    it.  ``views_built`` counts the clones.  Interning is
    semantics-preserving: layouts never depend on labels, and decoders
    are pure functions of the view.

    The scan runs in one ``build:serial`` span, so the
    ``instances_scanned``, ``views_built`` and ``streaming_early_exits``
    counters it records are that span's.  When
    :data:`~repro.obs.progress.GLOBAL_PROGRESS` has subscribers as the
    build starts, the same ``scanned`` count is announced as
    ``instances_scanned`` deltas every :data:`PROGRESS_EVERY` instances.
    """
    stats = stats or GLOBAL_STATS
    tracer = tracer if tracer is not None else NULL_TRACER
    ngraph = into if into is not None else NeighborhoodGraph(
        radius=lcp.radius, include_ids=not lcp.anonymous
    )
    decide = memoized_decide(lcp.decoder)
    layout_cache = default_layout_cache()
    radius, include_ids = lcp.radius, not lcp.anonymous
    # Views are interned per call.  A view is a template plus a label
    # tuple, so ``slots[template][labels]`` names exactly one view: its
    # index in ``ngraph``, or -1 when the decoder rejects it.  Each
    # distinct view is cloned, decided and indexed the first time its
    # key appears; every later (labeling, node) pair holding it costs one
    # label tuple and two dict probes.  Templates are keyed by value, so
    # equal templates of different bases share their slots.
    slots: dict[View, dict[tuple, int]] = {}
    # The current base, pinned so the ids in its key cannot be recycled
    # while they are compared; ``plan`` is its ``(node, label_order,
    # template, slots)`` per node, ``edges`` its graph's edge list.
    base = base_key = None
    plan: list = []
    edges: list = []
    built = 0
    scanned = 0
    stopped = False
    observed = GLOBAL_PROGRESS.active
    trace_id = tracer.trace_id if tracer.active else None
    with tracer.span("build:serial"):
        for instance in labeled_instances:
            scanned += 1
            if observed and not scanned % PROGRESS_EVERY:
                _announce(lcp, PROGRESS_EVERY, scanned, trace_id)
            key = ViewLayoutCache.base_key(instance, radius, include_ids)
            if key != base_key:
                base, base_key = instance, key
                layouts = layout_cache.layouts_for(
                    instance, radius, include_ids, stats=stats
                )
                plan = [
                    (v, order, template, slots.setdefault(template, {}))
                    for v, (template, order) in layouts.items()
                ]
                edges = instance.graph.edges
            labeling = instance.labeling
            label_of = labeling.of if labeling is not None else _no_label
            indices = {}
            for v, order, template, table in plan:
                labels = tuple(map(label_of, order))
                idx = table.get(labels)
                if idx is None:
                    view = view_with_labels(template, labels)
                    built += 1
                    idx, created = -1, False
                    if decide(view):
                        idx, created = ngraph.add_view_tracked(view, instance, v)
                    table[labels] = idx
                    if created and consumer is not None:
                        consumer.on_view(idx, view)
                        if consumer.done:
                            stopped = True
                            break
                if idx >= 0:
                    indices[v] = idx
            if stopped:
                stats.incr("streaming_early_exits")
                break
            for u, v in edges:
                if u in indices and v in indices:
                    created = ngraph.add_edge_tracked(
                        indices[u], indices[v], instance, (u, v)
                    )
                    if created and consumer is not None:
                        consumer.on_edge(indices[u], indices[v])
                        if consumer.done:
                            stopped = True
                            break
            if stopped:
                stats.incr("streaming_early_exits")
                break
        if observed and scanned % PROGRESS_EVERY:
            _announce(lcp, scanned % PROGRESS_EVERY, scanned, trace_id)
        stats.incr("instances_scanned", scanned)
        stats.incr("views_built", built)
    ngraph.instances_scanned += scanned
    return ngraph


def _announce(lcp: LCP, delta: int, total: int, trace_id: str | None) -> None:
    GLOBAL_PROGRESS.emit(
        "instances_scanned", delta=delta, total=total, scheme=lcp.name, trace_id=trace_id
    )


def _no_label(_node: Node) -> None:
    return None
