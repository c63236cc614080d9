"""Radius-``r`` views (paper Section 2.2, Fig. 2).

A view ``view_r(G, prt, Id, I)(v)`` is the structure a node can see after
``r`` communication rounds: the view graph ``G_v^r`` (nodes within distance
``r``, edges lying on paths of length at most ``r`` from ``v``), together
with the restricted port, identifier, and label assignments.

Views must be *values*: hashable, comparable across instances, and
isomorphism-canonical, because the accepting neighborhood graph
``V(D, n)`` (Section 3) has views as its nodes.  Canonicalization renames
view nodes to ``0..k-1`` by **minimal port signatures**: every node is
named by the lexicographically smallest sequence of ``(out_port, in_port)``
pairs along a shortest path from the center.  Ports at a node are distinct,
so a signature determines a unique walk and hence a unique node; the
induced order is invariant under port-preserving rooted isomorphism.
Every view in the package is named by one routine,
:func:`canonicalize_view`, which computes the signatures during the BFS
that discovers the view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable

from ..errors import NodeNotFoundError, ViewError
from ..graphs.graph import Graph, Node
from .instance import Instance

Signature = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class View:
    """A canonicalized radius-``r`` view; the center is local node ``0``.

    Fields (all tuples, indexed by local node where applicable):

    * ``radius`` — the view radius ``r``.
    * ``dist`` — distance from the center (``dist[0] == 0``).
    * ``edges`` — the view-graph edges as sorted local pairs.
    * ``ports`` — for each edge in ``edges``, the pair
      ``(port_at_smaller_endpoint, port_at_larger_endpoint)``.
    * ``ids`` — identifiers, or ``None`` for an anonymous view.
    * ``id_bound`` — the known bound ``N`` (``None`` when anonymous).
    * ``labels`` — certificates (``None`` per node when unlabeled).
    """

    radius: int
    dist: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    ports: tuple[tuple[int, int], ...]
    ids: tuple[int, ...] | None
    id_bound: int | None
    labels: tuple[Hashable, ...]

    # Views are the dict keys of the neighborhood graph and the decision
    # memo; each object gets hashed several times per sweep, so the hash
    # is computed once and cached (eq=False above hands __eq__/__hash__
    # to these definitions).

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, View):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.dist == other.dist
            and self.edges == other.edges
            and self.ports == other.ports
            and self.ids == other.ids
            and self.radius == other.radius
            and self.id_bound == other.id_bound
        )

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (
                    self.radius,
                    self.dist,
                    self.edges,
                    self.ports,
                    self.ids,
                    self.id_bound,
                    self.labels,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # Never ship the cached hash across process boundaries: string
        # hashes are per-process (PYTHONHASHSEED), so a worker's cache
        # would be wrong in the parent.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of nodes in the view."""
        return len(self.dist)

    @property
    def center(self) -> int:
        """The center's local name (always 0)."""
        return 0

    def nodes(self) -> range:
        return range(self.size)

    def label_of(self, local: int) -> Hashable:
        return self.labels[local]

    @property
    def center_label(self) -> Hashable:
        return self.labels[0]

    def id_of(self, local: int) -> int:
        if self.ids is None:
            raise ViewError("view is anonymous; identifiers are hidden")
        return self.ids[local]

    @property
    def center_id(self) -> int:
        return self.id_of(0)

    @property
    def is_anonymous(self) -> bool:
        return self.ids is None

    def has_edge(self, a: int, b: int) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in set(self.edges)

    def neighbors_in_view(self, local: int) -> list[int]:
        """Neighbors of *local* among the view edges."""
        out = []
        for a, b in self.edges:
            if a == local:
                out.append(b)
            elif b == local:
                out.append(a)
        return sorted(out)

    def degree_in_view(self, local: int) -> int:
        """Degree of *local* within the view.

        This equals the true degree in ``G`` exactly when
        ``dist[local] < radius`` (the node's full neighborhood is inside
        the view graph); for boundary nodes it is only a lower bound.
        """
        return len(self.neighbors_in_view(local))

    @property
    def center_degree(self) -> int:
        """Exact degree of the center (exact for any radius >= 1)."""
        return self.degree_in_view(0)

    def port(self, a: int, b: int) -> int:
        """Port of local node *a* on the view edge ``{a, b}``."""
        key = (a, b) if a <= b else (b, a)
        for edge, (p_lo, p_hi) in zip(self.edges, self.ports):
            if edge == key:
                return p_lo if a <= b else p_hi
        raise ViewError(f"no edge between local nodes {a} and {b}")

    def center_neighbors(self) -> list[tuple[int, int, int]]:
        """Center's incident edges as ``(neighbor, own_port, far_port)``,
        sorted by own port — the canonical one-round payload."""
        out = []
        for w in self.neighbors_in_view(0):
            out.append((w, self.port(0, w), self.port(w, 0)))
        out.sort(key=lambda t: t[1])
        return out

    def neighbor_via_port(self, port: int) -> int:
        """Local node reached from the center through *port*."""
        for w, own, _far in self.center_neighbors():
            if own == port:
                return w
        raise ViewError(f"center has no port {port}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def anonymized(self) -> "View":
        """The same view with identifiers removed."""
        return replace(self, ids=None, id_bound=None)

    def order_normalized(self) -> "View":
        """Identifiers replaced by their local ranks ``1..k``.

        Two views have equal order-normalized forms iff an order-invariant
        decoder must treat them identically (Section 6).
        """
        if self.ids is None:
            raise ViewError("anonymous views have no identifier order")
        ranking = {i: rank for rank, i in enumerate(sorted(self.ids), start=1)}
        return replace(
            self,
            ids=tuple(ranking[i] for i in self.ids),
            id_bound=len(self.ids),
        )

    def unlabeled(self) -> "View":
        """The same view with all certificates removed."""
        return replace(self, labels=tuple(None for _ in self.labels))

    def with_relabeled_ids(self, mapping: dict[int, int]) -> "View":
        """Replace identifiers through an injective *mapping* (old -> new).

        Used by the identifier-replacement step of Lemma 5.2.
        """
        if self.ids is None:
            raise ViewError("anonymous views carry no identifiers")
        new_ids = tuple(mapping.get(i, i) for i in self.ids)
        if len(set(new_ids)) != len(new_ids):
            raise ViewError("identifier relabeling collides inside the view")
        bound = max(self.id_bound or 0, max(new_ids))
        return replace(self, ids=new_ids, id_bound=bound)

    def structure_key(self) -> tuple:
        """Everything except identifiers — the "S" part of Lemma 6.2.

        Two views with equal structure keys differ only in identifier
        values, which is exactly the split the Ramsey argument needs.
        """
        return (self.radius, self.dist, self.edges, self.ports, self.labels)

    def subview_radius1(self, local: int) -> "View":
        """The radius-1 view of *local* inside this view.

        Faithful to the true ``view_1`` in the underlying graph whenever
        ``dist[local] < radius`` (the compatibility definition of
        Section 5.1 only queries such nodes).
        """
        if self.dist[local] >= self.radius:
            raise ViewError(
                f"radius-1 subview of boundary node {local} would be truncated"
            )
        table: dict[int, dict[int, int]] = {x: {} for x in self.nodes()}
        for (a, b), (p_a, p_b) in zip(self.edges, self.ports):
            table[a][b] = p_a
            table[b][a] = p_b
        return _assemble_view(
            radius=1,
            center=local,
            adjacency=table,
            ports=table,
            id_of=(None if self.ids is None else self.ids.__getitem__),
            id_bound=self.id_bound,
            label_of=self.labels.__getitem__,
        )

    def to_graph(self) -> Graph:
        """The view graph as a plain :class:`Graph` on local nodes."""
        g = Graph(nodes=self.nodes())
        for a, b in self.edges:
            g.add_edge(a, b)
        return g

    def __repr__(self) -> str:
        anon = "anon" if self.is_anonymous else f"id={self.ids[0]}"
        return (
            f"View(r={self.radius}, size={self.size}, {anon}, "
            f"label={self.labels[0]!r})"
        )


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def extract_view(
    instance: Instance,
    v: Node,
    radius: int,
    include_ids: bool = True,
) -> View:
    """The canonical radius-``radius`` view of node *v* in *instance*.

    With ``include_ids=False`` the result is an anonymous view (used for
    anonymous LCPs, where the decoder may not depend on identifiers).
    """
    if radius < 1:
        raise ViewError("views require radius >= 1")
    if v not in instance.graph:
        raise NodeNotFoundError(v)
    labeling = instance.labeling
    return _assemble_view(
        radius=radius,
        center=v,
        adjacency=instance.graph._adj,
        ports=instance.ports._ports,
        id_of=(instance.ids.id_of if include_ids else None),
        id_bound=(instance.id_bound if include_ids else None),
        label_of=(labeling.of if labeling is not None else (lambda _x: None)),
    )


def extract_all_views(
    instance: Instance, radius: int, include_ids: bool = True
) -> dict[Node, View]:
    """Views of every node, keyed by graph node."""
    return {
        v: extract_view(instance, v, radius, include_ids=include_ids)
        for v in instance.graph.nodes
    }


def canonicalize_view(center, radius: int, adjacency, ports) -> tuple:
    """Canonicalize the radius-*radius* view of *center* in one BFS.

    *adjacency* maps every node to its neighbors and *ports* is the port
    table ``{v: {u: port}}``.  The BFS assigns each newly reached node
    the signature of its first predecessor extended by the edge's
    ``(out_port, in_port)`` pair, and lowers it whenever another
    predecessor in the previous layer offers a smaller one — so when a
    layer is done, every node in it carries its minimal port signature.

    Returns ``(order, dist, edges, port_pairs)``: the reached nodes in
    signature order (local name ``i`` is ``order[i]``, the center is
    ``0``), their distances, the view-graph edges as sorted local pairs
    (edges between two distance-*radius* nodes are invisible), and the
    ``(port_at_smaller, port_at_larger)`` pair of each edge.
    """
    # A node's signature has one step per hop: its length is the node's
    # distance from the center.
    signature: dict[Node, Signature] = {center: ()}
    # Every view-graph edge has an endpoint strictly inside the ball, so
    # the BFS walks each one: ``arcs`` keeps ``(y, x, (port_y, port_x))``.
    arcs = []
    layer = [center]
    for d in range(1, radius + 1):
        reached = []
        for y in layer:
            base = signature[y]
            out = ports[y]
            for x in adjacency[y]:
                step = (out[x], ports[x][y])
                arcs.append((y, x, step))
                known = signature.get(x)
                if known is None:
                    reached.append(x)
                    signature[x] = base + (step,)
                elif len(known) == d:
                    candidate = base + (step,)
                    if candidate < known:
                        signature[x] = candidate
        if not reached:
            break
        layer = reached

    order = tuple(sorted(signature, key=signature.__getitem__))
    local = {x: i for i, x in enumerate(order)}
    # An edge inside the ball was walked from both ends: keep the walk
    # from its smaller local name.  An edge to the boundary was walked
    # once.
    links = []
    for y, x, step in arcs:
        i = local[y]
        j = local[x]
        if i < j:
            links.append(((i, j), step))
        elif len(signature[x]) == radius:
            links.append(((j, i), step[::-1]))
    links.sort()
    edges, port_pairs = zip(*links) if links else ((), ())
    return order, tuple([len(signature[x]) for x in order]), edges, port_pairs


def _assemble_view(
    radius: int,
    center,
    adjacency,
    ports,
    id_of,
    id_bound,
    label_of,
) -> View:
    """The canonical view of *center*, with identifiers and labels read
    through *id_of* (``None`` for an anonymous view) and *label_of*."""
    order, dist, edges, port_pairs = canonicalize_view(center, radius, adjacency, ports)
    return View(
        radius=radius,
        dist=dist,
        edges=edges,
        ports=port_pairs,
        ids=(None if id_of is None else tuple(map(id_of, order))),
        id_bound=id_bound,
        labels=tuple(map(label_of, order)),
    )


def extract_view_layouts(
    instance: Instance, radius: int, include_ids: bool = True
) -> dict:
    """Views as relabelable templates: ``{node: (template, label_order)}``.

    Canonicalization depends on graph structure, ports, and identifiers —
    never on labels — so a view under a *different labeling* is the same
    template with its ``labels`` tuple swapped.  ``label_order`` is the
    canonical node order itself: the graph node whose label belongs at
    each local index.  Each center costs one :func:`canonicalize_view`
    pass over the graph's adjacency and port table, so the whole base
    is canonicalized without a per-center edge scan.  This turns
    exhaustive-adversary loops (millions of labelings on one instance)
    from full re-extractions into tuple rebuilds; see
    :func:`relabel_view`.
    """
    if radius < 1:
        raise ViewError("views require radius >= 1")
    adjacency = instance.graph._adj
    ports = instance.ports._ports
    id_of = instance.ids.id_of if include_ids else None
    id_bound = instance.id_bound if include_ids else None
    layouts = {}
    for v in adjacency:
        order, dist, edges, port_pairs = canonicalize_view(v, radius, adjacency, ports)
        template = View(
            radius=radius,
            dist=dist,
            edges=edges,
            ports=port_pairs,
            ids=(None if id_of is None else tuple(map(id_of, order))),
            id_bound=id_bound,
            labels=(None,) * len(order),
        )
        layouts[v] = (template, order)
    return layouts


def layout_label_columns(label_order, node_index: dict) -> tuple[int, ...]:
    """Column indices a layout template reads from a ``(batch, nodes)``
    label-digit matrix — the array-native face of ``label_order``.

    The batch kernel (:mod:`repro.kernel.batch`) materializes candidate
    labelings as integer digit matrices with one column per graph node
    (in ``node_index`` order); a template's acceptance then depends on
    the digits at exactly these columns, in template-position order.
    Keeping this translation beside :func:`extract_view_layouts` pins
    the two representations together: ``relabel_view`` and the kernel's
    table gather read the same positions by construction.
    """
    return tuple(node_index[u] for u in label_order)


def view_with_labels(template: View, labels: tuple) -> View:
    """A layout template with *labels* at its local positions.

    Clones the template by copying its ``__dict__`` and swapping the
    label tuple, skipping the frozen-dataclass ``__init__`` (seven
    ``object.__setattr__`` calls) — the sweeps instantiate templates
    millions of times.  The cached hash never carries over: the labels
    differ.
    """
    view = View.__new__(View)
    state = view.__dict__
    state.update(template.__dict__)
    state.pop("_hash", None)
    state["labels"] = labels
    return view


def relabel_view(template: View, label_order, labeling) -> View:
    """Instantiate a layout template under a concrete labeling."""
    return view_with_labels(template, tuple(map(labeling.of, label_order)))


def describe_view(view: View) -> str:
    """Multi-line human-readable rendering of a view (used by the CLI).

    Lists the center, then every view node with its distance, identifier,
    and label, then the edges with both port numbers.
    """
    lines = [
        f"radius-{view.radius} view, {view.size} node(s), "
        f"{'anonymous' if view.is_anonymous else f'N = {view.id_bound}'}"
    ]
    for local in view.nodes():
        ident = "-" if view.ids is None else str(view.ids[local])
        marker = "center" if local == 0 else f"dist {view.dist[local]}"
        lines.append(
            f"  node {local}: {marker:>6s}  id={ident:>3s}  "
            f"label={view.labels[local]!r}"
        )
    for (a, b), (pa, pb) in zip(view.edges, view.ports):
        lines.append(f"  edge {a} -[{pa}:{pb}]- {b}")
    return "\n".join(lines)
