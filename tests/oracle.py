"""Test oracles: the build-then-decide Lemma 3.2 pipeline, the
edge-subset graph walk, and the callback-driven view canonicalizer.

The engine decides ``k``-colorability incrementally while the builder
discovers ``V(D, n)``.  This oracle takes the independent route: build
the complete graph from the Lemma 3.1 yes-instance stream first, then
decide on the finished graph with :func:`classic_verdict` (BFS
bipartition walk for ``k = 2``, exact coloring otherwise).  Parity
suites compare the engine against it.

Its brute-force side draws graphs from
:func:`~repro.graphs.families.enumerate_graphs_exactly_reference` — every
edge subset, deduplicated by isomorphism — so it stays independent of
orderly generation, which emits the same stream.

:func:`reference_view` canonicalizes a view the independent way: scan
the graph's edge list for the view graph ``G_v^r``
(:func:`~repro.graphs.traversal.view_subgraph_nodes_and_edges`),
rebuild its adjacency, and propagate minimal port signatures through
``port_of`` callbacks.  The engine's one-pass
:func:`~repro.local.views.canonicalize_view` must match it byte for byte.

:func:`reference_build` is the neighborhood-graph builder as it was
before views were interned: per instance, every node's view is cloned
from its layout template and decided, then the accepting ones are
indexed.  The interned builder must match its graph, witnesses and
event stream exactly; the oracle verdict is built on it.

:func:`reference_unanimous_labelings` is the unanimity pass the
labeling-by-labeling way: scan ``itertools.product`` order, decide every
node's view, and (under a stabilizer) decide orbit minima only.  The
numpy join of :mod:`repro.kernel.batch` must match its stream, ``seen``
mutations and account totals at every yield.  :func:`kernel_route`
scopes a block to the numpy kernels or to this loop plus the scalar
orderly DFS, so engine-level suites compare the two routes.

:func:`batch_colex_canonical` is the batched canonicalization with every
arrangement of isolated nodes enumerated: the scalar
:func:`~repro.symmetry.canon.colex_canonical`'s minimizer list, which the
orderly generator's factored search must reproduce.

:func:`reference_k_coloring` is the exact ``k``-coloring search picking
each next node by a scan of every node; the saturation buckets of
:mod:`repro.graphs.coloring` must return the same coloring.

:func:`reference_fingerprint` serializes a decision the direct way: every
view is encoded inline (:func:`encode_view`) and the whole payload goes
through one ``json.dumps(sort_keys=True)``.  The engine assembles the
same bytes from the fragments of a shape- and label-interned encoding
(:func:`repro.engine.verdict.fingerprint_bytes`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import cache
from itertools import product

import pytest

from repro.engine import ExecutionPlan, Provenance, Verdict
from repro.errors import ViewError
from repro.graphs.families import enumerate_graphs_exactly_reference
from repro.graphs.graph import FrozenGraph
from repro.graphs.properties import bipartition
from repro.graphs.traversal import view_subgraph_nodes_and_edges
from repro.kernel.generate import batch_colex_core, expand_isolated
from repro.local.labeling import Labeling, all_labelings, labeling_key, node_sort_order
from repro.local.views import View, relabel_view
from repro.neighborhood import (
    aviews,
    build_neighborhood_graph,
    labeled_yes_instances,
    yes_instances_up_to,
)
from repro.neighborhood.hiding import classic_verdict
from repro.neighborhood.ngraph import NeighborhoodGraph
from repro.neighborhood.streaming import StreamingHidingEngine
from repro.perf.cache import default_layout_cache
from repro.perf.persist import encode_label
from repro.symmetry import SymmetryAccount, orderly

_PLAN = ExecutionPlan()

#: The Lemma 3.1 enumeration bounds of a default plan.
DEFAULT_BOUNDS = {
    "port_limit": _PLAN.port_limit,
    "id_order_types": _PLAN.id_order_types,
    "labeling_limit": _PLAN.labeling_limit,
}


@contextmanager
def kernel_route(kernel: str):
    """Run the block on the numpy kernels (``"auto"``) or on the scalar
    reference (``"off"``): the sweep's unanimity pass becomes
    :func:`reference_unanimous_labelings`, and orderly generation emits
    levels, and builds those not memoized yet, by its scalar DFS."""
    with pytest.MonkeyPatch.context() as patch:
        if kernel == "off":
            patch.setattr(
                aviews, "unanimously_accepted_labelings", reference_unanimous_labelings
            )
            patch.setattr(orderly, "generation_supported", lambda n: False)
        yield


def reference_unanimous_labelings(
    decoder,
    instance,
    alphabet,
    radius: int,
    include_ids: bool,
    seen: set | None = None,
    stabilizer: tuple | None = None,
    account=None,
    stats=None,
    joins=None,
):
    """:func:`~repro.certification.enumeration.unanimously_accepted_labelings`
    by scanning every labeling, on every base (*stats* and *joins* are
    accepted and unused: the scan shares nothing across port bases)."""
    layouts = default_layout_cache().layouts_for(instance, radius, include_ids)
    node_order = node_sort_order(instance.graph)
    if seen is None:
        seen = set()
    decide = decoder.decide
    if stabilizer is not None and len(stabilizer) > 1:
        yield from _orbit_pruned_labelings(
            decide, layouts, instance.graph, alphabet, node_order, seen,
            stabilizer, account,
        )
        return
    for labeling in all_labelings(instance.graph, alphabet):
        if account is not None:
            account.labelings_total += 1
        key = labeling_key(labeling, node_order)
        if key in seen:
            continue
        if all(
            decide(relabel_view(template, order, labeling))
            for template, order in layouts.values()
        ):
            seen.add(key)
            yield labeling


def _orbit_pruned_labelings(
    decide, layouts, graph, alphabet, node_order, seen, stabilizer, account
):
    """The stabilizer-orbit-pruned scan.

    Enumerates labelings as alphabet-index tuples in product order and
    decides only orbit minima (index tuples compare as ints; certificate
    values may mix types).  The yielded stream is a subsequence of the
    unpruned stream — the minimum of an orbit is the first member
    product order visits.  Per accepted orbit, the mates neither yielded
    here nor already in *seen* (the prover's keys) are added to
    ``account.instances_suppressed``.
    """
    nodes = graph.nodes
    n = len(nodes)
    node_index = {v: i for i, v in enumerate(nodes)}
    order_pos = [node_index[v] for v in node_order]
    others = stabilizer[1:]
    indices = range(n)
    for t in product(range(len(alphabet)), repeat=n):
        if account is not None:
            account.labelings_total += 1
        is_rep = True
        for sigma in others:
            if tuple(t[sigma[i]] for i in indices) < t:
                is_rep = False
                break
        if not is_rep:
            if account is not None:
                account.labelings_pruned += 1
            continue
        labeling = Labeling({nodes[i]: alphabet[t[i]] for i in indices})
        if not all(
            decide(relabel_view(template, order, labeling))
            for template, order in layouts.values()
        ):
            continue
        orbit = {t}
        for sigma in others:
            orbit.add(tuple(t[sigma[i]] for i in indices))
        keys = {tuple(alphabet[u[j]] for j in order_pos) for u in orbit}
        rep_key = tuple(alphabet[t[j]] for j in order_pos)
        in_seen = sum(1 for key in keys if key in seen)
        if rep_key in seen:
            suppressed = len(orbit) - in_seen
        else:
            suppressed = len(orbit) - in_seen - 1
            seen.add(rep_key)
            yield labeling
        if account is not None:
            account.instances_suppressed += suppressed


def reference_k_coloring(graph, k: int) -> dict | None:
    """:func:`repro.graphs.coloring.k_coloring` picking each next node by
    a scan of every node — the DSATUR search before saturation buckets.
    Same search, same ``(-saturation, -degree, repr)`` tie-break, hence
    the same coloring (uncached: no graph fact is read or written)."""
    if graph.has_loop():
        return None
    if graph.order == 0:
        return {}
    if k == 0:
        return None
    if k >= 2:
        split = bipartition(graph)
        if split.is_bipartite:
            assert split.coloring is not None
            return dict(split.coloring)
        if k == 2:
            return None

    order = sorted(graph.nodes, key=lambda v: (-graph.degree(v), repr(v)))
    coloring: dict = {}
    # DSATUR bookkeeping: for every uncolored node, how many colored
    # neighbors use each color.  Maintained on assign/unassign, so picking
    # the next node never rescans neighborhoods — the saturation of v is
    # just len(neighbor_colors[v]).  The search assigns and unassigns
    # in strict stack order, so while a node is colored its own counts go
    # untouched and are exact again by the time it is uncolored.
    neighbor_colors: dict = {v: {} for v in order}

    def assign(v, color: int) -> None:
        coloring[v] = color
        for u in graph.neighbors(v):
            if u not in coloring:
                counts = neighbor_colors[u]
                counts[color] = counts.get(color, 0) + 1

    def unassign(v, color: int) -> None:
        del coloring[v]
        for u in graph.neighbors(v):
            if u not in coloring:
                counts = neighbor_colors[u]
                if counts[color] == 1:
                    del counts[color]
                else:
                    counts[color] -= 1

    def choose_next() -> object:
        # `order` is sorted by (degree desc, repr), so scanning it and
        # keeping the first strict maximum reproduces the original
        # (-saturation, -degree, repr) tie-break exactly.
        best = None
        best_saturation = -1
        for v in order:
            if v in coloring:
                continue
            saturation = len(neighbor_colors[v])
            if saturation > best_saturation:
                best, best_saturation = v, saturation
        return best

    # Depth-first search on an explicit stack — one frame per colored
    # node, so the depth is the graph's order and must not recurse.
    # Frames are (node, colors its neighbors held when it was picked,
    # color it holds); the search order is that of the plain recursion.
    stack: list = []
    v = choose_next()
    used = set(neighbor_colors[v]) if v is not None else set()
    start = 0
    while v is not None:
        color = next((c for c in range(start, k) if c not in used), None)
        if color is not None:
            assign(v, color)
            stack.append((v, used, color))
            v = choose_next()
            if v is not None:
                used, start = set(neighbor_colors[v]), 0
            continue
        # v has no color left: undo its parent's choice and move on.
        while True:
            if not stack:
                return None
            v, used, color = stack.pop()
            unassign(v, color)
            # Symmetry breaking: a strictly larger fresh color than any
            # used so far is equivalent to this one, so v fails too.
            if color <= max(coloring.values(), default=-1):
                start = color + 1
                break
    return dict(coloring)


@cache
def reference_graphs(n: int, connected_only: bool = True) -> tuple[FrozenGraph, ...]:
    """The edge-subset walk's graphs on exactly *n* nodes, memoized per
    ``(n, connected_only)`` (a few seconds at ``n = 6``)."""
    return tuple(
        FrozenGraph.freeze(g)
        for g in enumerate_graphs_exactly_reference(n, connected_only=connected_only)
    )


def batch_colex_canonical(rows, n: int, np, stats=None):
    """All minimizing degree-respecting assignments of every graph in
    *rows*, in the scalar DFS order: the batched
    :func:`repro.symmetry.canon.colex_canonical`.

    *rows* is a ``(batch, n)`` int64 adjacency bitset matrix.  Returns
    ``(perms, gid)``: ``perms`` is a ``(total, n)`` int64 matrix of
    position-to-node assignments and ``gid[t]`` the graph index of row
    ``t``, grouped by graph in ascending graph order and, within one
    graph, in exactly the order ``colex_canonical`` appends them.  The
    orderly generator keeps the core minimizers of
    :func:`~repro.kernel.generate.batch_colex_core`; this rebuilds every
    arrangement of each graph's isolated nodes on top of them (see
    *Isolated nodes* there), so parity suites compare the factored
    search against the scalar one.
    """
    perms, gid = batch_colex_core(rows, n, np, stats=stats)
    counts = (rows == 0).sum(axis=1)
    if not (counts >= 2).any():  # nothing to rebuild (or no graphs)
        return perms, gid
    bounds = np.searchsorted(gid, np.arange(len(rows) + 1)).tolist()
    parts, gids = [], []
    for g, z in enumerate(counts.tolist()):
        part = perms[bounds[g] : bounds[g + 1]]
        if z >= 2:
            part = expand_isolated(part, np.arange(z), part[0, :z], np)
        parts.append(part)
        gids.append(np.full(len(part), g, dtype=np.int64))
    return np.concatenate(parts), np.concatenate(gids)


def oracle_verdict(lcp, n: int, prune: bool = False, **bounds) -> Verdict:
    """Build all of ``V(D, n)``, then decide; wrapped as an engine
    :class:`Verdict` (witness = the BFS walk) so engine assertions
    apply.  By default brute force over the edge-subset walk; with
    *prune* the orderly sweep orbit-pruned through a
    :class:`SymmetryAccount`, whatever the scheme (anonymous or not).
    *bounds* override the default plan's enumeration bounds.
    Suppressed orbit mates are folded back into ``instances_scanned``."""
    account = SymmetryAccount() if prune else None
    bounds = {**DEFAULT_BOUNDS, **bounds}
    if prune:
        instances = yes_instances_up_to(lcp, n, **bounds, account=account)
    else:
        instances = labeled_yes_instances(
            lcp,
            (g for size in range(1, n + 1) for g in reference_graphs(size)),
            id_bound=n,
            include_all_accepted_labelings=True,
            **bounds,
        )
    ngraph = reference_build(lcp, instances)
    return _full_sweep_verdict(
        classic_verdict(lcp, ngraph, exhaustive=True), n, account, "oracle"
    )


def streaming_verdict(lcp, n: int, prune: bool = False, **bounds) -> Verdict:
    """The engine's full sweep outside the engine: the streaming decider
    fed the orderly Lemma 3.1 stream, orbit-pruned exactly when *prune*
    (anonymous scheme or not) — where the engine prunes exactly the
    anonymous schemes.  Same witness rule as the engine (stream-order
    first odd walk), so pruned and unpruned runs compare byte for byte."""
    account = SymmetryAccount() if prune else None
    engine = StreamingHidingEngine(
        lcp.k, lcp.radius, not lcp.anonymous, early_exit=False
    )
    build_neighborhood_graph(
        lcp,
        yes_instances_up_to(lcp, n, **{**DEFAULT_BOUNDS, **bounds}, account=account),
        consumer=engine,
        into=engine.ngraph,
    )
    return _full_sweep_verdict(engine.verdict(exhaustive=True), n, account, "streaming")


def _full_sweep_verdict(result, n: int, account, backend: str) -> Verdict:
    """Wrap a finished full sweep's :class:`HidingVerdict` as an engine
    :class:`Verdict`, folding suppressed orbit mates back into
    ``instances_scanned``."""
    ngraph = result.ngraph
    if account is not None:
        ngraph.instances_scanned += account.instances_suppressed
    return Verdict(
        k=result.k,
        hiding=result.hiding,
        witness=result.odd_cycle,
        coloring=result.coloring,
        ngraph=ngraph,
        provenance=Provenance(
            backend=backend,
            n=n,
            early_exit=False,
            instances_scanned=ngraph.instances_scanned,
            views=ngraph.order,
            edges=ngraph.size,
            symmetry_pruned=account is not None,
        ),
    )


def reference_build(lcp, labeled_instances, consumer=None, into=None) -> NeighborhoodGraph:
    """:func:`~repro.neighborhood.ngraph.build_neighborhood_graph` the
    per-pair way: every (labeling, node) pair gets its own view object
    and decision, and the graph's index deduplicates them."""
    ngraph = into if into is not None else NeighborhoodGraph(
        radius=lcp.radius, include_ids=not lcp.anonymous
    )
    decide = lcp.decoder.decide
    scanned = 0
    stopped = False
    for instance in labeled_instances:
        scanned += 1
        views = default_layout_cache().labeled_views(instance, lcp.radius, not lcp.anonymous)
        votes = {v: decide(view) for v, view in views.items()}
        indices = {}
        for v, accepted in votes.items():
            if not accepted:
                continue
            idx, created = ngraph.add_view_tracked(views[v], instance, v)
            indices[v] = idx
            if created and consumer is not None:
                consumer.on_view(idx, views[v])
                if consumer.done:
                    stopped = True
                    break
        if stopped:
            break
        for u, v in instance.graph.edges:
            if votes.get(u) and votes.get(v):
                created = ngraph.add_edge_tracked(indices[u], indices[v], instance, (u, v))
                if created and consumer is not None:
                    consumer.on_edge(indices[u], indices[v])
                    if consumer.done:
                        stopped = True
                        break
        if stopped:
            break
    ngraph.instances_scanned += scanned
    return ngraph


def reference_view(instance, v, radius: int, include_ids: bool = True) -> View:
    """The radius-*radius* view of *v*, canonicalized by layered
    signature propagation over the scanned view graph."""
    if radius < 1:
        raise ViewError("views require radius >= 1")
    dist, edges = view_subgraph_nodes_and_edges(instance.graph, v, radius)
    port_of = instance.ports.port
    labeling = instance.labeling
    label_of = labeling.of if labeling is not None else (lambda _x: None)

    adjacency: dict = {x: [] for x in dist}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    signature: dict = {v: ()}
    # Nodes at distance d get the minimum over signatures of their
    # distance-(d-1) neighbors extended by the edge's ports.
    layers: dict[int, list] = {}
    for x, d in dist.items():
        layers.setdefault(d, []).append(x)
    for d in range(1, max(dist.values(), default=0) + 1):
        for x in layers.get(d, []):
            candidates = [
                signature[y] + ((port_of(y, x), port_of(x, y)),)
                for y in adjacency[x]
                if dist[y] == d - 1
            ]
            if not candidates:
                raise ViewError(f"view node {x!r} at distance {d} has no predecessor")
            signature[x] = min(candidates)

    ordered = sorted(dist, key=lambda x: signature[x])
    local = {x: i for i, x in enumerate(ordered)}
    local_edges = sorted(
        (min(local[a], local[b]), max(local[a], local[b])) for a, b in edges
    )
    return View(
        radius=radius,
        dist=tuple(dist[x] for x in ordered),
        edges=tuple(local_edges),
        ports=tuple(
            (port_of(ordered[a], ordered[b]), port_of(ordered[b], ordered[a]))
            for a, b in local_edges
        ),
        ids=(tuple(map(instance.ids.id_of, ordered)) if include_ids else None),
        id_bound=(instance.id_bound if include_ids else None),
        labels=tuple(map(label_of, ordered)),
    )


def encode_view(view: View) -> dict:
    """One view with its labels encoded inline."""
    return {
        "radius": view.radius,
        "dist": list(view.dist),
        "edges": [list(e) for e in view.edges],
        "ports": [list(p) for p in view.ports],
        "ids": None if view.ids is None else list(view.ids),
        "id_bound": view.id_bound,
        "labels": [encode_label(label) for label in view.labels],
    }


def reference_fingerprint_bytes(
    k: int,
    hiding: bool | None,
    witness: list[View] | None,
    views: list[View] | None = None,
    edges: list | None = None,
    coloring: list | None = None,
) -> bytes:
    """Canonical decision bytes with every view encoded inline; the
    graph content counts only when ``hiding is False``."""
    payload: dict = {
        "k": k,
        "hiding": hiding,
        "witness": None if witness is None else [encode_view(v) for v in witness],
    }
    if hiding is False:
        payload["views"] = [encode_view(v) for v in views]
        payload["edges"] = edges
        payload["coloring"] = coloring
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")


def reference_fingerprint(verdict: Verdict) -> bytes:
    """:meth:`Verdict.decision_fingerprint`, computed the direct way."""
    if verdict.hiding is not False:
        return reference_fingerprint_bytes(verdict.k, verdict.hiding, verdict.witness)
    return reference_fingerprint_bytes(
        verdict.k,
        False,
        verdict.witness,
        verdict.ngraph.views,
        sorted(verdict.ngraph.edges),
        None if verdict.coloring is None else sorted(verdict.coloring.items()),
    )
