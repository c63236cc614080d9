"""Enumeration of small graph families.

Lemma 3.1 constructs the accepting neighborhood graph ``V(D, n)`` by
iterating over *all* labeled yes-instances on at most ``n`` nodes.  The
enumerators here supply the graph part of that iteration: all connected
graphs up to isomorphism, all bipartite ones, and the promise classes of
the paper's theorems (minimum degree 1, even cycles, shatter-point graphs,
watermelons).

Enumeration is exact and deterministic: the orderly generator of
:mod:`repro.symmetry.orderly` constructs each isomorphism class exactly
once, in the order of the edge-subset walk (all ``2^(n choose 2)``
masks, deduplicated by isomorphism), which the tests keep as the
differential oracle.  With ``bipartite=True`` only the bipartite
classes are enumerated — the bipartite subsequence of the full stream —
which is all a ``k = 2`` sweep ever keeps; the generator then builds the
bipartite augmentation tree alone.  Generation is practical up to
``n = 8`` for all graphs and up to ``n = 9`` for bipartite ones (1,119
classes on 9 nodes instead of 274,668).

Some named families (:data:`GRAPH_FAMILIES`) are also built directly:
cycles and even cycles in a closed-form labeling, watermelons from
their path lengths.  A direct family yields exactly the members the
filtered orderly stream would, in the same labeling and order, without
generating the other graphs, so a sweep over it is not bounded by the
sizes above (a full even-cycle ``V(D, 12)`` sweeps in well under a
second).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from ..perf.stats import GLOBAL_STATS
from .graph import FrozenGraph, Graph
from .properties import (
    is_bipartite,
    is_cycle_graph,
    is_even_cycle,
    is_path_graph,
    is_tree,
)
from .shatter import has_shatter_point
from .watermelon import is_watermelon

#: ``(n, connected_only, bipartite, family) -> tuple of frozen
#: representatives`` (*family* is ``None`` for orderly generation, else
#: the name of the directly built family).  The Lemma 3.1 sweeps
#: re-enumerate the same families for every scheme and every bound;
#: caching the representative lists makes repeat sweeps
#: enumeration-free.  Entries are the :class:`FrozenGraph` objects
#: generation emits, each holding its automorphism group as a fact —
#: ``mutable=True`` yields defensive copies, ``mutable=False`` the cached
#: objects themselves.
_FAMILY_CACHE: dict[tuple[int, bool, bool, str | None], tuple[FrozenGraph, ...]] = {}


def clear_family_cache() -> None:
    """Drop the memoized family enumerations (tests and cold-process
    isolation)."""
    _FAMILY_CACHE.clear()


def warm_graph_families(
    lo: int,
    hi: int,
    connected_only: bool = True,
    bipartite: bool = False,
    family: str | None = None,
) -> int:
    """Enumerate (and cache) the families of sizes ``lo+1 .. hi``.

    The engine calls this under its ``symmetry:generate`` span so
    generation cost is attributed to generation rather than smeared over
    the sweep.  The arguments are those of :func:`all_graphs_exactly`.
    No-op per size already cached; returns the number of sizes
    enumerated."""
    warmed = 0
    for size in range(max(1, lo + 1), hi + 1):
        if (size, connected_only, bipartite, family) not in _FAMILY_CACHE:
            for _ in all_graphs_exactly(
                size,
                connected_only=connected_only,
                mutable=False,
                bipartite=bipartite,
                family=family,
            ):
                pass
            warmed += 1
    return warmed


def all_graphs_exactly(
    n: int,
    connected_only: bool = True,
    mutable: bool = True,
    bipartite: bool = False,
    family: str | None = None,
) -> Iterator[Graph]:
    """All simple graphs on exactly *n* nodes, up to isomorphism.

    Nodes are ``0..n-1``.  With *connected_only* the disconnected ones are
    skipped; with *bipartite* the non-bipartite ones are (the orderly
    generator never builds them).  Loops are not generated (a loop is
    never 2-colorable, and the paper's instances are simple).

    *family* names a :data:`GRAPH_FAMILIES` entry with a direct
    generator: the stream is then only that family's members, built
    directly instead of generated — the subsequence of the orderly
    stream that the family's predicate keeps, in the same labeling and
    order (see :class:`GraphFamily`).  Direct families are connected, so
    *family* requires *connected_only*.

    Results are cached per ``(n, connected_only, bipartite, family)``.
    With ``mutable=True`` every yielded graph is an independent copy;
    ``mutable=False`` yields shared :class:`FrozenGraph` objects instead —
    the fast path for the sweep, which never mutates representatives.
    """
    from ..symmetry.orderly import orderly_graphs_exactly  # noqa: PLC0415

    if n <= 0:
        return
    key = (n, connected_only, bipartite, family)
    cached = _FAMILY_CACHE.get(key)
    if cached is not None:
        GLOBAL_STATS.incr("family_cache_hits")
        for g in cached:
            yield g.copy() if mutable else g
        return
    GLOBAL_STATS.incr("family_cache_misses")
    if family is not None:
        if not connected_only:
            raise ValueError(f"the direct family {family!r} is connected only")
        _FAMILY_CACHE[key] = members = _direct_family(n, family, bipartite)
        for g in members:
            yield g.copy() if mutable else g
        return
    # The bipartite family is the bipartite subsequence of the full one,
    # representative for representative.  When it is cached, the full
    # family adopts its objects, so the graph facts (and the layouts
    # keyed by them) a k = 2 sweep derived serve a later k >= 3 sweep.
    adopt = iter(
        () if bipartite else _FAMILY_CACHE.get((n, connected_only, True, None), ())
    )
    candidate = next(adopt, None)
    representatives: list[FrozenGraph] = []
    for g in orderly_graphs_exactly(n, connected_only, bipartite):
        if candidate is not None and candidate == g:
            g = candidate
            candidate = next(adopt, None)
        representatives.append(g)
        yield g.copy() if mutable else g
    # Commit only after full exhaustion, so an abandoned generator
    # never caches a truncated family.
    _FAMILY_CACHE[key] = tuple(representatives)


def all_graphs_up_to(
    n: int,
    connected_only: bool = True,
    mutable: bool = True,
    bipartite: bool = False,
    family: str | None = None,
) -> Iterator[Graph]:
    """All simple graphs on at most *n* nodes, up to isomorphism (the
    arguments are those of :func:`all_graphs_exactly`)."""
    for k in range(1, n + 1):
        yield from all_graphs_exactly(
            k,
            connected_only=connected_only,
            mutable=mutable,
            bipartite=bipartite,
            family=family,
        )


def _filtered(
    n: int, predicate: Callable[[Graph], bool], bipartite: bool = False
) -> Iterator[Graph]:
    for g in all_graphs_up_to(n, bipartite=bipartite):
        if predicate(g):
            yield g


def bipartite_graphs_up_to(n: int) -> Iterator[Graph]:
    """All connected bipartite graphs on at most *n* nodes (yes-instances)."""
    return all_graphs_up_to(n, bipartite=True)


def non_bipartite_graphs_up_to(n: int) -> Iterator[Graph]:
    """All connected non-bipartite graphs on at most *n* nodes (no-instances)."""
    return _filtered(n, lambda g: not is_bipartite(g))


def min_degree_one_graphs_up_to(n: int) -> Iterator[Graph]:
    """Connected graphs with ``δ(G) = 1`` (class H1 of Theorem 1.1)."""
    return _filtered(n, lambda g: g.order >= 2 and g.min_degree() == 1)


def bipartite_min_degree_one_graphs_up_to(n: int) -> Iterator[Graph]:
    """Bipartite members of H1 — the yes-instances of Lemma 4.1."""
    return _filtered(
        n, lambda g: g.order >= 2 and g.min_degree() == 1, bipartite=True
    )


def even_cycles_up_to(n: int) -> Iterator[Graph]:
    """Even cycles ``C_4, C_6, ...`` up to *n* nodes (class H2).

    Constructed directly (filtering the full graph family would be
    exponential in ``n`` for no reason)."""
    from .generators import cycle_graph  # noqa: PLC0415

    for m in range(4, n + 1, 2):
        yield cycle_graph(m)


def shatter_graphs_up_to(n: int) -> Iterator[Graph]:
    """Connected graphs admitting a shatter point (class of Theorem 1.3)."""
    return _filtered(n, has_shatter_point)


def bipartite_shatter_graphs_up_to(n: int) -> Iterator[Graph]:
    """Bipartite shatter-point graphs — yes-instances of Theorem 1.3."""
    return _filtered(n, has_shatter_point, bipartite=True)


def watermelon_graphs_up_to(n: int) -> Iterator[Graph]:
    """Watermelon graphs on at most *n* nodes (class of Theorem 1.4)."""
    return _filtered(n, is_watermelon)


def watermelon_family_up_to(n: int) -> Iterator[Graph]:
    """Watermelon graphs on at most *n* nodes by direct construction.

    Equivalent to :func:`watermelon_graphs_up_to` (machine-checked in the
    tests) but polynomial instead of filtering all ``2^(n choose 2)``
    edge subsets: single paths, cycles, and every multiset of ``k >= 3``
    path lengths that fits the node budget.
    """
    from .generators import cycle_graph, path_graph, watermelon_graph  # noqa: PLC0415

    # Single-path watermelons: paths with at least 2 edges.
    for m in range(3, n + 1):
        yield path_graph(m)
    # Two-path watermelons: cycles of length >= 4 (each arc length >= 2).
    for m in range(4, n + 1):
        yield cycle_graph(m)
    # k >= 3 internally disjoint paths: nodes used = 2 + sum(l_i - 1).
    def length_multisets(budget: int, minimum: int, k_left: int):
        if k_left == 0:
            yield []
            return
        for first in range(minimum, budget - (k_left - 1) + 2):
            if (first - 1) * k_left > budget:
                break
            for rest in length_multisets(budget - (first - 1), first, k_left - 1):
                yield [first] + rest

    for k in range(3, n):  # each path needs >= 1 internal node
        budget = n - 2
        if k > budget:
            break
        for lengths in length_multisets(budget, 2, k):
            yield watermelon_graph(lengths)


# ----------------------------------------------------------------------
# Named graph families (the campaign layer's family axis)
# ----------------------------------------------------------------------

def cycle_edges(m: int) -> list[tuple[int, int]]:
    """The edges ``(a, b)``, ``a < b``, of the cycle ``C_m`` (``m >= 3``)
    in its minimal-edge-mask labeling, in closed form.

    The mask's most significant bits are the pairs among the highest
    nodes, so the ``h = m // 2`` high nodes ``m - 1 .. m - h`` are
    pairwise non-adjacent, and high node ``m - 1 - j`` joins the low
    nodes ``j - 1`` and ``j + 1`` (clamped to the low range
    ``0 .. m - h - 1``): a zigzag ladder, which an odd cycle closes with
    the edge ``(h - 1, h)``.  The orderly representative of ``C_8`` is
    the cycle 7-0-6-2-4-3-5-1.  The tests check the form against
    :func:`repro.symmetry.canon.min_edge_mask`, whose search grows
    exponentially on cycles."""
    h = m // 2
    last = m - h - 1  # the highest low node
    edges = set()
    for j in range(h):
        high = m - 1 - j
        edges.add((max(j - 1, 0), high))
        edges.add((min(j + 1, last), high))
    if m % 2:
        edges.add((h - 1, h))
    return sorted(edges)


def _edge_mask(edges: list[tuple[int, int]], n: int) -> int:
    """The edge-subset mask of *edges* (``a < b``) on *n* nodes."""
    return sum(1 << (a * (2 * n - a - 1) // 2 + b - a - 1) for a, b in edges)


def _cycle_automorphisms(edges: list[tuple[int, int]], m: int) -> tuple:
    """The ``2m`` rotations and reflections of the cycle *edges*,
    identity first."""
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order = [0, adj[0][0]]
    while len(order) < m:
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    perms = []
    for step in (1, -1):
        for shift in range(m):
            sigma = [0] * m
            for i, v in enumerate(order):
                sigma[v] = order[(shift + step * i) % m]
            perms.append(tuple(sigma))
    return tuple(perms)


def _cycles_exactly(n: int, even: bool = False) -> Iterator[tuple[int, tuple]]:
    """The direct generator of ``cycles`` (``even-cycles`` with *even*)."""
    if n >= 3 and not (even and n % 2):
        edges = cycle_edges(n)
        yield _edge_mask(edges, n), _cycle_automorphisms(edges, n)


def _watermelons_exactly(n: int) -> Iterator[tuple[int, tuple]]:
    """The direct generator of ``watermelons``: the members of
    :func:`watermelon_family_up_to` on *n* nodes, each relabeled by its
    minimal edge mask (a canonical form, counted as such)."""
    from ..symmetry.canon import min_edge_mask  # noqa: PLC0415
    from ..symmetry.groups import automorphism_group  # noqa: PLC0415
    from ..symmetry.orderly import transport_automorphisms  # noqa: PLC0415

    for g in watermelon_family_up_to(n):
        if g.order != n:
            continue
        group = automorphism_group(g)
        index = {v: i for i, v in enumerate(group.nodes)}
        adj = [0] * n
        for u, v in g.edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        GLOBAL_STATS.incr("canonicalizations")
        mask, perm = min_edge_mask(adj, n, first_candidates=group.orbit_representatives())
        yield mask, transport_automorphisms(group.perms, perm)


@dataclass(frozen=True)
class GraphFamily:
    """One named graph family of the campaign layer's family axis.

    *predicate* is the membership test (``None``: every graph the Lemma
    3.1 sweep would enumerate).  *direct*, when present, builds the
    family without generating every graph: ``direct(n)`` yields
    ``(mask, automorphisms)`` for each connected member on exactly ``n``
    nodes, where *mask* is the member's minimal edge mask — the labeling
    orderly generation emits — and *automorphisms* its group as node
    permutations in that labeling.  The members, ordered by mask, are
    the subsequence of :func:`all_graphs_exactly` that *predicate*
    keeps (the tests check it graph for graph)."""

    predicate: Callable[[Graph], bool] | None
    direct: Callable[[int], Iterator[tuple[int, tuple]]] | None = None


#: name -> :class:`GraphFamily`.  A campaign cell names one of these to
#: restrict the sweep's graph part; the predicate composes with — it
#: never replaces — the scheme's own ``is_yes_instance`` filter.  A
#: scheme names the entry equal to its promise class in
#: :attr:`repro.certification.lcp.LCP.promise_family`.
GRAPH_FAMILIES: dict[str, GraphFamily] = {
    "all": GraphFamily(None),
    "bipartite": GraphFamily(is_bipartite),
    "trees": GraphFamily(is_tree),
    "paths": GraphFamily(is_path_graph),
    "cycles": GraphFamily(is_cycle_graph, _cycles_exactly),
    "even-cycles": GraphFamily(is_even_cycle, partial(_cycles_exactly, even=True)),
    "min-degree-one": GraphFamily(lambda g: g.order >= 2 and g.min_degree() == 1),
    "shatter": GraphFamily(has_shatter_point),
    "watermelons": GraphFamily(is_watermelon, _watermelons_exactly),
}


def _direct_family(n: int, name: str, bipartite: bool) -> tuple[FrozenGraph, ...]:
    """The members of the direct family *name* on *n* nodes (only the
    bipartite ones with *bipartite*), in mask order.  Each is built the
    way orderly emission builds it, a frozen graph with its automorphism
    group seeded as a fact; a member some cached family of size *n*
    already holds is adopted, so its graph facts serve both streams."""
    from ..symmetry.groups import seed_automorphisms  # noqa: PLC0415
    from ..symmetry.orderly import mask_graph  # noqa: PLC0415

    adoptable = {
        tuple(g.edges): g
        for key, members in _FAMILY_CACHE.items()
        if key[0] == n
        for g in members
    }
    out = []
    for mask, perms in sorted(GRAPH_FAMILIES[name].direct(n)):
        graph = mask_graph(mask, n)
        if bipartite and not is_bipartite(graph):
            continue
        frozen = adoptable.get(tuple(graph.edges), graph)
        seed_automorphisms(frozen, perms)
        out.append(frozen)
    return tuple(out)


def graph_family_names() -> list[str]:
    """Registered family names, in registration order (``"all"`` first)."""
    return list(GRAPH_FAMILIES)


def graph_family_predicate(name: str) -> Callable[[Graph], bool] | None:
    """The membership predicate for a registered family name.

    ``None`` for ``"all"``; raises ``ValueError`` for unknown names so
    a typo in a campaign spec fails before any sweep runs."""
    try:
        return GRAPH_FAMILIES[name].predicate
    except KeyError:
        raise ValueError(
            f"unknown graph family {name!r}; known: "
            f"{', '.join(graph_family_names())}"
        ) from None
