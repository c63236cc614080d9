"""Enumeration of small graph families.

Lemma 3.1 constructs the accepting neighborhood graph ``V(D, n)`` by
iterating over *all* labeled yes-instances on at most ``n`` nodes.  The
enumerators here supply the graph part of that iteration: all connected
graphs up to isomorphism, all bipartite ones, and the promise classes of
the paper's theorems (minimum degree 1, even cycles, shatter-point graphs,
watermelons).

Enumeration is exact and deterministic: the orderly generator of
:mod:`repro.symmetry.orderly` constructs each isomorphism class exactly
once, in the order of the edge-subset walk
:func:`enumerate_graphs_exactly_reference` (all ``2^(n choose 2)``
masks, deduplicated by isomorphism), which the tests keep as the
differential oracle.  With ``bipartite=True`` only the bipartite
classes are enumerated — the bipartite subsequence of the full stream —
which is all a ``k = 2`` sweep ever keeps; the generator then builds the
bipartite augmentation tree alone.  Generation is practical up to
``n = 8`` for all graphs and up to ``n = 9`` for bipartite ones (1,119
classes on 9 nodes instead of 274,668).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations

from ..perf.config import CONFIG
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

#: ``(n, connected_only, bipartite) -> tuple of frozen
#: representatives``.  The Lemma 3.1 sweeps re-enumerate the same
#: families for every scheme and every bound; caching the representative
#: lists makes repeat sweeps enumeration-free.  Entries are
#: :class:`FrozenGraph` — ``mutable=True`` hits yield defensive copies,
#: ``mutable=False`` hits yield the cached objects themselves.
_FAMILY_CACHE: dict[tuple[int, bool, bool], tuple[FrozenGraph, ...]] = {}


def clear_family_cache() -> None:
    """Drop the memoized family enumerations (cold-path benchmarks)."""
    _FAMILY_CACHE.clear()


def family_cache_snapshot() -> dict[tuple[int, bool, bool], tuple[FrozenGraph, ...]]:
    """A picklable snapshot of the family cache (worker preloading)."""
    return dict(_FAMILY_CACHE)


def prime_family_cache(
    snapshot: dict[tuple[int, bool, bool], tuple[FrozenGraph, ...]],
) -> int:
    """Fill the cache from a parent-process *snapshot* without
    overwriting entries; returns how many were added.  Called by the
    pool initializer of :mod:`repro.perf.pool` so workers never
    re-enumerate families the parent already has."""
    added = 0
    for key, graphs in snapshot.items():
        if key not in _FAMILY_CACHE:
            _FAMILY_CACHE[key] = tuple(graphs)
            added += 1
    if added:
        GLOBAL_STATS.incr("family_cache_primed", added)
    return added


def warm_graph_families(
    lo: int, hi: int, connected_only: bool = True, bipartite: bool = False
) -> int:
    """Enumerate (and cache) the families of sizes ``lo+1 .. hi``.

    The engine calls this under its ``symmetry:generate`` span so
    generation cost is attributed to generation rather than smeared over
    the sweep.  No-op per size already cached; returns the number of
    sizes enumerated.  Without ``CONFIG.family_cache`` there is nothing
    to warm."""
    if not CONFIG.family_cache:
        return 0
    warmed = 0
    for size in range(max(1, lo + 1), hi + 1):
        if (size, connected_only, bipartite) not in _FAMILY_CACHE:
            for _ in all_graphs_exactly(
                size, connected_only=connected_only, mutable=False, bipartite=bipartite
            ):
                pass
            warmed += 1
    return warmed


def all_graphs_exactly(
    n: int,
    connected_only: bool = True,
    mutable: bool = True,
    bipartite: bool = False,
) -> Iterator[Graph]:
    """All simple graphs on exactly *n* nodes, up to isomorphism.

    Nodes are ``0..n-1``.  With *connected_only* the disconnected ones are
    skipped; with *bipartite* the non-bipartite ones are (the orderly
    generator never builds them).  Loops are not generated (a loop is
    never 2-colorable, and the paper's instances are simple).

    Results are cached per ``(n, connected_only, bipartite)`` (see
    ``perf.CONFIG.family_cache``).  With ``mutable=True`` every yielded
    graph is an independent copy; ``mutable=False`` yields shared
    :class:`FrozenGraph` objects instead — the fast path for the sweep,
    which never mutates representatives.
    """
    from ..symmetry.orderly import orderly_graphs_exactly  # noqa: PLC0415

    if n <= 0:
        return
    if CONFIG.family_cache:
        key = (n, connected_only, bipartite)
        cached = _FAMILY_CACHE.get(key)
        if cached is not None:
            GLOBAL_STATS.incr("family_cache_hits")
            for g in cached:
                yield g.copy() if mutable else g
            return
        GLOBAL_STATS.incr("family_cache_misses")
        representatives: list[FrozenGraph] = []
        for g in orderly_graphs_exactly(n, connected_only, bipartite):
            frozen = FrozenGraph.freeze(g)
            representatives.append(frozen)
            yield g if mutable else frozen
        # Commit only after full exhaustion, so an abandoned generator
        # never caches a truncated family.
        _FAMILY_CACHE[key] = tuple(representatives)
    else:
        for g in orderly_graphs_exactly(n, connected_only, bipartite):
            yield g if mutable else FrozenGraph.freeze(g)


def _iso_invariant(g: Graph) -> tuple:
    """Cheap isomorphism invariant: per-node (degree, sorted neighbor
    degrees), sorted."""
    deg = {v: g.degree(v) for v in g.nodes}
    profile = sorted(
        (deg[v], tuple(sorted(deg[u] for u in g.neighbors(v)))) for v in g.nodes
    )
    return (g.order, g.size, tuple(profile))


def enumerate_graphs_exactly_reference(n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Object-based reference enumeration (the pre-bitset algorithm).

    Builds a :class:`Graph` for every edge subset and deduplicates with
    the exact isomorphism search.  Kept as the differential-testing
    oracle of orderly generation (same representatives, same order) and
    as the seed-equivalent baseline of the neighborhood benchmarks;
    never used on the hot path.
    """
    from .encoding import find_isomorphism  # noqa: PLC0415
    from .properties import is_connected  # noqa: PLC0415

    if n <= 0:
        return
    if n == 1:
        yield Graph(nodes=[0])
        return
    possible_edges = list(combinations(range(n), 2))
    buckets: dict[tuple, list[Graph]] = {}
    for mask in range(1 << len(possible_edges)):
        g = Graph(
            nodes=range(n),
            edges=[e for i, e in enumerate(possible_edges) if mask >> i & 1],
        )
        if connected_only and not is_connected(g):
            continue
        bucket = buckets.setdefault(_iso_invariant(g), [])
        if any(find_isomorphism(g, h) is not None for h in bucket):
            continue
        bucket.append(g)
        yield g


def all_graphs_up_to(
    n: int,
    connected_only: bool = True,
    mutable: bool = True,
    bipartite: bool = False,
) -> Iterator[Graph]:
    """All simple graphs on at most *n* nodes, up to isomorphism."""
    for k in range(1, n + 1):
        yield from all_graphs_exactly(
            k, connected_only=connected_only, mutable=mutable, bipartite=bipartite
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


def count_family(family: Iterator[Graph]) -> int:
    """Number of graphs in an enumerated family (consumes the iterator)."""
    return sum(1 for _ in family)


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

#: name -> membership predicate (``None`` means "no filter": every graph
#: the Lemma 3.1 sweep would enumerate).  A campaign cell names one of
#: these to restrict the sweep's graph part; the predicate composes with
#: — it never replaces — the scheme's own ``is_yes_instance`` filter.
GRAPH_FAMILIES: dict[str, Callable[[Graph], bool] | None] = {
    "all": None,
    "bipartite": is_bipartite,
    "trees": is_tree,
    "paths": is_path_graph,
    "cycles": is_cycle_graph,
    "even-cycles": is_even_cycle,
    "min-degree-one": lambda g: g.order >= 2 and g.min_degree() == 1,
    "shatter": has_shatter_point,
    "watermelons": is_watermelon,
}


def graph_family_names() -> list[str]:
    """Registered family names, in registration order (``"all"`` first)."""
    return list(GRAPH_FAMILIES)


def graph_family_predicate(name: str) -> Callable[[Graph], bool] | None:
    """The membership predicate for a registered family name.

    ``None`` for ``"all"``; raises ``ValueError`` for unknown names so
    a typo in a campaign spec fails before any sweep runs."""
    try:
        return GRAPH_FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown graph family {name!r}; known: "
            f"{', '.join(graph_family_names())}"
        ) from None
