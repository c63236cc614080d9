"""Orderly (canonical-augmentation) generation of small graphs.

McKay-style generation of all graphs on ``n`` nodes up to isomorphism,
each class emitted exactly once with **no post-hoc dedup**: level ``k``
representatives are built by attaching a new vertex to a level ``k - 1``
representative, and a child survives two filters —

1. *parent-side*: the new vertex's neighborhood subset must be the
   minimum of its orbit under ``Aut(parent)`` (isomorphic extensions of
   one parent differ by exactly such an orbit move);
2. *child-side*: the new vertex must lie in the canonical-deletion orbit
   of the child — the set of nodes some minimizing assignment of
   :func:`repro.symmetry.canon.colex_canonical` puts at the last
   position.  Deleting the canonical vertex of any class lands on a
   unique parent class, so each class is reached from exactly one
   ``(parent, subset-orbit)`` pair.

Levels memoize *all* graphs (disconnected parents breed connected
children); connectivity is filtered at emission only.  Emission
reproduces the edge-subset walk byte for byte: each class is labeled by
its minimal edge mask (:func:`repro.symmetry.canon.min_edge_mask`) — the
exact representative the mask walk of
:func:`repro.graphs.families.enumerate_graphs_exactly_reference` keeps —
and classes are emitted in ascending mask order, so the stream is the
one the tests' reference walk produces.  The automorphism group computed during generation is
transported to the emitted labeling and seeded into the group cache.

*Bipartite pruning.*  Every yes-instance of a ``k = 2`` LCP is
bipartite, so its sweeps build with ``bipartite=True``: a third
parent-side filter drops a subset that touches both colour classes of
some component of the (bipartite) parent — exactly the extensions that
close an odd cycle through the new vertex.  The pruning is exact.
2-colourability is hereditary, so the canonical-deletion parent of
every bipartite class is itself in the pruned level; and the filter is
invariant under ``Aut(parent)`` (automorphisms permute components and
preserve each one's bipartition), so it keeps or drops whole subset
orbits and never interacts with orbit-minimality.  Each pruned level is
therefore, entry for entry, the bipartite subsequence of the full level,
and the pruned emission stream the bipartite subsequence of the full
one.

Both the level build and the emission labeling have an array-native
fast path (:mod:`repro.kernel.generate`): when numpy is importable and
``CONFIG.kernel`` is not ``"off"``, the orbit-minimality
subset filter, the colex canonicalization of candidate children, and
the per-class minimal edge mask all run as batched frontier searches
over ``(batch, nodes)`` bitset matrices.  The batched paths are exact —
levels and emission streams are byte-identical to the scalar DFS — so
the kernel mode never enters any cache identity.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from ..graphs.graph import Graph
from ..kernel import kernel_numpy
from ..obs.progress import GLOBAL_PROGRESS
from ..kernel.generate import (
    batch_automorphisms,
    batch_colex_canonical,
    batch_deletion_flags,
    batch_min_edge_mask,
    generation_supported,
    orbit_minimal_subsets,
    subset_bit_matrix,
)
from ..perf.stats import GLOBAL_STATS
from .canon import automorphisms_from_perms, colex_canonical, min_edge_mask
from .groups import AutomorphismGroup, seed_automorphisms

#: Graphs per batched-canonicalization block.  Chunking bounds the
#: frontier arrays' peak memory; block boundaries are unobservable (each
#: graph's search is independent and blocks run in order).
_GENERATION_BLOCK = 2048

#: Version of the generation algorithm (levels, filters, emission
#: labeling).  Folded into shard-checkpoint keys so persisted subtree
#: results can never survive an algorithm change that would alter the
#: emission stream they cache.
GENERATION_VERSION = 2


#: ``(size, bipartite) -> tuple of (adjacency rows, automorphism index
#: perms)`` for *all* graphs (connected and not) on that many nodes —
#: or all bipartite ones — one per class.
_LEVELS: dict[
    tuple[int, bool], tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]
] = {}


def clear_orderly_cache() -> None:
    """Drop the memoized generation levels (cold-path benchmarks)."""
    _LEVELS.clear()


def _level(
    n: int, bipartite: bool = False
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Representatives of all graphs — or, with *bipartite*, all
    bipartite graphs — on exactly *n* nodes (memoized)."""
    cached = _LEVELS.get((n, bipartite))
    if cached is not None:
        return cached
    if n == 1:
        entries = (((0,), ((0,),)),)
        vectorized = False
    else:
        parents = _level(n - 1, bipartite)
        np = kernel_numpy()
        vectorized = np is not None and generation_supported(n)
        if vectorized:
            entries = _build_level_batched(n, parents, np, bipartite)
        else:
            entries = _build_level(n, parents, bipartite)
    _LEVELS[(n, bipartite)] = entries
    # No RunContext threads through the process-memoized generator, so
    # level completions announce on the process-wide bus (free when
    # nobody subscribed).  Memo hits stay silent — nothing was built.
    GLOBAL_PROGRESS.emit(
        "generation_level",
        n=n,
        graphs=len(entries),
        vectorized=vectorized,
        bipartite=bipartite,
    )
    return entries


def level_entries(
    n: int, bipartite: bool = False
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Public accessor for the memoized level-*n* representatives.

    Each entry is ``(adjacency rows, automorphism perms)`` for one
    isomorphism class of *all* graphs (connected and not; with
    *bipartite*, all bipartite graphs) on exactly ``n`` nodes, in
    generation order.  The shard layer slices this tuple into subtree
    roots: the descendants of a contiguous root range, concatenated in
    range order, are exactly the corresponding contiguous slice of every
    deeper level of the same tree."""
    return _level(n, bipartite)


def build_level(
    k: int,
    parents: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...],
    bipartite: bool = False,
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """One augmentation level from an *arbitrary* parent-entry tuple.

    Unlike :func:`_level` this neither reads nor writes the level memo,
    so shard workers can expand the subtree under any slice of a level's
    entries.  Because both underlying builds process parents in order
    (subsets ascending per parent), expanding a partition of level ``k-1``
    slice by slice and concatenating the results reproduces the full
    level entry for entry.  *bipartite* prunes to the bipartite tree
    (the parents must then be bipartite too)."""
    np = kernel_numpy()
    if np is not None and generation_supported(k):
        return _build_level_batched(k, parents, np, bipartite)
    return _build_level(k, parents, bipartite)


def _bipartition_sides(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(side A, side B)`` node bitsets of every component of the
    bipartite graph *rows* that has an edge (isolated nodes can never
    put a new vertex on an odd cycle).  BFS layers alternate sides."""
    sides = []
    seen = 0
    for v in range(len(rows)):
        if seen >> v & 1 or not rows[v]:
            continue
        layers = [1 << v, 0]
        reach = frontier = 1 << v
        depth = 0
        while frontier:
            nxt = 0
            bits = frontier
            while bits:
                low = bits & -bits
                nxt |= rows[low.bit_length() - 1]
                bits ^= low
            frontier = nxt & ~reach
            reach |= frontier
            depth ^= 1
            layers[depth] |= frontier
        seen |= reach
        sides.append((layers[0], layers[1]))
    return sides


def _build_level(
    k: int,
    parents: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...],
    bipartite: bool = False,
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Scalar reference level build — the exact semantics the batched
    path below must reproduce entry for entry."""
    m = k - 1  # index of the new vertex
    out = []
    for rows_p, auts_p in parents:
        nontrivial = auts_p[1:]
        sides = _bipartition_sides(rows_p) if bipartite else ()
        for s in range(1 << m):
            # Bipartite filter: a subset touching both colour classes of
            # one component closes an odd cycle through the new vertex.
            if any(s & a and s & b for a, b in sides):
                continue
            # Parent-side filter: keep the orbit-minimal subset only.
            rejected = False
            for sigma in nontrivial:
                t = 0
                bits = s
                while bits:
                    low = bits & -bits
                    t |= 1 << sigma[low.bit_length() - 1]
                    bits ^= low
                if t < s:
                    rejected = True
                    break
            if rejected:
                continue
            child = [row | ((s >> i & 1) << m) for i, row in enumerate(rows_p)]
            child.append(s)
            # The canonical last position holds a maximum-degree node, so
            # a new vertex of smaller degree can never be accepted; skip
            # the canonical form entirely for those.
            if s.bit_count() != max(row.bit_count() for row in child):
                continue
            GLOBAL_STATS.incr("canonicalizations")
            _, perms = colex_canonical(child, k)
            # Child-side filter: new vertex in the canonical-deletion orbit.
            if not any(pm[m] == m for pm in perms):
                continue
            out.append((tuple(child), automorphisms_from_perms(perms, k)))
    return tuple(out)


def _build_level_batched(
    k: int,
    parents: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...],
    np,
    bipartite: bool = False,
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Array-native level build: both orderly filters and the canonical
    form run as batched numpy searches (:mod:`repro.kernel.generate`).

    Byte-identical to :func:`_build_level`: subsets are filtered in
    ascending order per parent, surviving candidates keep (parent-major,
    subset-ascending) order through one batched colex canonicalization,
    and the emitted ``(rows, automorphisms)`` entries — including the
    automorphism tuples' internal order — match the scalar DFS exactly.
    """
    m = k - 1  # index of the new vertex
    GLOBAL_STATS.incr("orderly_levels_vectorized")
    bits = subset_bit_matrix(m, np)
    popcnt = bits.sum(axis=1, dtype=np.int64)
    subsets = np.arange(1 << m, dtype=np.int64)[:, None]
    batches = []
    for rows_p, auts_p in parents:
        nontrivial = auts_p[1:]
        sigma = (
            np.array(nontrivial, dtype=np.int64)
            if nontrivial
            else np.zeros((0, m), dtype=np.int64)
        )
        # Parent-side filter: keep the orbit-minimal subset only.
        keep = orbit_minimal_subsets(bits, sigma, np)
        if bipartite:
            sides = _bipartition_sides(rows_p)
            if sides:
                # One (2^m x components) mask product: drop subsets
                # touching both colour classes of some component.
                side_a, side_b = np.array(sides, dtype=np.int64).T
                odd = ((subsets & side_a) != 0) & ((subsets & side_b) != 0)
                np.logical_and(keep, ~odd.any(axis=1), out=keep)
        # The canonical last position holds a maximum-degree node, so a
        # new vertex of smaller degree can never be accepted; drop those
        # before the canonical form is ever computed (scalar skip).
        deg_p = np.array([row.bit_count() for row in rows_p], dtype=np.int64)
        np.logical_and(keep, popcnt >= (deg_p[None, :] + bits).max(axis=1), out=keep)
        kept = np.nonzero(keep)[0]
        if not len(kept):
            continue
        kids = np.empty((len(kept), k), dtype=np.int64)
        kids[:, :m] = np.array(rows_p, dtype=np.int64)[None, :] | (bits[kept] << m)
        kids[:, m] = kept
        batches.append(kids)
    if not batches:
        return ()
    candidates = np.concatenate(batches, axis=0)
    out = []
    for start in range(0, len(candidates), _GENERATION_BLOCK):
        chunk = candidates[start : start + _GENERATION_BLOCK]
        perms, gid = batch_colex_canonical(chunk, k, np, stats=GLOBAL_STATS)
        # Child-side filter: new vertex in the canonical-deletion orbit.
        flags = batch_deletion_flags(perms, gid, len(chunk), m, np)
        auts = batch_automorphisms(perms, gid, len(chunk), k, np)
        bounds = np.searchsorted(gid, np.arange(len(chunk) + 1, dtype=np.int64))
        rows_list = chunk.tolist()
        auts_list = auts.tolist()
        for g in np.nonzero(flags)[0].tolist():
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            out.append(
                (
                    tuple(rows_list[g]),
                    tuple(tuple(a) for a in auts_list[lo:hi]),
                )
            )
    return tuple(out)


def _bitset_connected(rows: tuple[int, ...], n: int) -> bool:
    full = (1 << n) - 1
    reach = 1 | rows[0]
    frontier = reach & ~1
    while frontier:
        nxt = 0
        bits = frontier
        while bits:
            low = bits & -bits
            nxt |= rows[low.bit_length() - 1]
            bits ^= low
        frontier = nxt & ~reach
        reach |= frontier
    return reach == full


def emit_entries(
    entries: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...],
    n: int,
    connected_only: bool = True,
) -> Iterator[tuple[int, Graph]]:
    """Label and emit generation *entries* of size *n* as
    ``(min_edge_mask, Graph)`` pairs in ascending mask order.

    This is the emission half of :func:`orderly_graphs_exactly`, exposed
    so shard workers can emit their subtree's slice of a level: distinct
    classes have distinct minimal edge masks, so merging shard emissions
    by mask reproduces the full level's globally sorted stream byte for
    byte.  Emitted graphs carry their transported automorphism group
    into the cache of :mod:`repro.symmetry.groups`.
    """
    possible_edges = list(combinations(range(n), 2))
    pending = []
    for rows, auts in entries:
        if connected_only and not _bitset_connected(rows, n):
            continue
        group = AutomorphismGroup(nodes=tuple(range(n)), perms=auts)
        pending.append((rows, auts, group.orbit_representatives()))
    labeled = []
    np = kernel_numpy()
    if np is not None and generation_supported(n) and len(pending) > 1:
        # Batched emission labeling: one frontier search over the whole
        # level instead of one scalar DFS per class.
        for start in range(0, len(pending), _GENERATION_BLOCK):
            chunk = pending[start : start + _GENERATION_BLOCK]
            rows_matrix = np.array([rows for rows, _, _ in chunk], dtype=np.int64)
            firsts = [reps for _, _, reps in chunk]
            masks, perms = batch_min_edge_mask(
                rows_matrix, n, firsts, np, stats=GLOBAL_STATS
            )
            masks_list = masks.tolist()
            perms_list = perms.tolist()
            for i, (rows, auts, _) in enumerate(chunk):
                labeled.append((masks_list[i], tuple(perms_list[i]), rows, auts))
    else:
        for rows, auts, reps in pending:
            GLOBAL_STATS.incr("canonicalizations")
            mask, perm = min_edge_mask(list(rows), n, first_candidates=reps)
            labeled.append((mask, perm, rows, auts))
    labeled.sort(key=lambda entry: entry[0])
    for mask, perm, rows, auts in labeled:
        graph = Graph(
            nodes=range(n),
            edges=[e for i, e in enumerate(possible_edges) if mask >> i & 1],
        )
        # Transport the group through the emission labeling: emitted node
        # p is generation node perm[p].
        pos = [0] * n
        for p, v in enumerate(perm):
            pos[v] = p
        emitted_auts = tuple(
            tuple(pos[sigma[perm[p]]] for p in range(n)) for sigma in auts
        )
        seed_automorphisms(graph, emitted_auts)
        yield mask, graph


def orderly_graphs_exactly(
    n: int, connected_only: bool = True, bipartite: bool = False
) -> Iterator[Graph]:
    """All graphs on exactly *n* nodes up to isomorphism, emitted in the
    edge-subset walk's exact order and labeling.

    Byte-identical to
    :func:`repro.graphs.families.enumerate_graphs_exactly_reference`,
    but visits each isomorphism class once instead of all
    ``2^(n choose 2)`` masks.
    With *bipartite* only the bipartite classes are built and emitted:
    the bipartite subsequence of the full stream.  Emitted graphs carry
    their automorphism group into the cache of
    :mod:`repro.symmetry.groups`.
    """
    if n <= 0:
        return
    GLOBAL_STATS.incr("orderly_generations")
    entries = _level(n, bipartite)
    for _mask, graph in emit_entries(entries, n, connected_only=connected_only):
        yield graph


def count_classes(n: int, connected_only: bool = False, bipartite: bool = False) -> int:
    """Number of isomorphism classes on exactly *n* nodes (test hook)."""
    if n <= 0:
        return 0
    entries = _level(n, bipartite)
    if not connected_only:
        return len(entries)
    return sum(1 for rows, _ in entries if _bitset_connected(rows, n))
