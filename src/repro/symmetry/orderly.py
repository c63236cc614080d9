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
exact representative the edge-subset mask walk keeps — and classes are
emitted in ascending mask order, so the stream is the one the tests'
reference walk produces.  Emitted graphs are
:class:`~repro.graphs.graph.FrozenGraph` objects: the automorphism group
computed during generation is transported to the emitted labeling and
seeded as the graph's group fact (:mod:`repro.symmetry.groups`).

*Packed groups.*  A level entry keeps its class's automorphism group as
one ``bytes`` block of ``|Aut| * n`` bytes: row-major node
permutations, one byte per image index, identity first, in the order
:func:`repro.symmetry.canon.automorphisms_from_perms` lists them.  Both
routes read and write that one form (:func:`pack_perms` /
:func:`unpack_perms`); numpy views it without a copy as a
``(|Aut|, n)`` uint8 matrix, so the kernel route never converts a
group to Python tuples until emission seeds the group fact.

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

*Isolated vertices.*  A class with ``z`` isolated vertices has ``z!``
times the minimizing assignments of its core (the subgraph on its other
vertices), so the batched level build never searches the arrangements
of isolated vertices.  This is exact.  The degree-respecting colex
search puts the isolated vertices at positions ``0 .. z - 1``, where
every key bit is 0 and each choice ties; their key bits against every
later position are 0 too, so the core search below them is the same for
every arrangement.  The scalar DFS therefore lists each permutation of
the isolated vertices, in lexicographic order, as an outer loop around
the core minimizers.  The batched search keeps one arrangement, takes
the deletion flag and the automorphisms from those core rows, and
rebuilds the ``z!`` arrangements only in the automorphism blocks of the
kept classes (:func:`~repro.kernel.generate.expand_isolated`).  By the
same order, a parent's block lists ``Sym(I)`` (``I`` its isolated
vertices) as its outer loop, identity first, so its leading
``|Aut| / z!`` rows are the core automorphisms, those that fix ``I``
pointwise, and ``Aut = Aut(core) x Sym(I)``.  The parent-side filter
uses that product: a subset is orbit-minimal iff it is minimal under
the core rows and its members in ``I`` are the lowest vertices of ``I``
(:func:`~repro.kernel.generate.lowest_isolated_subsets`).  Images of the
core bits and of the ``I`` bits are disjoint, so each factor compares
separately, and the ``2^m x |Aut|`` image matrix (``256 x 40,320`` at
level 9) is never built.  Levels stay byte-identical to the scalar
build.

Both the level build and the emission labeling run array-native
(:mod:`repro.kernel.generate`) whenever the packed int64 arithmetic
holds, :func:`~repro.kernel.generate.generation_supported` (up to
:data:`~repro.kernel.generate.MAX_GENERATION_NODES` nodes): the
orbit-minimality subset filter, the colex canonicalization of candidate
children, and the per-class minimal edge mask all run as batched
frontier searches over ``(batch, nodes)`` bitset matrices.  Larger
levels take the scalar DFS (:func:`_build_level` and the scalar branch
of :func:`emit_entries`), the exact semantics the batched paths
reproduce — levels and emission streams are byte-identical — so the
route never enters any cache identity.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from ..graphs.graph import FrozenGraph
from ..obs.progress import GLOBAL_PROGRESS
from ..kernel.generate import (
    batch_automorphisms,
    batch_colex_core,
    batch_deletion_flags,
    batch_min_edge_mask,
    expand_isolated,
    generation_supported,
    isolated_arrangements,
    lowest_isolated_subsets,
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

#: Generation entries of one level: ``(adjacency rows, packed
#: automorphism block)`` per class (see *Packed groups* above).
Entries = tuple[tuple[tuple[int, ...], bytes], ...]

#: ``(size, bipartite) -> Entries`` for *all* graphs (connected and not)
#: on that many nodes — or all bipartite ones — one per class.
_LEVELS: dict[tuple[int, bool], Entries] = {}


def clear_orderly_cache() -> None:
    """Drop the memoized generation levels and isolated-node
    permutation matrices (tests and cold-process isolation)."""
    _LEVELS.clear()
    isolated_arrangements.cache_clear()


def pack_perms(perms) -> bytes:
    """Node permutations as one row-major block, a byte per image."""
    return bytes(v for sigma in perms for v in sigma)


def unpack_perms(block: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The permutation tuples of a :func:`pack_perms` block of *n*-node
    permutations."""
    return tuple(tuple(block[i : i + n]) for i in range(0, len(block), n))


def _level(n: int, bipartite: bool = False) -> Entries:
    """Representatives of all graphs — or, with *bipartite*, all
    bipartite graphs — on exactly *n* nodes (memoized)."""
    cached = _LEVELS.get((n, bipartite))
    if cached is not None:
        return cached
    if n == 1:
        entries = (((0,), b"\x00"),)
        vectorized = False
    else:
        parents = _level(n - 1, bipartite)
        vectorized = generation_supported(n)
        if vectorized:
            entries = _build_level_batched(n, parents, bipartite)
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


def level_entries(n: int, bipartite: bool = False) -> Entries:
    """Public accessor for the memoized level-*n* representatives.

    Each entry is ``(adjacency rows, automorphism block)`` for one
    isomorphism class of *all* graphs (connected and not; with
    *bipartite*, all bipartite graphs) on exactly ``n`` nodes, in
    generation order; the block packs the class's ``|Aut|`` node
    permutations into ``|Aut| * n`` bytes, identity first."""
    return _level(n, bipartite)


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


def _build_level(k: int, parents: Entries, bipartite: bool = False) -> Entries:
    """Scalar level build: the route above
    :data:`~repro.kernel.generate.MAX_GENERATION_NODES` nodes, and the
    exact semantics the batched path below reproduces entry for entry."""
    m = k - 1  # index of the new vertex
    out = []
    for rows_p, auts_p in parents:
        nontrivial = unpack_perms(auts_p, m)[1:]
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
            out.append((tuple(child), pack_perms(automorphisms_from_perms(perms, k))))
    return tuple(out)


def _build_level_batched(k: int, parents: Entries, bipartite: bool = False) -> Entries:
    """Array-native level build: both orderly filters and the canonical
    form run as batched numpy searches (:mod:`repro.kernel.generate`).

    Byte-identical to :func:`_build_level`: subsets are filtered in
    ascending order per parent, surviving candidates keep (parent-major,
    subset-ascending) order through one batched colex canonicalization,
    and the emitted ``(rows, automorphism block)`` entries — including
    the permutations' order inside each block — match the scalar DFS
    exactly.  Each chunk's automorphism matrix becomes ``bytes`` once and
    is sliced per kept class; a class with two or more isolated vertices
    gets its block rebuilt from its core rows (*Isolated vertices*
    above).
    """
    m = k - 1  # index of the new vertex
    GLOBAL_STATS.incr("orderly_levels_vectorized")
    bits = subset_bit_matrix(m, np)
    popcnt = bits.sum(axis=1, dtype=np.int64)
    subsets = np.arange(1 << m, dtype=np.int64)[:, None]
    batches = []
    for rows_p, auts_p in parents:
        # Parent-side filter: keep the orbit-minimal subset only, by the
        # product rule Aut = Aut(core) x Sym(isolated).  The block lists
        # Sym(isolated) as its outer loop, identity first, so its leading
        # |Aut| / z! rows are the core group.
        group = np.frombuffer(auts_p, np.uint8).reshape(-1, m)
        isolated = [v for v, row in enumerate(rows_p) if not row]
        core = group[: len(group) // factorial(len(isolated))]
        keep = orbit_minimal_subsets(bits, core[1:].astype(np.int64), np)
        if len(isolated) >= 2:
            np.logical_and(keep, lowest_isolated_subsets(bits, isolated, np), out=keep)
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
        # Core minimizers only: the isolated nodes' z! arrangements are
        # rebuilt below, on the automorphisms of the kept classes.
        perms, gid = batch_colex_core(chunk, k, np, stats=GLOBAL_STATS)
        # Child-side filter: new vertex in the canonical-deletion orbit.
        # The last position holds a core node, or the new vertex itself
        # in an edgeless child's one core row, so the flag is the one the
        # full minimizer list gives.
        flags = batch_deletion_flags(perms, gid, len(chunk), m, np)
        auts = batch_automorphisms(perms, gid, len(chunk), k, np).astype(np.uint8)
        block = auts.tobytes()
        bounds = np.searchsorted(gid, np.arange(len(chunk) + 1)).tolist()
        rows_list = chunk.tolist()
        for g in np.flatnonzero(flags).tolist():
            lo, hi = bounds[g], bounds[g + 1]
            isolated = [v for v, row in enumerate(rows_list[g]) if not row]
            if len(isolated) >= 2:
                group = expand_isolated(auts[lo:hi], isolated, isolated, np).tobytes()
            else:
                group = block[lo * k : hi * k]
            out.append((tuple(rows_list[g]), group))
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


@lru_cache(maxsize=None)
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    """The node pairs of bits ``0, 1, ...`` of an *n*-node edge mask."""
    return tuple(combinations(range(n), 2))


def mask_graph(mask: int, n: int) -> FrozenGraph:
    """The frozen graph on nodes ``0..n-1`` whose edge mask is *mask*
    (bit ``i`` = ``combinations(range(n), 2)[i]``), edges inserted in
    bit order — the graph the edge-subset walk builds for that mask."""
    return FrozenGraph(
        nodes=range(n),
        edges=[e for i, e in enumerate(_edge_slots(n)) if mask >> i & 1],
    )


def transport_automorphisms(perms, perm) -> tuple[tuple[int, ...], ...]:
    """Node permutations *perms* of a graph, relabeled into the labeling
    whose node ``p`` is the graph's node ``perm[p]``."""
    n = len(perm)
    pos = [0] * n
    for p, v in enumerate(perm):
        pos[v] = p
    return tuple(tuple(pos[sigma[perm[p]]] for p in range(n)) for sigma in perms)


def emit_entries(
    entries: Entries,
    n: int,
    connected_only: bool = True,
) -> Iterator[tuple[int, FrozenGraph]]:
    """Label and emit generation *entries* of size *n* as
    ``(min_edge_mask, FrozenGraph)`` pairs in ascending mask order.

    This is the emission half of :func:`orderly_graphs_exactly`.
    Each emitted graph carries its transported automorphism group as
    its group fact (:func:`repro.symmetry.groups.seed_automorphisms`).
    """
    vectorized = generation_supported(n)
    nodes = tuple(range(n))
    cols = np.arange(n) if vectorized else None
    pending = []
    for rows, auts in entries:
        if connected_only and not _bitset_connected(rows, n):
            continue
        if vectorized:
            # orbit(v) = {sigma(v)}: v is its orbit's smallest member
            # exactly when the block's column minimum at v is v.
            group = np.frombuffer(auts, np.uint8).reshape(-1, n)
            reps = tuple(np.flatnonzero(group.min(axis=0) == cols).tolist())
        else:
            group = unpack_perms(auts, n)
            reps = AutomorphismGroup(nodes=nodes, perms=group).orbit_representatives()
        pending.append((rows, group, reps))
    labeled = []
    if vectorized and len(pending) > 1:
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
        graph = mask_graph(mask, n)
        # Transport the group through the emission labeling: emitted node
        # p is generation node perm[p].
        if vectorized:
            pos = np.empty(n, dtype=np.int64)
            pos[list(perm)] = np.arange(n)
            emitted_auts = tuple(map(tuple, pos[auts[:, perm]].tolist()))
        else:
            emitted_auts = transport_automorphisms(auts, perm)
        seed_automorphisms(graph, emitted_auts)
        yield mask, graph


def orderly_graphs_exactly(
    n: int, connected_only: bool = True, bipartite: bool = False
) -> Iterator[FrozenGraph]:
    """All graphs on exactly *n* nodes up to isomorphism, emitted in the
    edge-subset walk's exact order and labeling.

    Byte-identical to the edge-subset walk (the tests' oracle), but
    visits each isomorphism class once instead of all
    ``2^(n choose 2)`` masks.
    With *bipartite* only the bipartite classes are built and emitted:
    the bipartite subsequence of the full stream.  Emitted graphs are
    frozen and carry their automorphism group as a graph fact.
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
