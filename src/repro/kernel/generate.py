"""Batched canonicalization for the generation-bound sweep path.

The even-cycle sweeps that dominate Lemma 3.1 wall time never enter the
labeling kernel (their ``16^n`` spaces exceed the admission limit); their
cost is the *generator* — :func:`repro.symmetry.canon.colex_canonical`
inside the orderly level build and :func:`repro.symmetry.canon.
min_edge_mask` at emission, both scalar per-graph DFS.  This module runs
the same searches over a whole batch of graphs at once: adjacency
bitsets are stacked into ``(batch, nodes)`` int64 matrices and each DFS
becomes a *level-synchronous frontier* — every partial assignment that
still ties for the minimum is extended one position per step, extension
bit-strings are packed into integer keys, and a vectorized per-graph
minimum filters the frontier.

Isolated nodes tie at every position they can take, so a graph with
``z`` of them has ``z!`` times the minimizing assignments of its core:
:func:`batch_colex_core` searches one arrangement of them and
:func:`expand_isolated` rebuilds the others exactly.

Exactness, not approximation: a depth-first search with best-prefix
pruning keeps exactly the assignments whose every prefix equals the
running minimum, and the frontier *is* that set, synchronized by
position.  Order is preserved too — frontier rows stay (graph-major,
assignment-lexicographic), which is precisely the DFS emission order of
the scalar code — so the returned permutations match
``colex_canonical``/``min_edge_mask`` element for element and the
orderly generator built on top is byte-identical to the scalar one.

Everything here takes the numpy module as an explicit ``np`` argument
from its callers, which import it; the module imports nothing from
:mod:`repro.symmetry`, so the symmetry layer can import it without
cycles.
"""

from __future__ import annotations

from functools import cache

#: Largest node count the packed int64 bit arithmetic supports.  The
#: emission mask needs ``n * (n - 1) / 2`` bits and the frontier keys
#: ``n - 1`` bits, so the mask bound binds first: 62 bits = n <= 11.
#: Larger levels (bipartite ones stay reachable at n = 12) take the
#: scalar DFS of :mod:`repro.symmetry.orderly`.
MAX_GENERATION_NODES = 11


def generation_supported(n: int) -> bool:
    """Whether the batched searches can run for *n*-node graphs."""
    return 1 <= n <= MAX_GENERATION_NODES


def adjacency_matrix(rows_list, n: int, np):
    """Stack per-graph adjacency bitset rows into a ``(batch, n)`` int64
    matrix (the input format of every batched search here)."""
    if not rows_list:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(rows_list, dtype=np.int64)


def popcounts(rows, n: int, np):
    """Per-node degrees of a ``(batch, n)`` bitset matrix (low *n* bits)."""
    shifts = np.arange(n, dtype=np.int64)
    return ((rows[:, :, None] >> shifts[None, None, :]) & 1).sum(
        axis=2, dtype=np.int64
    )


def _group_starts(gid, batch: int, np):
    """First frontier row of each graph.  Frontier ``gid`` arrays are
    always sorted ascending with every graph present (each graph keeps at
    least one minimal assignment), so ``reduceat`` segments are valid."""
    return np.searchsorted(gid, np.arange(batch, dtype=np.int64), side="left")


def _extension_keys(row_bits, assigned, state, np):
    """Per candidate, its adjacency bits against the nodes its state
    assigned, packed with ``assigned``'s first column most significant.

    Packed one column at a time, so no ``(candidates, depth)`` temporary
    is ever built: the candidate vectors are a frontier's largest arrays.
    """
    keys = np.zeros(len(state), dtype=np.int64)
    for column in assigned.T:
        keys <<= 1
        keys |= (row_bits >> column[state]) & 1
    return keys


def _min_filter(keys, gid, batch: int, np):
    """Keep the frontier rows whose key equals their graph's minimum —
    the vectorized best-prefix pruning step."""
    starts = _group_starts(gid, batch, np)
    mins = np.minimum.reduceat(keys, starts)
    return keys == mins[gid]


def batch_colex_core(rows, n: int, np, stats=None):
    """The minimizing degree-respecting assignments of every graph in
    *rows* with its isolated nodes held in one arrangement.

    *rows* is a ``(batch, n)`` int64 adjacency bitset matrix.  Returns
    ``(perms, gid)``: ``perms`` is a ``(total, n)`` int64 matrix of
    position-to-node assignments and ``gid[t]`` the graph index of row
    ``t``, grouped by graph in ascending order.  A degree-0 position
    takes only the smallest unused isolated node, so the ``z`` isolated
    nodes of a graph sit in ascending order at positions ``0 .. z - 1``
    and each graph keeps exactly its core minimizers, in the scalar DFS
    order.

    *Isolated nodes.*  The degree-respecting search places them at
    positions ``0 .. z - 1``, where every key bit is 0 and each choice
    ties; and their key bits against every later node are 0 too, so the
    core search below them is the same for each arrangement.  The full
    minimizer list of :func:`repro.symmetry.canon.colex_canonical` is
    therefore each permutation of the isolated nodes, in lexicographic
    order (the DFS's outer loops), times these core minimizers, which
    :func:`expand_isolated` rebuilds without a ``z!``-row frontier.
    """
    batch = rows.shape[0]
    if batch == 0:
        return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64)
    if stats is not None:
        stats.incr("generation_batches")
        stats.incr("canonicalizations", batch)
    node_shifts = np.arange(n, dtype=np.int64)
    degs = popcounts(rows, n, np)
    pos_deg = np.sort(degs, axis=1)

    gid = np.arange(batch, dtype=np.int64)
    assigned = np.zeros((batch, 0), dtype=np.int64)
    used = np.zeros(batch, dtype=np.int64)

    for p in range(n):
        # Valid extensions per state: node unused and of the degree the
        # next position block demands (the scalar loop's two `continue`s).
        cand = ((used[:, None] >> node_shifts[None, :]) & 1) == 0
        cand &= degs[gid] == pos_deg[gid, p][:, None]
        at_zero = np.flatnonzero(pos_deg[gid, p] == 0)
        if len(at_zero):
            # Isolated nodes tie everywhere: keep the smallest one only.
            first = cand[at_zero].argmax(axis=1)
            cand[at_zero] = False
            cand[at_zero, first] = True
        state, v = np.nonzero(cand)  # row-major: state-major, node-ascending
        new_gid = gid[state]
        if p:
            keys = _extension_keys(rows[new_gid, v], assigned, state, np)
            keep = _min_filter(keys, new_gid, batch, np)
            state, v, new_gid = state[keep], v[keep], new_gid[keep]
        assigned = np.concatenate(
            [assigned[state], v[:, None].astype(np.int64)], axis=1
        )
        used = used[state] | (np.int64(1) << v)
        gid = new_gid
    return assigned, gid


@cache
def isolated_arrangements(z: int, np):
    """``(z!, z)`` uint8 matrix of every permutation of ``range(z)`` in
    lexicographic order (the order ``itertools.permutations`` yields),
    built column block by column block and cached per *z*."""
    arrangements = np.zeros((1, min(z, 1)), dtype=np.uint8)
    for size in range(2, z + 1):
        # Lexicographic order of `size` symbols: the first symbol is the
        # outer loop, the remaining symbols (ascending) follow in the
        # order of size - 1 symbols.
        rest = np.array(
            [[r for r in range(size) if r != f] for f in range(size)], dtype=np.uint8
        )  # (size, size - 1): remaining symbols per first symbol
        heads = np.repeat(np.arange(size, dtype=np.uint8), len(arrangements))
        tails = rest[:, arrangements].reshape(-1, size - 1)
        arrangements = np.column_stack([heads, tails])
    arrangements.flags.writeable = False
    return arrangements


def expand_isolated(block, cols, isolated, np):
    """Rebuild every arrangement of a graph's isolated nodes.

    *block* holds rows for one arrangement (the isolated nodes
    *isolated*, ascending, at columns *cols*).  Returns ``z!`` copies of
    the block, one per permutation ``pi`` of *isolated* in lexicographic
    order with ``pi`` written into *cols*: the arrangements are the outer
    loop, the block rows the inner one.  For minimizing assignments
    *cols* are the positions ``0 .. z - 1``; for automorphisms they are
    the isolated nodes themselves.
    """
    isolated = np.asarray(isolated, dtype=block.dtype)
    pis = isolated[isolated_arrangements(len(isolated), np)]  # (z!, z)
    out = np.tile(block, (len(pis), 1))
    out[:, cols] = np.repeat(pis, len(block), axis=0)
    return out


def batch_deletion_flags(perms, gid, batch: int, last: int, np):
    """Per-graph flag: does *some* minimizing assignment put node *last*
    at the last position?  (The orderly child-side canonical-deletion
    test, ``any(pm[m] == m for pm in perms)``, over a whole batch.)"""
    flags = np.zeros(batch, dtype=bool)
    np.logical_or.at(flags, gid, perms[:, last] == last)
    return flags


def batch_automorphisms(perms, gid, batch: int, n: int, np):
    """Automorphism node-permutations from the minimizing assignments,
    per graph — the batched :func:`repro.symmetry.canon.
    automorphisms_from_perms`.

    Returns a ``(total, n)`` int64 matrix aligned with *perms*/*gid*:
    row ``t`` is ``perms[t] ∘ inverse(first perm of graph gid[t])`` as a
    node permutation, identity first per graph (the scalar convention).
    """
    starts = _group_starts(gid, batch, np)
    first = perms[starts]  # (batch, n): each graph's perms[0]
    pos0 = np.empty((batch, n), dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    pos0[np.arange(batch)[:, None], first] = cols[None, :]
    return perms[np.arange(len(gid))[:, None], pos0[gid]]


def subset_bit_matrix(m: int, np):
    """``(2^m, m)`` matrix: row ``s`` holds the bits of subset ``s``
    (column ``i`` = bit ``i``), the unpacked form every subset filter
    here works on."""
    subsets = np.arange(1 << m, dtype=np.int64)
    return (subsets[:, None] >> np.arange(m, dtype=np.int64)[None, :]) & 1


def orbit_minimal_subsets(bits, perms, np):
    """Boolean mask over subsets ``0 .. 2^m - 1``: is the subset the
    minimum of its orbit under the node permutations *perms*?

    *bits* is the :func:`subset_bit_matrix` for ``m``; *perms* a
    ``(count, m)`` int64 matrix of non-identity permutations (``sigma``
    maps bit ``i`` to bit ``sigma[i]``, the convention of the scalar
    parent-side filter in :mod:`repro.symmetry.orderly`).  A subset is
    rejected exactly when some image is strictly smaller — repacking a
    permuted bit row by powers of two is the scalar loop's ``t``.
    """
    count = 1 << bits.shape[1] if bits.shape[1] else 1
    subsets = np.arange(count, dtype=np.int64)
    keep = np.ones(count, dtype=bool)
    if len(perms) == 0:
        return keep
    weights = np.int64(1) << perms  # (count_perms, m): 2**sigma[i]
    images = bits @ weights.T  # (2^m, count_perms)
    np.logical_and(keep, (images >= subsets[:, None]).all(axis=1), out=keep)
    return keep


def lowest_isolated_subsets(bits, isolated, np):
    """Boolean mask over subsets ``0 .. 2^m - 1``: are the subset's
    members among the nodes *isolated* the lowest ones of *isolated*?

    *bits* is the :func:`subset_bit_matrix` for ``m``.  This is exactly
    orbit-minimality under ``Sym(isolated)``.  For a group
    ``Aut(core) x Sym(isolated)`` a subset is orbit-minimal iff it is
    minimal under each factor, because the two factors move disjoint
    bits: pair this mask with :func:`orbit_minimal_subsets` over the core
    automorphisms.
    """
    weights = np.int64(1) << np.asarray(isolated, dtype=np.int64)
    on_isolated = bits[:, isolated]
    lowest = np.concatenate([[0], np.cumsum(weights)])
    return on_isolated @ weights == lowest[on_isolated.sum(axis=1)]


def batch_min_edge_mask(rows, n: int, firsts, np, stats=None):
    """Minimal edge-subset masks and final minimizing assignments of a
    batch of graphs — the batched :func:`repro.symmetry.canon.
    min_edge_mask`.

    *rows* is a ``(batch, n)`` int64 bitset matrix; *firsts* gives, per
    graph, the candidate nodes for the last (most significant) position
    in their scalar candidate order (one automorphism-orbit
    representative each, in practice).  Returns ``(masks, perms)`` as a
    ``(batch,)`` int64 vector and a ``(batch, n)`` int64 matrix; the
    returned assignment is the *last* minimizer in DFS order, matching
    the scalar's overwrite-on-tie behavior exactly.
    """
    batch = rows.shape[0]
    if batch == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    if stats is not None:
        stats.incr("generation_batches")
        stats.incr("canonicalizations", batch)
    if n == 1:
        return np.zeros(batch, dtype=np.int64), np.zeros((batch, 1), dtype=np.int64)
    node_shifts = np.arange(n, dtype=np.int64)

    # Depth 0: seed the frontier with each graph's first-position
    # candidates in their given order (scalar candidate order).
    counts = [len(f) for f in firsts]
    gid = np.repeat(np.arange(batch, dtype=np.int64), counts)
    v0 = np.concatenate([np.asarray(f, dtype=np.int64) for f in firsts])
    assigned = v0[:, None]  # column j = node at position n - 1 - j
    used = np.int64(1) << v0

    for depth in range(1, n):
        cand = ((used[:, None] >> node_shifts[None, :]) & 1) == 0
        state, v = np.nonzero(cand)
        new_gid = gid[state]
        # Bits against positions n-1 .. p+1 — assigned's column order is
        # already descending-position, i.e. most significant first.
        keys = _extension_keys(rows[new_gid, v], assigned, state, np)
        keep = _min_filter(keys, new_gid, batch, np)
        state, v, new_gid = state[keep], v[keep], new_gid[keep]
        assigned = np.concatenate(
            [assigned[state], v[:, None].astype(np.int64)], axis=1
        )
        used = used[state] | (np.int64(1) << v)
        gid = new_gid

    # The scalar overwrites best_perm on every tying completion, so the
    # *last* frontier row per graph survives.
    last_rows = np.searchsorted(gid, np.arange(batch, dtype=np.int64), side="right") - 1
    final = assigned[last_rows]
    perms = np.empty((batch, n), dtype=np.int64)
    positions = np.arange(n - 1, -1, -1, dtype=np.int64)  # column j -> position
    perms[:, positions] = final

    # Relabeled adjacency bits -> combination-order edge mask.
    rows_perm = rows[np.arange(batch)[:, None], perms]  # (batch, n) bitsets
    adj = (rows_perm[:, :, None] >> perms[:, None, :]) & 1  # (batch, n, n)
    iu, ju = np.triu_indices(n, k=1)
    # combinations(range(n), 2) order: pair (i, j) with i < j gets the
    # next index in (i-major, j-ascending) order — which is exactly
    # triu_indices order.
    weights = np.int64(1) << np.arange(len(iu), dtype=np.int64)
    masks = (adj[:, iu, ju] * weights[None, :]).sum(axis=1, dtype=np.int64)
    return masks, perms
