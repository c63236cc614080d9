"""Exact canonical labelings on bitset adjacency.

Two complementary canonical labelings drive the orderly generator
(:mod:`repro.symmetry.orderly`):

* :func:`colex_canonical` — the *prefix-incremental* form used for the
  generation invariant.  Positions are assigned in ascending order and
  position ``p`` contributes the column bits ``(0,p) .. (p-1,p)``, so a
  partial assignment fixes a prefix of the form and the DFS prunes on
  it.  The search is restricted to degree-respecting assignments (nodes
  sorted by ascending degree get contiguous position blocks);
  the restricted minimum is still an exact isomorphism invariant because
  the restricted assignment set is itself isomorphism-invariant.  All
  minimizing assignments are returned, which yields the full
  automorphism group for free.

* :func:`min_edge_mask` — the *emission* form: the smallest edge-subset
  mask (bit ``i`` = ``combinations(range(n), 2)[i]``) over all
  relabelings.  This is exactly the representative the edge-subset
  walk keeps (it walks masks in ascending order and yields the first of
  each class; the tests keep it as the oracle), so the orderly generator
  reproduces that stream byte for byte.
  Minimizing the mask integer means comparing bits most-significant
  first — rows descending, columns descending — so here positions are
  assigned in *descending* order and no degree restriction applies (the
  walk's minimum ranges over all relabelings).

Both operate on adjacency bitsets: ``adj[v]`` has bit ``u`` set iff
``{u, v}`` is an edge.  Graphs are loop-free (the families never emit
loops).
"""

from __future__ import annotations

#: Sentinel "larger than any bit" used to pad the best-so-far array past
#: the compared prefix; comparisons read it as "everything beats me".
_UNSET = 2


def colex_canonical(
    adj: list[int], n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The colex-minimal degree-respecting form of *adj* and all of its
    minimizing assignments.

    Returns ``(form, perms)`` where *form* is the bit tuple (positions
    ``p = 1..n-1`` contribute bits ``(q, p)`` for ``q = 0..p-1``) and
    *perms* lists every minimizing assignment as a position-to-node
    tuple.  ``perms[0]`` composed with the inverse of any other entry is
    an automorphism, and every automorphism arises that way, so
    ``len(perms)`` is the order of the automorphism group.
    """
    degs = [adj[v].bit_count() for v in range(n)]
    pos_deg = sorted(degs)
    total = n * (n - 1) // 2
    best = [_UNSET] * total
    best_perms: list[tuple[int, ...]] = []
    assigned = [0] * n
    used = 0

    def rec(p: int, off: int) -> None:
        nonlocal used
        if p == n:
            best_perms.append(tuple(assigned))
            return
        target = pos_deg[p]
        for v in range(n):
            if used >> v & 1 or degs[v] != target:
                continue
            row = adj[v]
            i = off
            worse = False
            for q in range(p):
                bit = row >> assigned[q] & 1
                b = best[i]
                if bit > b:
                    worse = True
                    break
                if bit < b:
                    # Strict improvement: this prefix dethrones the best.
                    best[i] = bit
                    for q2 in range(q + 1, p):
                        best[off + q2] = row >> assigned[q2] & 1
                    for j in range(off + p, total):
                        best[j] = _UNSET
                    del best_perms[:]
                    break
                i += 1
            if worse:
                continue
            assigned[p] = v
            used |= 1 << v
            rec(p + 1, off + p)
            used ^= 1 << v

    rec(0, 0)
    return tuple(best), tuple(best_perms)


def automorphisms_from_perms(
    perms: tuple[tuple[int, ...], ...], n: int
) -> tuple[tuple[int, ...], ...]:
    """The automorphism group from the minimizing assignments.

    Each returned entry is a node permutation ``sigma`` (``sigma[v]`` =
    image of node ``v``); the identity comes first.
    """
    p0 = perms[0]
    pos0 = [0] * n
    for p, v in enumerate(p0):
        pos0[v] = p
    return tuple(tuple(pm[pos0[v]] for v in range(n)) for pm in perms)


def min_edge_mask(
    adj: list[int], n: int, first_candidates: tuple[int, ...] | None = None
) -> tuple[int, tuple[int, ...]]:
    """The minimal edge-subset mask of *adj* over all relabelings.

    Bit ``i`` of the mask corresponds to ``combinations(range(n), 2)[i]``
    — the convention of the edge-subset walk, whose per-class
    representative is exactly this minimum.  Returns ``(mask, perm)``
    with *perm* a minimizing position-to-node assignment.

    *first_candidates* optionally restricts the node placed at position
    ``n - 1`` (the most significant row).  Restricting it to one node
    per automorphism orbit is sound — precomposing an assignment with an
    automorphism never changes the mask — and prunes the search by a
    factor of the orbit sizes.
    """
    if n == 1:
        return 0, (0,)
    total = n * (n - 1) // 2
    best = [_UNSET] * total
    best_perm: tuple[int, ...] | None = None
    assigned = [0] * n
    used = 0

    def rec(depth: int) -> None:
        nonlocal used, best_perm
        if depth == n:
            best_perm = tuple(assigned)
            return
        p = n - 1 - depth
        if depth == 0:
            candidates = first_candidates if first_candidates is not None else range(n)
            for v in candidates:
                assigned[p] = v
                used |= 1 << v
                rec(1)
                used ^= 1 << v
            return
        off = (n - 2 - p) * (n - 1 - p) // 2
        for v in range(n):
            if used >> v & 1:
                continue
            row = adj[v]
            i = off
            worse = False
            improved = False
            for b in range(n - 1, p, -1):
                bit = row >> assigned[b] & 1
                if improved:
                    best[i] = bit
                elif bit > best[i]:
                    worse = True
                    break
                elif bit < best[i]:
                    improved = True
                    best[i] = bit
                i += 1
            if worse:
                continue
            if improved:
                for j in range(off + depth, total):
                    best[j] = _UNSET
            assigned[p] = v
            used |= 1 << v
            rec(depth + 1)
            used ^= 1 << v

    rec(0)
    assert best_perm is not None
    mask = 0
    i = 0
    for a in range(n - 2, -1, -1):
        row_base = a * n - a * (a + 1) // 2 - a - 1
        for b in range(n - 1, a, -1):
            if best[i] == 1:
                mask |= 1 << (row_base + b)
            i += 1
    return mask, best_perm
