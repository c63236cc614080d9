"""Prefix-pruned vectorized evaluation of the unanimity sweep.

The unanimity pass of one ``(graph, ports, ids)`` base splits at one
seam:

* **the join**, :func:`accepted_rows`, reads the decoder, the base's
  view layouts, the graph and the alphabet, and yields the accepted
  labelings as blocks of alphabet-index rows;
* **the tail**, :func:`labelings_from_rows`, is per base: stabilizer
  representatives, ``seen`` dedup, the
  :class:`~repro.symmetry.prune.SymmetryAccount` commits and the
  :class:`~repro.local.labeling.Labeling` objects.

:func:`batch_unanimous_labelings` chains the two for one base.  A
decoder that never reads ports
(:attr:`~repro.certification.decoder.Decoder.port_oblivious`) accepts
the same rows on every port assignment of a graph, so
:func:`repro.certification.enumeration.unanimously_accepted_labelings`
keeps the first base's blocks and runs only the tail on the graph's
later port bases.  Together the two halves match a labeling-by-labeling
scan in ``itertools.product`` order (the tests' reference loop): same
yield order, same ``seen``-set updates, and — critically for provenance
parity under streaming early exit — the same
:class:`~repro.symmetry.prune.SymmetryAccount` totals *at every yield
point*.

A labeling is accepted iff every node's radius-``r`` view is, so the
sweep is a join of local constraints rather than a scan of the
``|alphabet| ** n`` space.  The join holds partial labelings as a
``(rows, j)`` alphabet-index matrix over the first ``j`` graph nodes in
insertion order (the column order of
:func:`repro.local.labeling.all_labelings`) and, per stage:

1. extends every row by one column, digits ascending — rows stay in
   product order, so survivors come out in the reference yield order
   with no sort;
2. checks each node whose layout's last column
   (:func:`repro.local.views.layout_label_columns`) was just assigned,
   reading its verdicts from the node's lazily filled
   :class:`~repro.kernel.tables.AcceptanceTable`, and drops the rejected
   rows.  A table decides the entries a stage meets for the first time
   in one ``Decoder.decide_columns`` call.

A stage never holds more than :data:`KERNEL_BLOCK_SIZE` rows (or one
row's ``|alphabet|`` children, when that is larger): a wider prefix is
split into chunks joined depth-first, which keeps product order too.

Accounting stays index-exact.  A survivor's global candidate index is
``row @ place``, so ``labelings_total`` commits the index range up to a
labeling just before yielding it, and the remainder on exhaustion.
Under orbit pruning the join runs unchanged and the representative test
(a row is a stabilizer-orbit minimum iff its index is ``<=`` that of
every permuted copy) filters the accepted rows; ``labelings_pruned``
for a committed range comes from a blockwise non-representative count
over that range, the one full-space pass left, run only on stabilized
bases.  The orbit dedup tail stays Python: few rows survive.

``kernel_labelings`` counts the rows the join evaluated (one per
extended row per stage) and ``kernel_batches`` the stages; a base
answered from an earlier base's join adds to neither.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..local.labeling import Labeling
from ..local.views import layout_label_columns
from ..perf.stats import GLOBAL_STATS, PerfStats
from .tables import acceptance_table

#: Largest labeling space the int64 index arithmetic can address.  The
#: plan's ``labeling_limit`` sits orders of magnitude below this; a
#: sweep counts a base over it as ``labelings_capped``, and a direct
#: call on one raises instead of overflowing.
MAX_INT64_SPACE = 2**62

#: The most rows one join stage holds.  Chunk boundaries are
#: unobservable — the yielded stream and all accounting are block-size
#: independent — so this is purely a memory/throughput trade.
KERNEL_BLOCK_SIZE = 4096


def kernel_supports(graph, alphabet) -> bool:
    """Whether the join can index this labeling space.  An empty
    alphabet is supported: its space has no labeling to yield."""
    return len(alphabet) ** graph.order <= MAX_INT64_SPACE


def accepted_rows(
    decoder,
    layouts: dict,
    graph,
    alphabet: list,
    np,
    stats: PerfStats | None = None,
    block_size: int | None = None,
) -> Iterator:
    """The join: one base's unanimously accepted labelings as blocks of
    ``(rows, n)`` int64 alphabet-index matrices, columns in graph
    insertion order, rows in ``itertools.product`` order.

    Reads only the decoder, the base's *layouts*, the graph and the
    alphabet, so the blocks of one base answer every base on which the
    decoder accepts the same labelings (see
    :attr:`repro.certification.decoder.Decoder.port_oblivious`).  The
    space must satisfy :func:`kernel_supports`.
    """
    stats = stats or GLOBAL_STATS
    a = len(alphabet)
    n = graph.order
    if not a:
        return  # an empty alphabet labels no node
    block = block_size or KERNEL_BLOCK_SIZE
    node_index = {v: i for i, v in enumerate(graph.nodes)}
    # Per-stage checks: a node's verdict is decidable once the last of
    # its layout columns is assigned; it is table[row[cols] @ weights].
    checks = [[] for _ in range(n)]
    for template, order in layouts.values():
        cols = layout_label_columns(order, node_index)
        table = acceptance_table(decoder, template, tuple(alphabet), stats=stats)
        weights = a ** np.arange(len(order) - 1, -1, -1, dtype=np.int64)
        checks[max(cols)].append((table, np.array(cols, dtype=np.intp), weights))

    # Depth-first join; pops (prefix rows, columns assigned).
    chunk = max(1, block // a)
    digit_column = np.arange(a, dtype=np.int64)
    stack = [(np.zeros((1, 0), dtype=np.int64), 0)]
    while stack:
        rows, j = stack.pop()
        if j == n:
            yield rows
            continue
        if len(rows) > chunk:
            stack.extend(
                (rows[lo : lo + chunk], j)
                for lo in reversed(range(0, len(rows), chunk))
            )
            continue
        grid = np.empty((len(rows), a, j + 1), dtype=np.int64)
        grid[:, :, :j] = rows[:, None, :]
        grid[:, :, j] = digit_column
        extended = grid.reshape(len(rows) * a, j + 1)
        stats.incr("kernel_batches")
        stats.incr("kernel_labelings", len(extended))
        for table, cols, weights in checks[j]:
            local = extended[:, cols]
            extended = extended[table.verdicts(local @ weights, local, stats)]
            if not len(extended):
                break
        if len(extended):
            stack.append((extended, j + 1))


def labelings_from_rows(
    blocks: Iterable,
    graph,
    alphabet: list,
    node_order: tuple,
    seen: set,
    stabilizer: tuple | None,
    account,
    np,
    block_size: int | None = None,
) -> Iterator[Labeling]:
    """The per-base tail: turn the join's accepted row *blocks* into
    this base's labelings.

    Keeps the stabilizer-orbit representatives, skips keys already in
    *seen* (updated in place), commits the
    :class:`~repro.symmetry.prune.SymmetryAccount` ranges and builds each
    :class:`~repro.local.labeling.Labeling`.  *blocks* may be a live
    join or the materialized blocks of an earlier base's join.
    """
    a = len(alphabet)
    nodes = graph.nodes
    n = len(nodes)
    node_index = {v: i for i, v in enumerate(nodes)}
    order_pos = [node_index[v] for v in node_order]
    total = a**n
    if not total:
        return  # an empty alphabet labels no node
    block = block_size or KERNEL_BLOCK_SIZE

    # Column place values: candidate index i has digit row
    # (i // a**(n-1)) % a, ..., i % a — product(alphabet, repeat=n) order.
    place = a ** np.arange(n - 1, -1, -1, dtype=np.int64)

    perms = None
    others = ()
    if stabilizer is not None and len(stabilizer) > 1:
        others = stabilizer[1:]
        perms = np.array(others, dtype=np.intp)

    def representatives(digits, indices):
        # Stabilizer-orbit minima: no permuted copy has a smaller index.
        is_rep = np.ones(len(indices), dtype=bool)
        for sigma in perms:
            np.logical_and(is_rep, digits[:, sigma] @ place >= indices, out=is_rep)
        return is_rep

    def non_representatives(lo: int, hi: int) -> int:
        # Orbit non-minima among candidate indices [lo, hi), counted
        # block by block.
        count = 0
        for start in range(lo, hi, block):
            indices = np.arange(start, min(start + block, hi), dtype=np.int64)
            digits = (indices[:, None] // place[None, :]) % a
            count += len(indices) - int(np.count_nonzero(representatives(digits, indices)))
        return count

    # ``cursor`` is the first candidate index whose labelings_total /
    # labelings_pruned increments have not been committed yet.
    cursor = 0
    for rows in blocks:
        positions = rows @ place
        if perms is not None:
            is_rep = representatives(rows, positions)
            rows, positions = rows[is_rep], positions[is_rep]
        for t, p in zip(rows.tolist(), positions.tolist()):
            if perms is None:
                key = tuple(alphabet[t[j]] for j in order_pos)
                if key in seen:
                    continue
                if account is not None:
                    account.labelings_total += p + 1 - cursor
                cursor = p + 1
                seen.add(key)
                yield Labeling({nodes[i]: alphabet[t[i]] for i in range(n)})
                continue
            t = tuple(t)
            orbit = {t}
            for sigma in others:
                orbit.add(tuple(t[sigma[i]] for i in range(n)))
            orbit_keys = {tuple(alphabet[u[j]] for j in order_pos) for u in orbit}
            rep_key = tuple(alphabet[t[j]] for j in order_pos)
            in_seen = sum(1 for key in orbit_keys if key in seen)
            if rep_key in seen:
                if account is not None:
                    account.instances_suppressed += len(orbit) - in_seen
                continue
            suppressed = len(orbit) - in_seen - 1
            if account is not None:
                account.labelings_total += p + 1 - cursor
                account.labelings_pruned += non_representatives(cursor, p + 1)
            cursor = p + 1
            seen.add(rep_key)
            yield Labeling({nodes[i]: alphabet[t[i]] for i in range(n)})
            # Committed only if the consumer pulls again — exactly like
            # the reference loop, whose post-yield increment never runs
            # when the sweep early-exits on this labeling.
            if account is not None:
                account.instances_suppressed += suppressed
    if account is not None and cursor < total:
        account.labelings_total += total - cursor
        if perms is not None:
            account.labelings_pruned += non_representatives(cursor, total)


def batch_unanimous_labelings(
    decoder,
    layouts: dict,
    graph,
    alphabet: list,
    node_order: tuple,
    seen: set,
    stabilizer: tuple | None,
    account,
    np,
    stats: PerfStats | None = None,
    block_size: int | None = None,
) -> Iterator[Labeling]:
    """Unanimously accepted labelings of one base: the join
    (:func:`accepted_rows`) fed straight into the tail
    (:func:`labelings_from_rows`).

    Matches the labeling-by-labeling scan (and its orbit-pruned
    variant) exactly: the yielded stream, the ``seen`` mutations, and
    the *account* state observable at each yield and at exhaustion are
    identical.  The space must satisfy :func:`kernel_supports`.
    """
    yield from labelings_from_rows(
        accepted_rows(decoder, layouts, graph, alphabet, np, stats, block_size),
        graph,
        alphabet,
        node_order,
        seen,
        stabilizer,
        account,
        np,
        block_size,
    )
