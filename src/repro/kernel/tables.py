"""Lazily filled per-template acceptance tables for the batch kernel.

A view-layout template (:func:`repro.local.views.extract_view_layouts`)
fixes everything a decoder can see except the certificate values at the
view's local positions.  For a finite alphabet of size ``a`` and a view
of size ``m``, the decoder's verdict is therefore a pure function of the
``a ** m`` possible label tuples.

:class:`AcceptanceTable` holds that function as a ``known``/``value``
pair of boolean numpy arrays indexed by the mixed-radix (base ``a``,
most-significant first) encoding of the alphabet indices, in the exact
enumeration order of ``itertools.product``.  Entries start unknown and
are decided only when the prefix-pruned join of :mod:`repro.kernel.batch`
indexes them (:meth:`AcceptanceTable.verdicts`), through
:func:`repro.perf.cache.memoized_decide`, so scalar and kernel sweeps
share one decision memo.  Most entries of a table are never read: the
join drops rejected prefixes before the later nodes' views are formed.

Tables are cached process-wide per ``(decoder, template, alphabet)`` by
:func:`acceptance_table` — two nodes (or two bases) that share a
template share one table and its filled entries.
"""

from __future__ import annotations

from ..local.views import View
from ..perf.cache import LRUCache
from ..perf.stats import GLOBAL_STATS, PerfStats

#: ``(id(decoder), template, alphabet) -> (anchor, table)``.  The anchor
#: keeps the decoder alive so its ``id`` cannot be recycled while the
#: entry is mapped (same identity-key discipline as the decision memo).
_TABLES = LRUCache(1024)

#: Pre-seeded tables shipped into pool workers, keyed by
#: ``(decoder.name, template, alphabet)``.  Object ids do not survive
#: pickling, so the seed store keys by the registry name instead — sound
#: because registry decoders are pure functions of their name.  Consulted
#: only on an LRU miss; matches are promoted into :data:`_TABLES` under
#: the local decoder's identity key.
_SEED_TABLES: dict = {}


class AcceptanceTable:
    """One decoder's verdicts on *template* over *alphabet*, decided on
    demand.

    ``value[i]`` is meaningful only where ``known[i]`` is set; entry
    ``i`` is the verdict on the label tuple whose alphabet indices encode
    ``i`` in base ``len(alphabet)``, most-significant local position
    first.
    """

    __slots__ = ("template", "alphabet", "known", "value")

    def __init__(self, template: View, alphabet: tuple, np) -> None:
        self.template = template
        self.alphabet = alphabet
        self.known = np.zeros(len(alphabet) ** template.size, dtype=bool)
        self.value = np.zeros_like(self.known)

    def verdicts(self, indices, digits, decide, np, stats):
        """Verdicts at *indices*, deciding the unknown ones first.

        *digits* is the ``(rows, m)`` alphabet-index matrix the indices
        were encoded from (row ``r`` encodes ``indices[r]``); each unknown
        entry is decided once, from its first row.
        """
        unknown = ~self.known[indices]
        if unknown.any():
            fresh, first = np.unique(indices[unknown], return_index=True)
            alphabet = self.alphabet
            self.value[fresh] = [
                decide(_template_with_labels(self.template, tuple(alphabet[d] for d in combo)))
                for combo in digits[unknown][first].tolist()
            ]
            self.known[fresh] = True
            stats.incr("kernel_table_entries", len(fresh))
        return self.value[indices]

    def merge(self, indices, values) -> None:
        """Adopt decided entries, keeping every entry already known."""
        fresh = ~self.known[indices]
        self.value[indices[fresh]] = values[fresh]
        self.known[indices[fresh]] = True


def clear_kernel_tables() -> None:
    """Drop every cached acceptance table (benchmarks, test isolation)."""
    _TABLES.clear()
    _SEED_TABLES.clear()


def kernel_tables_snapshot() -> dict:
    """Picklable snapshot of the decided acceptance-table entries.

    Maps ``(decoder.name, template, alphabet)`` to ``(indices,
    values)``: only decided entries travel, and tables with none are
    left out.  Keys switch from the process-local ``id(decoder)`` to the
    decoder's registry ``name`` so the snapshot survives the trip into a
    worker process; the tables of same-named decoder objects pool their
    entries.  Decoders without a ``name`` attribute are skipped — they
    cannot be re-identified on the far side.
    """
    from . import numpy_or_none  # noqa: PLC0415

    np = numpy_or_none()
    if np is None:
        return {}
    pooled: dict = {}
    for (_, template, alphabet), (decoder, table) in _TABLES.items():
        name = getattr(decoder, "name", None)
        if name is None:
            continue
        key = (name, template, alphabet)
        if key not in pooled:
            pooled[key] = (np.zeros_like(table.known), np.zeros_like(table.value))
        known, value = pooled[key]
        known |= table.known
        value |= table.known & table.value
    snapshot = {}
    for key, (known, value) in pooled.items():
        indices = np.flatnonzero(known)
        if len(indices):
            snapshot[key] = (indices, value[indices])
    return snapshot


def prime_kernel_tables(snapshot: dict) -> None:
    """Merge a :func:`kernel_tables_snapshot` into this process's tables
    (pool-worker initializer; see :mod:`repro.perf.pool`).

    Entries merge into the seed store, whose table for a key is the live
    table of a same-named decoder when this process already holds one
    (a forked worker inherits its parent's); entries this process
    already knows are never overwritten.
    """
    from . import numpy_or_none  # noqa: PLC0415

    np = numpy_or_none()
    if np is None or not snapshot:
        return
    live = {
        (getattr(decoder, "name", None), template, alphabet): table
        for (_, template, alphabet), (decoder, table) in _TABLES.items()
    }
    for key, (indices, values) in snapshot.items():
        _, template, alphabet = key
        table = (
            _SEED_TABLES.get(key) or live.get(key) or AcceptanceTable(template, alphabet, np)
        )
        table.merge(indices, values)
        _SEED_TABLES[key] = table


def _template_with_labels(template: View, labels: tuple) -> View:
    # Same fast clone as repro.local.views.relabel_view, but from a raw
    # label tuple instead of a Labeling (the table decodes label combos
    # directly).
    view = View.__new__(View)
    state = view.__dict__
    state.update(template.__dict__)
    state.pop("_hash", None)
    state["labels"] = labels
    return view


def acceptance_table(
    decoder, template: View, alphabet: tuple, np, stats: PerfStats | None = None
) -> AcceptanceTable:
    """The (lazily filled) acceptance table of *decoder* on *template*.

    One lookup per call: a hit on the process-wide cache, a promotion
    from the seed store, or a miss that allocates an all-unknown table
    of ``len(alphabet) ** template.size`` entries.
    """
    stats = stats or GLOBAL_STATS
    key = (id(decoder), template, alphabet)
    entry = _TABLES.get(key)
    if entry is not None:
        stats.incr("kernel_table_hits")
        return entry[1]
    if _SEED_TABLES:
        name = getattr(decoder, "name", None)
        seeded = _SEED_TABLES.get((name, template, alphabet))
        if seeded is not None:
            stats.incr("kernel_table_seed_hits")
            _TABLES.put(key, (decoder, seeded))
            return seeded
    stats.incr("kernel_table_misses")
    table = AcceptanceTable(template, alphabet, np)
    _TABLES.put(key, (decoder, table))
    return table
