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
indexes them (:meth:`AcceptanceTable.verdicts`): each join stage hands
its fresh entries to one :meth:`~repro.certification.decoder.Decoder.
decide_columns` call, which the constant-size schemes answer with
column operations and every other decoder with its ``decide`` loop.
The neighborhood-graph builder decides the few distinct views it
indexes on its own.  Most entries of a table are never read: the join drops rejected
prefixes before the later nodes' views are formed.

Tables are cached process-wide per ``(decoder, template, alphabet)`` by
:func:`acceptance_table` — two nodes (or two bases) that share a
template share one table and its filled entries.
"""

from __future__ import annotations

import numpy as np

from ..local.views import View
from ..perf.cache import LRUCache
from ..perf.stats import GLOBAL_STATS, PerfStats

#: ``(id(decoder), template, alphabet) -> table``.  The table keeps the
#: decoder alive so its ``id`` cannot be recycled while the entry is
#: mapped (the identity-key discipline of :mod:`repro.perf.cache`).
_TABLES = LRUCache(1024)

class AcceptanceTable:
    """One decoder's verdicts on *template* over *alphabet*, decided on
    demand.

    ``value[i]`` is meaningful only where ``known[i]`` is set; entry
    ``i`` is the verdict on the label tuple whose alphabet indices encode
    ``i`` in base ``len(alphabet)``, most-significant local position
    first.
    """

    __slots__ = ("decoder", "template", "alphabet", "known", "value")

    def __init__(self, decoder, template: View, alphabet: tuple) -> None:
        self.decoder = decoder
        self.template = template
        self.alphabet = alphabet
        self.known = np.zeros(len(alphabet) ** template.size, dtype=bool)
        self.value = np.zeros_like(self.known)

    def verdicts(self, indices, digits, stats: PerfStats) -> np.ndarray:
        """Verdicts at *indices*, deciding the unknown ones first.

        *digits* is the ``(rows, m)`` alphabet-index matrix the indices
        were encoded from (row ``r`` encodes ``indices[r]``); the unknown
        entries are decided once each, from their first rows, by one
        ``decide_columns`` call.
        """
        unknown = ~self.known[indices]
        if unknown.any():
            fresh, first = np.unique(indices[unknown], return_index=True)
            self.value[fresh] = self.decoder.decide_columns(
                self.template, self.alphabet, digits[unknown][first]
            )
            self.known[fresh] = True
            stats.incr("kernel_table_entries", len(fresh))
        return self.value[indices]


def clear_kernel_tables() -> None:
    """Drop every cached acceptance table (benchmarks, test isolation)."""
    _TABLES.clear()


def acceptance_table(
    decoder, template: View, alphabet: tuple, stats: PerfStats | None = None
) -> AcceptanceTable:
    """The (lazily filled) acceptance table of *decoder* on *template*.

    One lookup per call: a hit on the process-wide cache, or a miss
    that allocates an all-unknown table of ``len(alphabet) **
    template.size`` entries.
    """
    stats = stats or GLOBAL_STATS
    key = (id(decoder), template, alphabet)
    table = _TABLES.get(key)
    if table is not None:
        stats.incr("kernel_table_hits")
        return table
    stats.incr("kernel_table_misses")
    table = AcceptanceTable(decoder, template, alphabet)
    _TABLES.put(key, table)
    return table
