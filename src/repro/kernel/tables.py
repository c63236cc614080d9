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
:func:`repro.perf.cache.memoized_decide`, so the join and the
neighborhood-graph builder share one decision memo.  Most entries of a
table are never read: the join drops rejected prefixes before the later
nodes' views are formed.

Tables are cached process-wide per ``(decoder, template, alphabet)`` by
:func:`acceptance_table` — two nodes (or two bases) that share a
template share one table and its filled entries.
"""

from __future__ import annotations

from ..local.views import View, view_with_labels
from ..perf.cache import LRUCache
from ..perf.stats import GLOBAL_STATS, PerfStats

#: ``(id(decoder), template, alphabet) -> (anchor, table)``.  The anchor
#: keeps the decoder alive so its ``id`` cannot be recycled while the
#: entry is mapped (same identity-key discipline as the decision memo).
_TABLES = LRUCache(1024)

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
                decide(view_with_labels(self.template, tuple(alphabet[d] for d in combo)))
                for combo in digits[unknown][first].tolist()
            ]
            self.known[fresh] = True
            stats.incr("kernel_table_entries", len(fresh))
        return self.value[indices]


def clear_kernel_tables() -> None:
    """Drop every cached acceptance table (benchmarks, test isolation)."""
    _TABLES.clear()


def acceptance_table(
    decoder, template: View, alphabet: tuple, np, stats: PerfStats | None = None
) -> AcceptanceTable:
    """The (lazily filled) acceptance table of *decoder* on *template*.

    One lookup per call: a hit on the process-wide cache, or a miss
    that allocates an all-unknown table of ``len(alphabet) **
    template.size`` entries.
    """
    stats = stats or GLOBAL_STATS
    key = (id(decoder), template, alphabet)
    entry = _TABLES.get(key)
    if entry is not None:
        stats.incr("kernel_table_hits")
        return entry[1]
    stats.incr("kernel_table_misses")
    table = AcceptanceTable(template, alphabet, np)
    _TABLES.put(key, (decoder, table))
    return table
