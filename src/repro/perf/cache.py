"""Caches for the V(D, n) hot path.

Two layers:

* :class:`LRUCache` — the generic bounded store (also used by
  :mod:`repro.kernel.tables` for acceptance tables);
* :class:`ViewLayoutCache` — view-layout templates per
  ``(graph, ports, ids, id_bound, radius, include_ids)`` base, so a sweep
  that re-labels one base thousands of times extracts and canonicalizes
  its views exactly once and instantiates the rest with cheap
  :func:`repro.local.views.relabel_view` calls.

Decoder verdicts are not cached here: the neighborhood-graph builder
interns views and decides each distinct view once per build, and the
kernel's acceptance tables decide their entries in bulk
(``Decoder.decide_columns``).

Identity keys.  Bases are keyed by ``id()`` of their component objects;
every cache entry keeps a strong reference to those objects, so an id
can never be recycled while its entry is alive.  Imports of
:mod:`repro.local.views` are deferred to call time to keep this module
importable from the bottom graph layer.
"""

from __future__ import annotations

from collections import OrderedDict

from .stats import GLOBAL_STATS, PerfStats

_MISSING = object()

#: Bases a :class:`ViewLayoutCache` keeps; a sweep reuses one base's
#: templates across all its labelings, so recency is all that matters.
LAYOUT_CACHE_SIZE = 4096


class LRUCache:
    """A bounded mapping with least-recently-used eviction."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LRUCache needs maxsize >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


class ViewLayoutCache:
    """View-layout templates, reusable across labelings of one base.

    Keyed by the identities of the base's graph, ports and ids (plus the
    id bound, radius and identifier mode).  A miss runs
    :func:`repro.local.views.extract_view_layouts`, which canonicalizes
    every center in one BFS over the base's adjacency and port table;
    every labeling of the base then reuses the templates, so a sweep
    extracts each base once (``layout_misses`` bases,
    ``views_extracted`` templates).
    """

    __slots__ = ("_lru",)

    def __init__(self, maxsize: int | None = None) -> None:
        self._lru = LRUCache(maxsize or LAYOUT_CACHE_SIZE)

    @staticmethod
    def base_key(instance, radius: int, include_ids: bool) -> tuple:
        """The identity key of *instance*'s base: its templates are
        reusable exactly while this key holds.  Anonymous views carry no
        identifiers, so the id bound is part of the key only with
        *include_ids*: sweeps of one anonymous scheme at different ``n``
        share their layouts."""
        return (
            id(instance.graph),
            id(instance.ports),
            id(instance.ids),
            instance.id_bound if include_ids else None,
            radius,
            include_ids,
        )

    def layouts_for(
        self, instance, radius: int, include_ids: bool, stats: PerfStats | None = None
    ) -> dict:
        """``{node: (template, label_order)}`` for the base of *instance*."""
        from ..local.views import extract_view_layouts  # noqa: PLC0415

        stats = stats or GLOBAL_STATS
        key = self.base_key(instance, radius, include_ids)
        entry = self._lru.get(key)
        if entry is not None:
            stats.incr("layout_hits")
            return entry[1]
        stats.incr("layout_misses")
        layouts = extract_view_layouts(instance, radius, include_ids=include_ids)
        stats.incr("views_extracted", len(layouts))
        # The anchor pins graph/ports/ids so their ids stay unambiguous
        # for as long as this entry lives.
        anchor = (instance.graph, instance.ports, instance.ids)
        self._lru.put(key, (anchor, layouts))
        return layouts

    def labeled_views(
        self, instance, radius: int, include_ids: bool, stats: PerfStats | None = None
    ) -> dict:
        """Views of every node of a labeled instance, via cached templates.

        Equivalent to :func:`repro.local.views.extract_all_views` —
        canonicalization never depends on labels — but re-extraction is
        replaced by tuple rebuilds on layout hits.  The neighborhood
        builder interns views instead of calling this per instance; the
        per-pair reference builder of the tests still does.
        """
        from ..local.views import relabel_view  # noqa: PLC0415

        stats = stats or GLOBAL_STATS
        layouts = self.layouts_for(instance, radius, include_ids, stats=stats)
        labeling = instance.labeling
        stats.incr("views_relabeled", len(layouts))
        if labeling is None:
            return {v: template for v, (template, _order) in layouts.items()}
        return {
            v: relabel_view(template, order, labeling)
            for v, (template, order) in layouts.items()
        }

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()


# ----------------------------------------------------------------------
# Shared process-wide instances
# ----------------------------------------------------------------------

_DEFAULT_LAYOUT_CACHE: ViewLayoutCache | None = None


def default_layout_cache() -> ViewLayoutCache:
    """The process-wide shared layout cache."""
    global _DEFAULT_LAYOUT_CACHE
    if _DEFAULT_LAYOUT_CACHE is None:
        _DEFAULT_LAYOUT_CACHE = ViewLayoutCache()
    return _DEFAULT_LAYOUT_CACHE


def clear_shared_caches() -> None:
    """Drop the process-wide layout cache (benchmarks measuring cold
    paths)."""
    if _DEFAULT_LAYOUT_CACHE is not None:
        _DEFAULT_LAYOUT_CACHE.clear()

