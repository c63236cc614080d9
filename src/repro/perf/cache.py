"""Caches for the V(D, n) hot path.

Three layers, all bounded LRUs:

* :class:`LRUCache` — the generic store (also used by
  :mod:`repro.graphs.encoding` for canonical forms);
* :class:`ViewLayoutCache` — view-layout templates per
  ``(graph, ports, ids, id_bound, radius, include_ids)`` base, so a sweep
  that re-labels one base thousands of times extracts and canonicalizes
  its views exactly once and instantiates the rest with cheap
  :func:`repro.local.views.relabel_view` calls;
* :class:`DecisionMemo` — ``decoder.decide`` verdicts per canonical view,
  for the views the neighborhood-graph builder decides.  The kernel's
  acceptance tables decide their entries in bulk
  (``Decoder.decide_columns``) without it, and the builder's view
  interning already decides each view once per sweep, so the memo
  serves repeat sweeps: a cold full degree-one ``V(D, 6)`` makes 0 hits
  against 414 misses.

Identity keys.  Bases and decoders are keyed by ``id()`` of their
component objects; every cache entry keeps a strong reference to those
objects, so an id can never be recycled while its entry is alive.
Imports of :mod:`repro.local.views` are deferred to call time to keep
this module importable from the bottom graph layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from .stats import GLOBAL_STATS, PerfStats

_MISSING = object()

#: Bases a :class:`ViewLayoutCache` keeps; a sweep reuses one base's
#: templates across all its labelings, so recency is all that matters.
LAYOUT_CACHE_SIZE = 4096

#: Canonical views a :class:`DecisionMemo` keeps per decoder.
DECISION_MEMO_SIZE = 65536


class LRUCache:
    """A bounded mapping with least-recently-used eviction."""

    __slots__ = ("maxsize", "_data", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LRUCache needs maxsize >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def get_or_compute(self, key, compute: Callable[[], Any]):
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0


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


class DecisionMemo:
    """Memoized ``decoder.decide``, keyed by canonical view.

    Sound exactly when the decoder is a pure function of the view — the
    defining property of a decoder in the LCP model.  One memo belongs to
    one decoder object; use :func:`shared_decision_memo` to get the
    process-wide memo for a given decoder.
    """

    __slots__ = ("decoder", "_lru")

    def __init__(self, decoder, maxsize: int | None = None) -> None:
        self.decoder = decoder
        self._lru = LRUCache(maxsize or DECISION_MEMO_SIZE)

    def decide(self, view, stats: PerfStats | None = None) -> bool:
        stats = stats or GLOBAL_STATS
        verdict = self._lru.get(view, _MISSING)
        if verdict is not _MISSING:
            stats.incr("memo_hits")
            return verdict
        stats.incr("memo_misses")
        verdict = self.decoder.decide(view)
        self._lru.put(view, verdict)
        return verdict

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()


# ----------------------------------------------------------------------
# Shared process-wide instances
# ----------------------------------------------------------------------

_DEFAULT_LAYOUT_CACHE: ViewLayoutCache | None = None

#: Decoder-object id -> DecisionMemo; bounded so abandoned decoders from
#: long sessions eventually drop out.  Each memo keeps the decoder alive
#: (its `decoder` attribute), so ids cannot be recycled while mapped.
_MEMO_REGISTRY = LRUCache(64)


def default_layout_cache() -> ViewLayoutCache:
    """The process-wide shared layout cache."""
    global _DEFAULT_LAYOUT_CACHE
    if _DEFAULT_LAYOUT_CACHE is None:
        _DEFAULT_LAYOUT_CACHE = ViewLayoutCache()
    return _DEFAULT_LAYOUT_CACHE


def shared_decision_memo(decoder) -> DecisionMemo:
    """The process-wide memo for *decoder* (created on first use).

    Memos are keyed per decoder object, so a scheme and its deliberately
    weakened variants (distinct decoder instances) never share verdicts.
    """
    return _MEMO_REGISTRY.get_or_compute(id(decoder), lambda: DecisionMemo(decoder))


def clear_shared_caches() -> None:
    """Drop every process-wide cache (benchmarks measuring cold paths)."""
    if _DEFAULT_LAYOUT_CACHE is not None:
        _DEFAULT_LAYOUT_CACHE.clear()
    _MEMO_REGISTRY.clear()


# ----------------------------------------------------------------------
# The decide closure used by the neighborhood-graph builder
# ----------------------------------------------------------------------


def memoized_decide(decoder, stats: PerfStats | None = None) -> Callable[[Any], bool]:
    """``decoder.decide`` through the shared memo.

    The returned closure inlines the memo's hit path — one dict probe,
    no intermediate frames — because every view the builder indexes is
    decided through it.
    """
    memo = shared_decision_memo(decoder)
    lru = memo._lru
    data = lru._data
    raw_decide = decoder.decide
    counters = (stats or GLOBAL_STATS).counters

    def decide(view) -> bool:
        verdict = data.get(view, _MISSING)
        if verdict is not _MISSING:
            data.move_to_end(view)
            lru.hits += 1
            counters["memo_hits"] = counters.get("memo_hits", 0) + 1
            return verdict
        lru.misses += 1
        counters["memo_misses"] = counters.get("memo_misses", 0) + 1
        verdict = raw_decide(view)
        lru.put(view, verdict)
        return verdict

    return decide
