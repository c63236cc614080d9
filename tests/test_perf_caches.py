"""The perf layer: LRU store, layout cache, stats, config.

Every cache here must be *semantics-preserving*: the tests check each
one against the uncached computation it replaces, plus the isolation
properties (copy-on-yield family cache) that keep the hiding
experiments sound.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan
from repro.graphs import cycle_graph, path_graph
from repro.graphs.encoding import canonical_form
from repro.graphs.families import (
    all_graphs_exactly,
    clear_family_cache,
    enumerate_graphs_exactly_reference,
)
from repro.graphs.encoding import are_isomorphic
from repro.local import Labeling, labeling_key, node_sort_order
from repro.local.instance import Instance
from repro.local.views import extract_all_views, extract_view_layouts, relabel_view
from repro.neighborhood import build_neighborhood_graph, yes_instances_up_to
from repro.perf import (
    CONFIG,
    GLOBAL_STATS,
    PerfConfig,
    PerfStats,
    configure,
    overridden,
)
from repro.perf.cache import LRUCache, ViewLayoutCache


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------


class TestLRUCache:
    def test_get_put_and_counters(self):
        lru = LRUCache(4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.hits, lru.misses) == (1, 1)

    def test_eviction_is_least_recently_used(self):
        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b becomes LRU
        lru.put("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)


# ----------------------------------------------------------------------
# ViewLayoutCache
# ----------------------------------------------------------------------


class TestViewLayoutCache:
    def _labeled_instance(self, graph, tag):
        base = Instance.build(graph)
        return base.with_labeling(Labeling({v: (tag, v) for v in graph.nodes}))

    def test_labeled_views_match_fresh_extraction(self):
        cache = ViewLayoutCache(16)
        instance = self._labeled_instance(path_graph(4), "x")
        for radius in (1, 2):
            cached = cache.labeled_views(instance, radius, include_ids=True)
            fresh = extract_all_views(instance, radius, include_ids=True)
            assert cached == fresh

    def test_second_labeling_hits_the_cache(self):
        cache = ViewLayoutCache(16)
        stats = PerfStats()
        base = Instance.build(cycle_graph(4))
        first = base.with_labeling(Labeling.uniform(base.graph, "a"))
        second = base.with_labeling(Labeling.uniform(base.graph, "b"))
        cache.labeled_views(first, 1, include_ids=True, stats=stats)
        assert stats.get("layout_misses") == 1
        cached = cache.labeled_views(second, 1, include_ids=True, stats=stats)
        assert stats.get("layout_hits") == 1
        assert cached == extract_all_views(second, 1, include_ids=True)

    def test_distinct_bases_do_not_collide(self):
        cache = ViewLayoutCache(16)
        a = self._labeled_instance(path_graph(3), "a")
        b = self._labeled_instance(cycle_graph(3), "b")
        assert cache.labeled_views(a, 1, True) == extract_all_views(a, 1, True)
        assert cache.labeled_views(b, 1, True) == extract_all_views(b, 1, True)
        assert len(cache) == 2


# ----------------------------------------------------------------------
# Layout templates / relabel_view
# ----------------------------------------------------------------------


def test_relabel_view_equals_full_extraction_for_every_labeling():
    graph = path_graph(4)
    base = Instance.build(graph)
    layouts = extract_view_layouts(base, radius=1, include_ids=True)
    for tag in ("p", "q"):
        labeling = Labeling({v: (tag, v) for v in graph.nodes})
        labeled = base.with_labeling(labeling)
        fresh = extract_all_views(labeled, 1, include_ids=True)
        for v, (template, order) in layouts.items():
            assert relabel_view(template, order, labeling) == fresh[v]


# ----------------------------------------------------------------------
# labeling_key
# ----------------------------------------------------------------------


class TestLabelingKey:
    def test_equal_labelings_equal_keys(self):
        g = path_graph(3)
        a = Labeling({v: "c" for v in g.nodes})
        b = Labeling({v: "c" for v in reversed(g.nodes)})
        assert labeling_key(a) == labeling_key(b)

    def test_different_labelings_differ(self):
        g = path_graph(3)
        a = Labeling.uniform(g, "x")
        b = a.with_label(g.nodes[0], "y")
        assert labeling_key(a) != labeling_key(b)

    def test_node_order_fast_path_consistent(self):
        g = cycle_graph(4)
        order = node_sort_order(g)
        a = Labeling({v: ("t", v) for v in g.nodes})
        b = Labeling({v: ("t", v) for v in g.nodes})
        assert labeling_key(a, order) == labeling_key(b, order)
        c = a.with_label(g.nodes[1], ("other",))
        assert labeling_key(a, order) != labeling_key(c, order)


# ----------------------------------------------------------------------
# Family cache + bitset enumeration
# ----------------------------------------------------------------------


class TestFamilyEnumeration:
    def test_cache_yields_independent_copies(self):
        clear_family_cache()
        first = list(all_graphs_exactly(3))
        mutated = first[0]
        mutated.add_node("extra")
        second = list(all_graphs_exactly(3))
        assert all(g.order == 3 for g in second)

    def test_bitset_enumeration_matches_reference(self):
        # Differential test: the family enumeration (orderly generation)
        # against the object-based edge-subset oracle, for both
        # connectivity regimes.
        for n in range(1, 5):
            for connected_only in (True, False):
                clear_family_cache()
                fast = list(all_graphs_exactly(n, connected_only=connected_only))
                slow = list(
                    enumerate_graphs_exactly_reference(n, connected_only=connected_only)
                )
                assert len(fast) == len(slow)
                for g in fast:
                    assert sum(1 for h in slow if are_isomorphic(g, h)) == 1

    def test_connected_counts(self):
        clear_family_cache()
        counts = [len(list(all_graphs_exactly(n))) for n in range(1, 7)]
        assert counts == [1, 1, 2, 6, 21, 112]


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------


def test_canonical_form_is_computed_without_a_cache():
    """Nothing memoizes canonical forms: a call records no counter, and
    relabeled copies of one graph get the same form."""
    before = dict(GLOBAL_STATS.counters)
    g = cycle_graph(5)
    form = canonical_form(g)
    assert canonical_form(g.relabeled({v: (v * 2) % 5 for v in g.nodes})) == form
    assert canonical_form(path_graph(5)) != form
    assert GLOBAL_STATS.counters == before


# ----------------------------------------------------------------------
# Stats / config
# ----------------------------------------------------------------------


class TestStatsAndConfig:
    def test_hit_rate_and_render(self):
        stats = PerfStats()
        stats.incr("layout_hits", 3)
        stats.incr("layout_misses", 1)
        assert stats.hit_rate("layout") == pytest.approx(0.75)
        with stats.time_stage("neighborhood_build"):
            pass
        text = stats.render()
        assert "layout_hit_rate" in text and "neighborhood_build" in text

    def test_configure_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            configure(not_a_real_knob=1)

    def test_config_has_exactly_the_plan_defaults(self):
        """The caches are always on and their sizes are module constants,
        and orbit pruning and warm starts follow ``lcp.anonymous``: what
        is left are the disk-tier defaults plans resolve against."""
        assert [f.name for f in fields(PerfConfig)] == ["disk_cache", "disk_cache_dir"]
        for retired in ("layout_cache", "decision_memo", "kernel_block_size"):
            with pytest.raises(TypeError):
                configure(**{retired: False})
        for retired, value in (("symmetry", "off"), ("warm_start", False)):
            with pytest.raises(TypeError, match=retired):
                configure(**{retired: value})
            with pytest.raises(TypeError, match=retired):
                ExecutionPlan(**{retired: value})
        # Every sweep runs in one process: the pool knobs are gone from
        # the config and from plans alike.
        for retired in ("workers", "sharding", "shard_depth"):
            with pytest.raises(TypeError):
                configure(**{retired: 2})
            with pytest.raises(TypeError):
                ExecutionPlan(**{retired: 2})

    def test_overridden_restores(self):
        before = CONFIG.disk_cache
        with overridden(disk_cache=not before):
            assert CONFIG.disk_cache is (not before)
        assert CONFIG.disk_cache == before

    def test_overridden_none_leaves_knob_alone(self):
        """None means "don't touch" — call sites forward optional CLI
        arguments unfiltered, so None must neither set nor restore."""
        before_disk, before_dir = CONFIG.disk_cache, CONFIG.disk_cache_dir
        with overridden(disk_cache=None, disk_cache_dir="elsewhere"):
            assert CONFIG.disk_cache == before_disk
            assert CONFIG.disk_cache_dir == "elsewhere"
            # A mutation made inside the scope to an un-overridden knob
            # survives the exit (nothing was saved for it).
            CONFIG.disk_cache = not before_disk
        assert CONFIG.disk_cache == (not before_disk)
        assert CONFIG.disk_cache_dir == before_dir
        CONFIG.disk_cache = before_disk

    def test_overridden_scopes_nest_and_restore_on_error(self):
        before = CONFIG.disk_cache_dir
        with overridden(disk_cache_dir="outer"):
            with overridden(disk_cache_dir="inner"):
                assert CONFIG.disk_cache_dir == "inner"
            assert CONFIG.disk_cache_dir == "outer"
            with pytest.raises(RuntimeError):
                with overridden(disk_cache_dir="failing"):
                    raise RuntimeError("boom")
            assert CONFIG.disk_cache_dir == "outer"
        assert CONFIG.disk_cache_dir == before


# ----------------------------------------------------------------------
# neighbors_of via adjacency lists
# ----------------------------------------------------------------------


def test_neighbors_of_matches_edge_scan():
    lcp = DegreeOneLCP()
    ngraph = build_neighborhood_graph(lcp, yes_instances_up_to(lcp, 4))
    for view in ngraph.views:
        idx = ngraph.index[view]
        expected = sorted(
            j for i, j in ngraph.edges if i == idx
        ) + sorted(i for i, j in ngraph.edges if j == idx and i != idx)
        got = sorted(ngraph.index[w] for w in ngraph.neighbors_of(view))
        assert got == sorted(expected)
