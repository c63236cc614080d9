"""The perf layer: LRU store, layout cache, decision memo, stats, config.

Every cache here must be *semantics-preserving*: the tests check each
one against the uncached computation it replaces, plus the isolation
properties (per-decoder memos, copy-on-yield family cache) that keep the
hiding experiments sound.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan
from repro.graphs import cycle_graph, path_graph
from repro.graphs.encoding import (
    _canonical_form_uncached,
    canonical_form,
    clear_canonical_cache,
)
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
from repro.perf.cache import (
    DecisionMemo,
    LRUCache,
    ViewLayoutCache,
    memoized_decide,
    shared_decision_memo,
)


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

    def test_get_or_compute_computes_once(self):
        lru = LRUCache(2)
        calls = []
        for _ in range(3):
            value = lru.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1

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
# DecisionMemo
# ----------------------------------------------------------------------


class TestDecisionMemo:
    def _views(self, n=4):
        lcp = DegreeOneLCP()
        instance = Instance.build(path_graph(n))
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        return lcp, extract_all_views(labeled, lcp.radius, include_ids=True)

    def test_memo_agrees_with_decoder_and_counts(self):
        lcp, views = self._views()
        memo = DecisionMemo(lcp.decoder, 64)
        stats = PerfStats()
        for view in views.values():
            assert memo.decide(view, stats) == lcp.decoder.decide(view)
        repeat_hits_before = stats.get("memo_hits")
        for view in views.values():
            memo.decide(view, stats)
        assert stats.get("memo_hits") == repeat_hits_before + len(views)

    def test_shared_memos_are_per_decoder_object(self):
        d1 = DegreeOneLCP().decoder
        d2 = DegreeOneLCP().decoder
        assert shared_decision_memo(d1) is shared_decision_memo(d1)
        assert shared_decision_memo(d1) is not shared_decision_memo(d2)

    def test_memoized_decide_mixed_certificate_alphabet(self):
        """Views whose labels mix ints, strings, and tuples memoize by
        view identity — no cross-type comparison or key collision (the
        neighborhood-graph builder decides its views through this path)."""
        from itertools import product

        lcp = DegreeOneLCP()
        graph = path_graph(3)
        base = Instance.build(graph)
        layouts = extract_view_layouts(base, lcp.radius, include_ids=True)
        stats = PerfStats()
        decide = memoized_decide(lcp.decoder, stats)
        alphabet = [0, "far", ("d1", 1)]
        views = []
        for combo in product(alphabet, repeat=graph.order):
            labeling = Labeling(dict(zip(graph.nodes, combo)))
            for template, order in layouts.values():
                view = relabel_view(template, order, labeling)
                views.append(view)
                assert decide(view) == lcp.decoder.decide(view)
        # The replay must be answered entirely from the memo.
        misses = stats.get("memo_misses")
        for view in views:
            decide(view)
        assert stats.get("memo_misses") == misses
        assert stats.get("memo_hits") >= len(views)


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
# Canonical-form cache
# ----------------------------------------------------------------------


def test_canonical_cache_transparent():
    clear_canonical_cache()
    g = cycle_graph(5)
    misses_before = GLOBAL_STATS.get("canonical_misses")
    cold = canonical_form(g)
    assert GLOBAL_STATS.get("canonical_misses") == misses_before + 1
    hits_before = GLOBAL_STATS.get("canonical_hits")
    warm = canonical_form(g)
    assert GLOBAL_STATS.get("canonical_hits") == hits_before + 1
    assert _canonical_form_uncached(g) == cold == warm


# ----------------------------------------------------------------------
# Stats / config
# ----------------------------------------------------------------------


class TestStatsAndConfig:
    def test_hit_rate_and_render(self):
        stats = PerfStats()
        stats.incr("memo_hits", 3)
        stats.incr("memo_misses", 1)
        assert stats.hit_rate("memo") == pytest.approx(0.75)
        with stats.time_stage("neighborhood_build"):
            pass
        text = stats.render()
        assert "memo" in text and "neighborhood_build" in text

    def test_configure_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            configure(not_a_real_knob=1)

    def test_config_has_exactly_the_plan_defaults(self):
        """The caches are always on and their sizes are module constants:
        what is left are the defaults plans resolve against."""
        assert {f.name for f in fields(PerfConfig)} == {
            "warm_start",
            "disk_cache",
            "disk_cache_dir",
            "symmetry",
        }
        for retired in ("layout_cache", "decision_memo", "kernel_block_size"):
            with pytest.raises(TypeError):
                configure(**{retired: False})
        # Every sweep runs in one process: the pool knobs are gone from
        # the config and from plans alike.
        for retired in ("workers", "sharding", "shard_depth"):
            with pytest.raises(TypeError):
                configure(**{retired: 2})
            with pytest.raises(TypeError):
                ExecutionPlan(**{retired: 2})

    def test_overridden_restores(self):
        before = CONFIG.symmetry
        with overridden(symmetry="off"):
            assert CONFIG.symmetry == "off"
        assert CONFIG.symmetry == before

    def test_overridden_none_leaves_knob_alone(self):
        """None means "don't touch" — call sites forward optional CLI
        arguments unfiltered, so None must neither set nor restore."""
        before_warm, before_dir = CONFIG.warm_start, CONFIG.disk_cache_dir
        with overridden(warm_start=None, disk_cache_dir="elsewhere"):
            assert CONFIG.warm_start == before_warm
            assert CONFIG.disk_cache_dir == "elsewhere"
            # A mutation made inside the scope to an un-overridden knob
            # survives the exit (nothing was saved for it).
            CONFIG.warm_start = not before_warm
        assert CONFIG.warm_start == (not before_warm)
        assert CONFIG.disk_cache_dir == before_dir
        CONFIG.warm_start = before_warm

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
