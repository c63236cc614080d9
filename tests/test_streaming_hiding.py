"""Tests for the streaming hiding engine (early-exit Lemma 3.2).

Covers the parity guarantee (streaming verdict == the build-then-decide
oracle of :mod:`tests.oracle` for every registry scheme), the
incremental structures underneath (union-find with parity; incremental
DSATUR), the disk tier (round trip + version invalidation), the cross-``n`` warm start, and the witness-length
regressions pinning the paper's Figure 3–6 odd walks.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.registry import all_lcps, make_lcp
from repro.core import DegreeOneLCP, EvenCycleLCP, RevealingLCP
from repro.graphs.graph import Graph
from repro.graphs.incremental import IncrementalKColoring, ParityForest
from repro.graphs.properties import is_odd_closed_walk
from repro.engine import (
    DiskVerdictStore,
    ExecutionPlan,
    MemoryVerdictStore,
    RunContext,
    clear_engine_state,
    decide_hiding,
)
from repro.neighborhood import build_extraction_decoder
from repro.obs import RunReport, Tracer, validate_report
from repro.engine import stores
from repro.perf import PerfStats, overridden

from .oracle import oracle_verdict


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


def _decide(lcp, n, stats=None, ctx=None, **plan):
    """``decide_hiding(lcp, n, ExecutionPlan(**plan))`` on *ctx*, or on
    the default context counting on *stats* when given."""
    if ctx is None and stats is not None:
        ctx = RunContext(stats=stats)
    return decide_hiding(lcp, n, ExecutionPlan(**plan), ctx=ctx)


# ----------------------------------------------------------------------
# The parity property: streaming == the materialized (build-then-decide)
# oracle, any scheme
# ----------------------------------------------------------------------


def _assert_parity(lcp, n, ctx=None):
    """A cold sweep on *ctx* (default: a fresh isolated context) matches
    the oracle; a given *ctx* lends its stats and tracer to a fresh memo
    tier, so no sweep resumes an earlier one."""
    materialized = oracle_verdict(lcp, n)
    plan = ExecutionPlan(backend="streaming", disk_cache=False, memory_cache=False)
    ctx = (
        dataclasses.replace(ctx, memory=MemoryVerdictStore())
        if ctx is not None
        else RunContext.isolated()
    )
    verdict = decide_hiding(lcp, n, plan, ctx=ctx)
    assert not verdict.provenance.warm_started
    assert verdict.provenance.backend == "streaming"
    assert verdict.hiding == materialized.hiding
    if verdict.hiding:
        # The witness need not be the identical walk, but it must be a
        # genuine odd closed walk of adjacent views in the streamed graph.
        if lcp.k == 2:
            assert verdict.witness is not None
            g = verdict.ngraph
            walk = [g.index[view] for view in verdict.witness]
            assert is_odd_closed_walk(g.to_graph(), walk)
        # Early exit: never scan more than the full enumeration.
        assert (
            verdict.ngraph.instances_scanned
            <= materialized.ngraph.instances_scanned
        )
    else:
        # Non-hiding sweeps must materialize the exact same V(D, n).
        assert verdict.ngraph.views == materialized.ngraph.views
        assert verdict.ngraph.edges == materialized.ngraph.edges
        assert verdict.coloring == materialized.coloring


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
@pytest.mark.parametrize("n", [3, 4])
def test_streaming_matches_materialized_serial(scheme, n):
    _assert_parity(make_lcp(scheme), n)


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
def test_streaming_matches_materialized_n5_serial(scheme):
    _assert_parity(make_lcp(scheme), 5)


def test_traced_early_exit_sweeps_write_a_valid_run_report(tmp_path, capsys):
    """Every registry scheme at n = 3 and 4 under one tracer: each
    verdict matches the oracle, and the run report of the whole batch
    passes the schema check in process and through ``repro report
    validate``."""
    from repro.cli import main

    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    checks = 0
    with tracer.span("early-exit-sweeps"):
        for scheme in sorted(all_lcps()):
            for n in (3, 4):
                _assert_parity(make_lcp(scheme), n, ctx=ctx)
                checks += 1
    report = RunReport.from_run(
        tracer=tracer,
        stats=ctx.stats,
        meta={"kind": "smoke", "checks": checks},
    )
    assert validate_report(report.payload) == []
    assert len(report.payload["spans"]) > checks
    path = tmp_path / "smoke_run.json"
    report.write(path=path, directory=tmp_path / "runs")
    capsys.readouterr()
    assert main(["report", "validate", str(path)]) == 0
    assert capsys.readouterr().out == f"valid run report {report.digest}\n"


def test_non_hiding_extraction_decoders_are_equal():
    """On non-hiding sweeps the streamed graph feeds the extraction
    direction of Lemma 3.2 exactly as the materialized one does."""
    lcp = RevealingLCP()
    materialized = oracle_verdict(lcp, 4)
    streamed = _decide(
        lcp, 4, ctx=RunContext.isolated(), disk_cache=False, backend="streaming"
    )
    dec_m = build_extraction_decoder(materialized.ngraph, k=2)
    dec_s = build_extraction_decoder(streamed.ngraph, k=2)
    assert dec_m._table == dec_s._table


def test_early_exit_scans_fewer_instances():
    lcp = DegreeOneLCP()
    full = _decide(lcp, 4, early_exit=False, disk_cache=False)
    ctx = RunContext.isolated()
    streamed = _decide(lcp, 4, ctx=ctx, disk_cache=False, backend="streaming")
    assert streamed.hiding is True
    assert ctx.stats.get("streaming_early_exits") >= 1
    assert streamed.ngraph.instances_scanned < full.ngraph.instances_scanned


def test_backend_routes_agree():
    """The explicit backend and the auto route both go through the one
    engine; the flag agrees with the oracle either way."""
    lcp = DegreeOneLCP()
    materialized = oracle_verdict(lcp, 4)
    routed = _decide(lcp, 4, backend="streaming")
    assert routed.hiding == materialized.hiding
    via_auto = _decide(lcp, 4)
    assert via_auto.hiding == materialized.hiding


def test_clear_engine_state_leaves_the_default_route_cold():
    """After ``clear_engine_state()`` the next default decision is a
    fresh sweep, not the memoized object or the warm-start witness."""
    lcp = make_lcp("degree-one")
    first = decide_hiding(lcp, 4, ExecutionPlan())
    clear_engine_state()
    second = decide_hiding(lcp, 4, ExecutionPlan())
    assert second is not first
    assert second.provenance.warm_witness_hit is False
    assert second.provenance.disk_cache_hit is False
    assert second.decision_fingerprint() == first.decision_fingerprint()


# ----------------------------------------------------------------------
# Union-find with parity
# ----------------------------------------------------------------------


class TestParityForest:
    def test_triangle_yields_length_three_walk(self):
        f = ParityForest()
        assert f.add_edge(0, 1) is None
        assert f.add_edge(1, 2) is None
        walk = f.add_edge(0, 2)
        assert walk is not None
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1
        assert len(walk) - 1 == 3

    def test_even_cycle_stays_bipartite(self):
        f = ParityForest()
        for i in range(4):
            assert f.add_edge(i, (i + 1) % 4) is None
        coloring = f.two_coloring()
        for i in range(4):
            assert coloring[i] != coloring[(i + 1) % 4]

    def test_loop_is_a_witness(self):
        f = ParityForest()
        assert f.add_edge(5, 5) == [5, 5]

    def test_cross_component_union_keeps_parity(self):
        f = ParityForest()
        assert f.add_edge(0, 1) is None
        assert f.add_edge(2, 3) is None
        assert f.add_edge(1, 2) is None  # merge the two components
        # 0-1-2-3 is a path; closing 0-3 keeps it even (4-cycle)...
        assert f.add_edge(0, 3) is None
        # ...but chording it with 0-2 creates a triangle 0-1-2.
        walk = f.add_edge(0, 2)
        assert walk is not None
        assert (len(walk) - 1) % 2 == 1

    def test_odd_walk_is_valid_in_fed_graph(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]
        f = ParityForest()
        witness = None
        g = Graph(nodes=range(5))
        for u, v in edges:
            g.add_edge(u, v)
            witness = f.add_edge(u, v) or witness
        assert witness is not None
        assert is_odd_closed_walk(g, witness)

    def test_clone_is_independent(self):
        f = ParityForest()
        f.add_edge(0, 1)
        g = f.clone()
        assert g.add_edge(1, 2) is None
        assert 2 not in f.parent


# ----------------------------------------------------------------------
# Incremental DSATUR (general k)
# ----------------------------------------------------------------------


class TestIncrementalKColoring:
    def test_triangle_needs_three_colors(self):
        c = IncrementalKColoring(3)
        for v in range(3):
            c.add_node(v)
        c.add_edge(0, 1)
        c.add_edge(1, 2)
        c.add_edge(0, 2)
        assert not c.failed
        assert len({c.color[0], c.color[1], c.color[2]}) == 3

    def test_k4_is_not_three_colorable(self):
        c = IncrementalKColoring(3)
        for v in range(4):
            c.add_node(v)
        for u in range(4):
            for v in range(u + 1, 4):
                c.add_edge(u, v)
        assert c.failed

    def test_restart_recovers_from_greedy_dead_end(self):
        # A 6-cycle plus chords that force repairs/restarts but remains
        # 2-degenerate, hence 3-colorable.
        c = IncrementalKColoring(3)
        for v in range(6):
            c.add_node(v)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (3, 5)]
        for u, v in edges:
            c.add_edge(u, v)
        assert not c.failed
        for u, v in edges:
            assert c.color[u] != c.color[v]

    def test_loop_fails_any_k(self):
        c = IncrementalKColoring(3)
        c.add_node(0)
        c.add_edge(0, 0)
        assert c.failed


# ----------------------------------------------------------------------
# Persistent cache
# ----------------------------------------------------------------------


def _fresh_verdict():
    """A fresh ``k = 2`` hiding verdict of degree-one at ``n = 4``."""
    return decide_hiding(
        DegreeOneLCP(), 4, ExecutionPlan(memory_cache=False), ctx=RunContext.isolated()
    )


class TestPersistentCache:
    def test_round_trip(self, tmp_path):
        cache = DiskVerdictStore(tmp_path)
        key = {"lcp_name": "x", "n": 4}
        fresh = _fresh_verdict()
        assert cache.store(key, fresh)
        loaded = cache.load(key)
        assert loaded.provenance.disk_cache_hit
        assert loaded.hiding is fresh.hiding is True
        assert loaded.witness == fresh.witness
        assert loaded.ngraph.views == fresh.ngraph.views
        assert loaded.ngraph.edges == fresh.ngraph.edges
        assert loaded.digest() == fresh.digest()
        assert cache.load({"lcp_name": "x", "n": 5}) is None

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = DiskVerdictStore(tmp_path)
        key = {"lcp_name": "x", "n": 4}
        assert cache.store(key, _fresh_verdict())
        assert cache.load(key) is not None
        path = cache._path(key)
        monkeypatch.setattr(stores, "CACHE_VERSION", stores.CACHE_VERSION + 1)
        # The bump moves the content address, and the old entry is stale.
        assert cache._path(key) != path
        assert cache.load(key) is None
        assert cache.stats_summary()["stale_entries"] == 1
        # Even a forced read of the old file rejects its version header.
        monkeypatch.setattr(stores, "digest_for", lambda key: path.stem)
        stats = PerfStats()
        assert cache.load(key, stats=stats) is None
        assert stats.get("disk_misses") == 1

    def test_unserializable_labels_are_skipped(self, tmp_path):
        cache = DiskVerdictStore(tmp_path)
        fresh = _fresh_verdict()
        view = fresh.ngraph.views[0]
        object.__setattr__(view, "labels", (object(),) + view.labels[1:])
        object.__setattr__(view, "_hash", None)
        stats = PerfStats()
        assert not cache.store({"n": 1}, fresh, stats=stats)
        assert stats.get("persist_skips") == 1
        assert cache.stats_summary()["entries"] == 0

    def test_stats_and_clear(self, tmp_path):
        cache = DiskVerdictStore(tmp_path)
        fresh = _fresh_verdict()
        cache.store({"n": 1}, fresh)
        cache.store({"n": 2}, fresh)
        summary = cache.stats_summary()
        assert summary["entries"] == 2
        assert summary["stale_entries"] == 0
        assert summary["bytes"] == sum(entry["bytes"] for entry in cache.entries()) > 0
        assert [entry["key"] for entry in cache.entries()] == sorted(
            ({"n": 1}, {"n": 2}), key=lambda key: cache._path(key).name
        )
        assert cache.clear() == 2
        assert cache.stats_summary()["entries"] == 0

    def test_streaming_disk_round_trip_preserves_verdict(self, tmp_path):
        lcp = DegreeOneLCP()
        with overridden(disk_cache_dir=str(tmp_path)):
            ctx = RunContext.isolated()
            first = _decide(lcp, 4, ctx=ctx, disk_cache=True, backend="streaming")
            assert ctx.stats.get("persist_writes") == 1
            ctx = RunContext.isolated()
            second = _decide(lcp, 4, ctx=ctx, disk_cache=True, backend="streaming")
            assert ctx.stats.get("disk_hits") == 1
        assert second.hiding == first.hiding
        assert second.ngraph.views == first.ngraph.views
        assert second.ngraph.edges == first.ngraph.edges
        assert second.witness == first.witness
        assert first.ngraph.has_provenance
        assert not second.ngraph.has_provenance


# ----------------------------------------------------------------------
# Warm start
# ----------------------------------------------------------------------


class TestWarmStart:
    def test_chain_matches_cold_runs(self):
        lcp = RevealingLCP()
        cold = {
            n: _decide(
                lcp, n, ctx=RunContext.isolated(), disk_cache=False, backend="streaming"
            )
            for n in (3, 4, 5)
        }
        ctx = RunContext.isolated()
        for n in (3, 4, 5):
            warm = _decide(lcp, n, ctx=ctx, disk_cache=False, backend="streaming")
            assert warm.hiding == cold[n].hiding
            assert warm.ngraph.views == cold[n].ngraph.views
            assert warm.ngraph.edges == cold[n].ngraph.edges
        assert ctx.stats.get("warm_starts") == 2

    def test_witness_short_circuits_larger_n(self):
        lcp = DegreeOneLCP()
        _decide(lcp, 4, disk_cache=False, backend="streaming")
        stats = PerfStats()
        v5 = _decide(lcp, 5, stats=stats, disk_cache=False, backend="streaming")
        assert v5.hiding is True
        assert stats.get("warm_witness_hits") == 1
        # No new instances were scanned for n = 5.
        assert stats.get("instances_scanned") == 0

    @pytest.mark.parametrize("scheme", ["degree-one", "union", "even-cycle"])
    def test_full_sweep_warm_start_builds_the_complete_graph(self, scheme):
        """A found witness must not answer a larger full sweep: the plan
        promises the complete ``V(D, n)``, so the sweep warm-starts from
        the smaller state and scans on to *n* — equal to a cold sweep."""
        lcp = make_lcp(scheme)
        plan = ExecutionPlan(backend="streaming", early_exit=False, disk_cache=False)
        ctx = RunContext.isolated()
        decide_hiding(lcp, 4, plan, ctx=ctx)
        warm = decide_hiding(lcp, 6, plan, ctx=ctx)
        clear_engine_state()
        cold = decide_hiding(lcp, 6, plan, ctx=RunContext.isolated())
        assert not warm.provenance.warm_witness_hit
        assert warm.provenance.warm_started
        assert warm.ngraph.views == cold.ngraph.views
        assert warm.ngraph.edges == cold.ngraph.edges
        assert warm.ngraph.instances_scanned == cold.ngraph.instances_scanned
        assert warm.decision_fingerprint() == cold.decision_fingerprint()

    def test_warm_state_not_mutated_by_resume(self):
        lcp = RevealingLCP()
        v3 = _decide(lcp, 3, disk_cache=False, backend="streaming")
        views_before = list(v3.ngraph.views)
        _decide(lcp, 4, disk_cache=False, backend="streaming")
        assert v3.ngraph.views == views_before


# ----------------------------------------------------------------------
# Witness-length regressions (the paper's Figure 3–6 odd walks)
# ----------------------------------------------------------------------


class TestWitnessRegressions:
    def test_degree_one_n4_walk_length(self):
        verdict = _decide(DegreeOneLCP(), 4, early_exit=False)
        assert verdict.hiding is True
        # The stream-order witness [v0, ..., v10, v0]: 12 entries,
        # 11 views, 11 edges.
        assert len(verdict.witness) == 12
        assert verdict.witness[0] == verdict.witness[-1]
        assert (len(verdict.witness) - 1) % 2 == 1
        assert "odd closed walk of 11 views" in verdict.summary()

    def test_even_cycle_n6_loop_witness(self):
        verdict = _decide(EvenCycleLCP(), 6, early_exit=False)
        assert verdict.hiding is True
        # The 2-labeled-cycles witness collapses to a self-loop: a view
        # adjacent to itself is an odd closed walk of length 1.
        assert len(verdict.witness) == 2
        assert verdict.witness[0] == verdict.witness[-1]
        assert "odd closed walk of 1 views" in verdict.summary()

    def test_summary_counts_edges_not_entries(self):
        """``len(witness) - 1`` is the number of edges of the closed
        walk, which equals the number of distinct view *slots* traversed
        — the convention `summary()` reports.  (Checked against the
        stream witness's ``[v0, ..., vk, v0]`` shape.)"""
        verdict = _decide(DegreeOneLCP(), 4, early_exit=False)
        walk = [verdict.ngraph.index[v] for v in verdict.witness]
        edge_count = len(walk) - 1
        assert is_odd_closed_walk(verdict.ngraph.to_graph(), walk)
        assert f"odd closed walk of {edge_count} views" in verdict.summary()

    def test_full_sweep_stops_feeding_the_forest_after_the_witness(
        self, monkeypatch
    ):
        """A hiding full sweep recovers its walk once: after the first
        witness the forest is no longer fed, so ``_tree_path`` never runs
        again, and the walk is the early-exit sweep's walk."""
        calls = []
        tree_path = ParityForest._tree_path

        def counting(self, src, dst):
            calls.append((src, dst))
            return tree_path(self, src, dst)

        monkeypatch.setattr(ParityForest, "_tree_path", counting)
        lcp = DegreeOneLCP()
        plan = dict(disk_cache=False)
        full = decide_hiding(
            lcp, 5, ExecutionPlan(early_exit=False, **plan), ctx=RunContext.isolated()
        )
        assert full.hiding is True
        assert len(calls) == 1
        early = decide_hiding(lcp, 5, ExecutionPlan(**plan), ctx=RunContext.isolated())
        assert early.witness == full.witness
