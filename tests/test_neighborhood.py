"""Tests for the accepting neighborhood graph (Section 3) and both
directions of the Lemma 3.2 characterization."""

import pytest

from repro.core import DegreeOneLCP, EvenCycleLCP, RevealingLCP
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.local import Instance
from repro.engine import ExecutionPlan, decide_hiding
from repro.neighborhood import (
    UNKNOWN_VIEW,
    build_extraction_decoder,
    build_neighborhood_graph,
    hiding_verdict_from_instances,
    labeled_yes_instances,
    run_extraction,
    yes_instances_up_to,
)


class TestAViewsEnumeration:
    def test_prover_labelings_enumerated(self):
        lcp = DegreeOneLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(4)], port_limit=1, id_bound=4)
        )
        # one port assignment kept, 4 prover labelings.
        assert len(labeled) == 4
        assert all(inst.labeling is not None for inst in labeled)

    def test_all_accepted_expands_the_set(self):
        lcp = DegreeOneLCP()
        prover_only = list(
            labeled_yes_instances(lcp, [path_graph(3)], port_limit=1, id_bound=3)
        )
        everything = list(
            labeled_yes_instances(
                lcp, [path_graph(3)], port_limit=1, id_bound=3,
                include_all_accepted_labelings=True,
            )
        )
        assert len(everything) > len(prover_only)
        for inst in everything:
            assert lcp.check(inst).unanimous

    def test_yes_instances_up_to_filters_promise(self):
        lcp = EvenCycleLCP()
        labeled = list(yes_instances_up_to(lcp, 5, port_limit=2))
        assert labeled
        from repro.graphs import is_even_cycle

        assert all(is_even_cycle(inst.graph) for inst in labeled)

    @pytest.mark.parametrize(
        "scheme,counter",
        [("even-cycle", "labelings_capped"), ("watermelon", "labelings_prover_only")],
    )
    def test_skipped_unanimity_passes_are_counted(self, scheme, counter):
        """Even-cycle's 16 ** 4 labelings exceed the 20,000 cap on every
        n = 4 base, and watermelon has no finite alphabet: each base whose
        exhaustive pass is skipped is counted, under its reason."""
        from repro.core import make_lcp
        from repro.graphs.families import all_graphs_up_to
        from repro.perf import PerfStats
        from repro.symmetry import SymmetryAccount

        lcp = make_lcp(scheme)
        counters = ("labelings_capped", "labelings_prover_only")
        for include_all in (True, False):
            stats, account = PerfStats(), SymmetryAccount()
            assert list(
                labeled_yes_instances(
                    lcp,
                    all_graphs_up_to(4, mutable=False),
                    id_bound=4,
                    include_all_accepted_labelings=include_all,
                    symmetry="off",
                    account=account,
                    stats=stats,
                )
            )
            expected = {name: 0 for name in counters}
            if include_all:
                expected[counter] = account.bases_total
            assert account.bases_total
            assert {name: stats.get(name) for name in counters} == expected

    @pytest.mark.parametrize("k, rejects", [(3, True), (2, False)])
    def test_swallowed_prover_rejections_are_counted(self, k, rejects):
        """Degree-one re-parameterized to k = 3 admits 3-colorable
        yes-instances its 2-coloring prover rejects; the tolerant prover
        swallows each one and counts it.  The native sweep swallows
        nothing."""
        from repro.engine.context import RunContext

        ctx = RunContext.isolated()
        plan = ExecutionPlan(early_exit=False, memory_cache=False, disk_cache=False)
        decide_hiding(DegreeOneLCP(), 4, plan, k=k, ctx=ctx)
        swallowed = ctx.stats.get("prover_rejections")
        assert swallowed > 0 if rejects else swallowed == 0

    def test_sampled_port_spaces_are_counted_per_visit(self):
        """With ``port_limit=2`` the path (4 port assignments) and the
        star (6) on 4 nodes are sampled.  The count is per sweep visit:
        a second identical sweep, whose port lists come from the graphs'
        memo, adds the same count again."""
        from repro.engine.context import RunContext

        plan = ExecutionPlan(
            early_exit=False,
            warm_start=False,
            memory_cache=False,
            disk_cache=False,
            port_limit=2,
        )
        counts = []
        for _ in range(2):
            ctx = RunContext.isolated()
            decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
            counts.append(ctx.stats.get("ports_sampled"))
        assert counts == [2, 2]

    def test_non_yes_graphs_skipped(self):
        lcp = DegreeOneLCP()
        labeled = list(
            labeled_yes_instances(lcp, [cycle_graph(5)], port_limit=1, id_bound=5)
        )
        assert labeled == []


class TestNeighborhoodGraph:
    def test_views_and_edges_recorded(self):
        lcp = DegreeOneLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(4)], port_limit=1, id_bound=4)
        )
        ngraph = build_neighborhood_graph(lcp, labeled)
        assert ngraph.order > 0
        assert ngraph.size > 0
        assert ngraph.instances_scanned == len(labeled)
        # Provenance: every view has a witness; every edge has one.
        assert set(ngraph.view_witness) == set(range(ngraph.order))
        assert set(ngraph.edge_witness) == ngraph.edges

    def test_anonymous_views_for_anonymous_lcp(self):
        lcp = DegreeOneLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(3)], port_limit=1, id_bound=3)
        )
        ngraph = build_neighborhood_graph(lcp, labeled)
        assert not ngraph.include_ids
        assert all(view.is_anonymous for view in ngraph.views)

    def test_to_graph_roundtrip(self):
        lcp = RevealingLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(3)], port_limit=1, id_bound=3)
        )
        ngraph = build_neighborhood_graph(lcp, labeled)
        g = ngraph.to_graph()
        assert g.order == ngraph.order
        assert g.size == ngraph.size

    def test_neighbors_of(self):
        lcp = RevealingLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(3)], port_limit=1, id_bound=3)
        )
        ngraph = build_neighborhood_graph(lcp, labeled)
        some_view = ngraph.views[0]
        for nbr in ngraph.neighbors_of(some_view):
            assert nbr in ngraph.index


class TestHidingVerdicts:
    def test_hiding_lcp_positive(self):
        verdict = decide_hiding(DegreeOneLCP(), 4, ExecutionPlan())
        assert verdict.hiding is True
        assert verdict.witness is not None
        assert "YES" in verdict.summary()

    def test_non_hiding_exhaustive_negative(self):
        verdict = decide_hiding(RevealingLCP(), 4, ExecutionPlan())
        assert verdict.hiding is False
        assert verdict.coloring is not None
        assert "NO" in verdict.summary()

    def test_partial_scan_inconclusive(self):
        lcp = RevealingLCP()
        labeled = list(
            labeled_yes_instances(lcp, [path_graph(3)], port_limit=1, id_bound=3)
        )
        verdict = hiding_verdict_from_instances(lcp, labeled, exhaustive=False)
        assert verdict.hiding is None
        assert "inconclusive" in verdict.summary()

    def test_odd_cycle_views_are_adjacent(self):
        verdict = decide_hiding(EvenCycleLCP(), 4, ExecutionPlan())
        assert verdict.hiding is True
        walk = verdict.witness
        ngraph = verdict.ngraph
        for a, b in zip(walk, walk[1:]):
            i, j = ngraph.index[a], ngraph.index[b]
            key = (i, j) if i <= j else (j, i)
            assert key in ngraph.edges


class TestExtraction:
    @pytest.fixture(scope="class")
    def revealing_setup(self):
        lcp = RevealingLCP()
        verdict = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False))
        decoder = build_extraction_decoder(verdict.ngraph, 2)
        return lcp, decoder

    def test_extraction_proper_on_covered_instances(self, revealing_setup):
        lcp, decoder = revealing_setup
        assert decoder is not None
        for graph in [path_graph(4), cycle_graph(4), star_graph(3), path_graph(2)]:
            instance = Instance.build(graph, id_bound=4)
            labeling = lcp.prover.certify(instance)
            outcome = run_extraction(decoder, lcp, instance.with_labeling(labeling))
            assert outcome.proper
            assert outcome.correct_fraction == 1.0

    def test_extraction_unknown_view_marker(self, revealing_setup):
        lcp, decoder = revealing_setup
        # A degree-5 center cannot occur in the n<=4 sweep, so its view is
        # unknown to the compiled table.  (Path views, by contrast, are
        # all covered: radius-1 anonymous path views recur in P4/C4.)
        instance = Instance.build(star_graph(5), id_bound=6)
        labeling = lcp.prover.certify(instance)
        outputs = decoder.run_on(instance.with_labeling(labeling))
        assert outputs[0] == UNKNOWN_VIEW

    def test_extraction_requires_accepted_instance(self, revealing_setup):
        lcp, decoder = revealing_setup
        from repro.local import Labeling

        g = path_graph(2)
        bad = Instance.build(g, id_bound=4).with_labeling(Labeling({0: 0, 1: 0}))
        with pytest.raises(ValueError):
            run_extraction(decoder, lcp, bad)

    def test_no_extraction_decoder_for_hiding_lcp(self):
        verdict = decide_hiding(
            DegreeOneLCP(), 4, ExecutionPlan(early_exit=False)
        )
        assert build_extraction_decoder(verdict.ngraph, 2) is None

    def test_table_size(self, revealing_setup):
        _lcp, decoder = revealing_setup
        assert decoder.table_size == decoder._table.__len__() > 0


def test_sweep_cache_distinguishes_weakened_decoders():
    """The Lemma 3.1 sweep memo must never conflate a scheme with its
    deliberately weakened variants (their decoder names differ)."""
    from repro.core import DegreeOneLCP

    strict = decide_hiding(DegreeOneLCP(), 3, ExecutionPlan())
    weak = decide_hiding(
        DegreeOneLCP(require_common_beta=False), 3, ExecutionPlan()
    )
    assert strict is not weak
    again = decide_hiding(DegreeOneLCP(), 3, ExecutionPlan())
    assert again is strict  # memo hit for identical parameters
