"""Tests for the degree-one LCP (Lemma 4.1): completeness across the
promise family, exhaustive strong soundness, hiding, anonymity, and the
necessity of the common-β check."""

import pytest

from repro.certification import (
    ExhaustiveAdversary,
    check_completeness,
    check_soundness,
    check_strong_soundness,
)
from repro.core import BOT, TOP, DegreeOneLCP
from repro.errors import PromiseViolationError
from repro.graphs import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    pan_graph,
    path_graph,
    spider_graph,
    star_graph,
)
from repro.graphs.families import bipartite_min_degree_one_graphs_up_to
from repro.graphs.properties import is_odd_closed_walk
from repro.local import Instance, Labeling, is_anonymous_on, IdentifierAssignment
from repro.engine import ExecutionPlan, decide_hiding


@pytest.fixture(scope="module")
def lcp() -> DegreeOneLCP:
    return DegreeOneLCP()


class TestProver:
    def test_certificate_structure(self, lcp):
        instance = Instance.build(path_graph(5))
        labeling = lcp.prover.certify(instance)
        values = [labeling.of(v) for v in instance.graph.nodes]
        assert values.count(BOT) == 1
        assert values.count(TOP) == 1
        assert all(v in (0, 1, BOT, TOP) for v in values)

    def test_bot_at_degree_one_node(self, lcp):
        instance = Instance.build(caterpillar_graph(4))
        labeling = lcp.prover.certify(instance)
        g = instance.graph
        bot_nodes = [v for v in g.nodes if labeling.of(v) == BOT]
        assert len(bot_nodes) == 1
        assert g.degree(bot_nodes[0]) == 1

    def test_all_certifications_enumerate_prover_freedom(self, lcp):
        instance = Instance.build(path_graph(4))
        labelings = list(lcp.prover.all_certifications(instance))
        # 2 degree-1 nodes x 2 coloring flips.
        assert len(labelings) == 4

    def test_rejects_outside_promise(self, lcp):
        with pytest.raises(PromiseViolationError):
            lcp.prover.certify(Instance.build(cycle_graph(4)))

    def test_rejects_non_bipartite(self, lcp):
        with pytest.raises(PromiseViolationError):
            lcp.prover.certify(Instance.build(pan_graph(3, 1)))


class TestCompleteness:
    def test_promise_family_up_to_5(self, lcp):
        report = check_completeness(
            lcp, list(bipartite_min_degree_one_graphs_up_to(5)), port_limit=4
        )
        assert report.passed
        assert report.graphs_checked >= 5

    def test_p2_edge_case(self, lcp):
        """Both endpoints have degree 1; TOP has no colored neighbors."""
        result = lcp.certify_and_check(Instance.build(path_graph(2)))
        assert result.unanimous


class TestSoundnessProperties:
    def test_exhaustive_strong_soundness(self, lcp):
        report = check_strong_soundness(
            lcp,
            [complete_graph(3), cycle_graph(5), pan_graph(3, 1)],
            ExhaustiveAdversary(),
            port_limit=2,
        )
        assert report.passed
        assert report.exhaustive
        assert report.labelings_checked > 1000

    def test_exhaustive_soundness(self, lcp):
        report = check_soundness(
            lcp, [complete_graph(3), cycle_graph(5)], ExhaustiveAdversary(), port_limit=1
        )
        assert report.passed

    def test_weakened_decoder_breaks_on_pan5(self):
        """Without the common-β requirement at ⊤ nodes, a 5-cycle with a
        pendant leaf gets an accepted odd cycle — the check is
        load-bearing (see the Lemma 4.1 analysis)."""
        weak = DegreeOneLCP(require_common_beta=False)
        report = check_strong_soundness(
            weak, [pan_graph(5, 1)], ExhaustiveAdversary(), port_limit=1
        )
        assert not report.passed
        violation = report.violations[0]
        assert len(violation.witness) >= 4  # an odd closed walk

    def test_repaired_decoder_survives_pan5(self, lcp):
        report = check_strong_soundness(
            lcp, [pan_graph(5, 1)], ExhaustiveAdversary(), port_limit=1
        )
        assert report.passed


class TestDecoderCases:
    def test_bot_requires_degree_one(self, lcp):
        g = path_graph(3)
        labeling = Labeling({0: TOP, 1: BOT, 2: TOP})
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert 1 in result.rejecting

    def test_top_requires_exactly_one_bot(self, lcp):
        g = star_graph(3)
        labeling = Labeling({0: TOP, 1: BOT, 2: BOT, 3: 0})
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert 0 in result.rejecting

    def test_colored_rejects_two_tops(self, lcp):
        g = path_graph(3)
        labeling = Labeling({0: TOP, 1: 0, 2: TOP})
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert 1 in result.rejecting

    def test_colored_rejects_same_color_neighbor(self, lcp):
        g = path_graph(2)
        labeling = Labeling({0: 0, 1: 0})
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert result.rejecting == {0, 1}

    def test_unknown_symbol_rejected(self, lcp):
        g = path_graph(2)
        labeling = Labeling({0: "junk", 1: TOP})
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert 0 in result.rejecting


class TestHidingAndAnonymity:
    def test_hiding_at_n4(self, lcp):
        verdict = decide_hiding(lcp, 4, ExecutionPlan())
        assert verdict.hiding is True
        walk = [verdict.ngraph.index[view] for view in verdict.witness]
        assert (len(walk) - 1) % 2 == 1
        assert is_odd_closed_walk(verdict.ngraph.to_graph(), walk)

    def test_decoder_is_anonymous(self, lcp):
        g = spider_graph(3, 1)
        instance = Instance.build(g, id_bound=10)
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        samples = [
            IdentifierAssignment.canonical(g),
            IdentifierAssignment.random(g, 10, seed=3),
        ]
        assert is_anonymous_on(lcp.decoder, labeled, samples)

    def test_certificate_bits_constant(self, lcp):
        assert lcp.certificate_bits(BOT, 10, 10) == 2
        assert lcp.certificate_bits(0, 1000, 1000) == 2
