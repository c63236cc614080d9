"""Tests for the certification framework: LCP plumbing, checkers,
adversaries, reports, and the enumerative (search-prover) wrapper."""

import pytest

from repro.certification import (
    AcceptanceResult,
    CheckKind,
    CheckReport,
    ConstantDecoder,
    EnumerativeLCP,
    ExhaustiveAdversary,
    GreedyAdversary,
    RandomAdversary,
    check_completeness,
    check_soundness,
    check_strong_soundness,
    find_strong_soundness_violation,
    harvest_certificate_pool,
    instances_for,
)
from repro.core import DegreeOneLCP, RevealingLCP
from repro.errors import PromiseViolationError
from repro.graphs import complete_graph, cycle_graph, is_bipartite, pan_graph, path_graph
from repro.graphs.properties import bipartition
from repro.local import Instance


class TestAcceptanceResult:
    def test_partition(self):
        result = AcceptanceResult(votes={0: True, 1: False, 2: True})
        assert not result.unanimous
        assert result.accepting == {0, 2}
        assert result.rejecting == {1}

    def test_unanimous(self):
        assert AcceptanceResult(votes={0: True}).unanimous


class TestInstancesFor:
    def test_exhaustive_ports_small(self):
        instances = list(instances_for(path_graph(3), port_limit=8, id_samples=1))
        assert len(instances) == 2  # 1!*2!*1! = 2 port assignments

    def test_sampled_ports_large(self):
        instances = list(instances_for(cycle_graph(6), port_limit=3, id_samples=1))
        assert len(instances) == 3

    def test_id_samples(self):
        instances = list(instances_for(path_graph(3), port_limit=1, id_samples=3))
        assert len(instances) == 3
        bounds = {inst.id_bound for inst in instances}
        assert bounds == {6}


class TestCheckers:
    def test_completeness_skips_non_yes(self):
        report = check_completeness(RevealingLCP(), [complete_graph(3)])
        assert report.graphs_checked == 0
        assert report.notes

    def test_soundness_catches_accept_all(self):
        lcp = EnumerativeLCP(
            ConstantDecoder(True, anonymous=True), ["c"], promise_fn=is_bipartite
        )
        report = check_soundness(
            lcp, [complete_graph(3)], ExhaustiveAdversary(), port_limit=1
        )
        assert not report.passed
        assert report.violations[0].kind is CheckKind.SOUNDNESS

    def test_strong_soundness_witness_is_odd_walk(self):
        lcp = EnumerativeLCP(
            ConstantDecoder(True, anonymous=True), ["c"], promise_fn=is_bipartite
        )
        report = check_strong_soundness(
            lcp, [complete_graph(3)], ExhaustiveAdversary(), port_limit=1
        )
        assert not report.passed
        witness = report.violations[0].witness
        assert (len(witness) - 1) % 2 == 1

    def test_find_violation_shortcut(self):
        lcp = EnumerativeLCP(
            ConstantDecoder(True, anonymous=True), ["c"], promise_fn=is_bipartite
        )
        violation = find_strong_soundness_violation(
            lcp, [cycle_graph(5)], ExhaustiveAdversary()
        )
        assert violation is not None
        assert find_strong_soundness_violation(
            DegreeOneLCP(), [cycle_graph(5)], ExhaustiveAdversary()
        ) is None

    def test_strong_soundness_matches_per_labeling_reference(self):
        """The verifier decides each distinct label tuple of a template
        once and 2-colors each accepting set once per instance; the
        report must still be the one a plain per-labeling check gives:
        the same labelings, violations and odd-cycle witnesses, in
        order.  The weakened degree-one decoder has violations."""
        weak = DegreeOneLCP(require_common_beta=False)
        graphs = [pan_graph(5, 1), cycle_graph(5), path_graph(4)]
        adversary = ExhaustiveAdversary()
        expected = []
        labelings = 0
        for graph in graphs:
            for instance in instances_for(graph, port_limit=2, id_samples=1):
                for labeling in adversary.labelings(weak, instance):
                    labelings += 1
                    accepting = weak.check(instance.with_labeling(labeling)).accepting
                    split = bipartition(graph.induced_subgraph(accepting))
                    if not split.is_bipartite:
                        expected.append((instance, labeling, tuple(split.odd_cycle)))
        assert expected
        report = check_strong_soundness(weak, graphs, adversary, port_limit=2)
        assert report.labelings_checked == labelings
        found = [(v.instance, v.labeling, v.witness) for v in report.violations]
        assert found == expected
        first = find_strong_soundness_violation(weak, graphs, adversary, port_limit=2)
        assert (first.instance, first.labeling, first.witness) == expected[0]

    def test_report_merge(self):
        a = CheckReport(kind=CheckKind.SOUNDNESS, lcp_name="x", graphs_checked=1)
        b = CheckReport(kind=CheckKind.SOUNDNESS, lcp_name="x", graphs_checked=2)
        merged = a.merge(b)
        assert merged.graphs_checked == 3
        with pytest.raises(ValueError):
            a.merge(CheckReport(kind=CheckKind.HIDING, lcp_name="x"))

    def test_report_summary_mentions_status(self):
        report = CheckReport(kind=CheckKind.COMPLETENESS, lcp_name="demo")
        assert "PASS" in report.summary()


class TestAdversaries:
    def test_exhaustive_requires_alphabet(self):
        from repro.core import WatermelonLCP

        adversary = ExhaustiveAdversary()
        instance = Instance.build(path_graph(3))
        with pytest.raises(ValueError):
            list(adversary.labelings(WatermelonLCP(), instance))

    def test_exhaustive_counts(self):
        adversary = ExhaustiveAdversary()
        instance = Instance.build(path_graph(3))
        labelings = list(adversary.labelings(DegreeOneLCP(), instance))
        assert len(labelings) == 4**3

    def test_exhaustive_cap(self):
        adversary = ExhaustiveAdversary(max_labelings=10)
        instance = Instance.build(path_graph(3))
        assert len(list(adversary.labelings(DegreeOneLCP(), instance))) == 10

    def test_harvest_pool_includes_prover_certificates(self):
        from repro.core import WatermelonLCP

        lcp = WatermelonLCP()
        instance = Instance.build(cycle_graph(5), id_bound=10)
        pool = harvest_certificate_pool(lcp, instance, [path_graph(5), cycle_graph(6)])
        assert pool
        kinds = {c[0] for c in pool}
        assert "end" in kinds and "path" in kinds

    def test_random_adversary_deterministic(self):
        adversary = RandomAdversary(samples=5, seed=1, pool_graphs=[path_graph(4)])
        instance = Instance.build(cycle_graph(5))
        first = [lab.as_dict() for lab in adversary.labelings(DegreeOneLCP(), instance)]
        second = [lab.as_dict() for lab in adversary.labelings(DegreeOneLCP(), instance)]
        assert first == second
        assert len(first) == 5

    def test_greedy_adversary_improves(self):
        adversary = GreedyAdversary(restarts=2, sweeps=2, seed=0,
                                    pool_graphs=[path_graph(4)])
        lcp = DegreeOneLCP()
        instance = Instance.build(cycle_graph(5))
        stream = list(adversary.labelings(lcp, instance))
        assert stream
        # Scores along each restart are non-decreasing.
        scores = [sum(lcp.check(instance.with_labeling(lab)).votes.values()) for lab in stream]
        assert max(scores) >= scores[0]


class TestEnumerativeLCP:
    def test_search_prover_finds_accepted_labeling(self):
        lcp = EnumerativeLCP(RevealingLCP().decoder, [0, 1], promise_fn=is_bipartite)
        instance = Instance.build(path_graph(4))
        labeling = lcp.prover.certify(instance)
        assert lcp.check(instance.with_labeling(labeling)).unanimous

    def test_search_prover_fails_on_odd_cycle(self):
        lcp = EnumerativeLCP(RevealingLCP().decoder, [0, 1])
        with pytest.raises(PromiseViolationError):
            lcp.prover.certify(Instance.build(cycle_graph(5)))

    def test_search_limit(self):
        lcp = EnumerativeLCP(RevealingLCP().decoder, [0, 1], search_limit=4)
        with pytest.raises(PromiseViolationError):
            lcp.prover.certify(Instance.build(path_graph(4)))

    def test_certificate_bits(self):
        lcp = EnumerativeLCP(ConstantDecoder(True), ["a", "b", "c"])
        assert lcp.certificate_bits("a", 10, 10) == 2
