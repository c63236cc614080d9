"""Tests for the union LCP (Theorem 1.1) and the revealing baseline."""

import pytest

from repro.certification import (
    ExhaustiveAdversary,
    check_completeness,
    check_strong_soundness,
)
from repro.core import (
    RevealingLCP,
    TAG_DEGREE_ONE,
    TAG_EVEN_CYCLE,
    UnionLCP,
)
from repro.errors import PromiseViolationError
from repro.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    theta_graph,
)
from repro.local import Instance, Labeling
from repro.engine import ExecutionPlan, decide_hiding


class TestRevealing:
    def test_round_trip(self):
        lcp = RevealingLCP()
        for g in [path_graph(5), cycle_graph(6), star_graph(4)]:
            assert lcp.certify_and_check(Instance.build(g)).unanimous

    def test_both_colorings_emitted(self):
        lcp = RevealingLCP()
        instance = Instance.build(path_graph(3))
        labelings = list(lcp.prover.all_certifications(instance))
        assert len(labelings) == 2
        assert labelings[0].of(0) != labelings[1].of(0)

    def test_rejects_non_bipartite(self):
        with pytest.raises(PromiseViolationError):
            RevealingLCP().prover.certify(Instance.build(complete_graph(3)))

    def test_strong_soundness_exhaustive(self):
        lcp = RevealingLCP()
        report = check_strong_soundness(
            lcp, [complete_graph(3), cycle_graph(5), theta_graph(2, 2, 3)],
            ExhaustiveAdversary(), port_limit=2,
        )
        assert report.passed

    def test_not_hiding(self):
        verdict = decide_hiding(RevealingLCP(), 4, ExecutionPlan())
        assert verdict.hiding is False
        assert verdict.coloring is not None

    def test_invalid_color_rejected(self):
        lcp = RevealingLCP()
        g = path_graph(2)
        result = lcp.check(Instance.build(g).with_labeling(Labeling({0: 5, 1: 0})))
        assert 0 in result.rejecting

    def test_k3_colors(self):
        lcp = RevealingLCP(k=3)
        assert lcp.certificate_alphabet(path_graph(2)) == [0, 1, 2]
        assert lcp.certificate_bits(2, 10, 10) == 2


class TestUnion:
    def test_prover_picks_matching_scheme(self):
        lcp = UnionLCP()
        deg = lcp.prover.certify(Instance.build(path_graph(4)))
        assert all(deg.of(v)[0] == TAG_DEGREE_ONE for v in range(4))
        cyc = lcp.prover.certify(Instance.build(cycle_graph(6)))
        assert all(cyc.of(v)[0] == TAG_EVEN_CYCLE for v in range(6))

    def test_promise_class(self):
        lcp = UnionLCP()
        assert lcp.promise(path_graph(4))       # H1
        assert lcp.promise(cycle_graph(6))      # H2
        assert not lcp.promise(cycle_graph(5))  # H2 holds even cycles only
        assert not lcp.promise(theta_graph(2, 2, 2))

    def test_rejects_outside_union(self):
        with pytest.raises(PromiseViolationError):
            UnionLCP().prover.certify(Instance.build(theta_graph(2, 2, 4)))

    def test_completeness_both_families(self):
        report = check_completeness(
            UnionLCP(), [path_graph(4), star_graph(3), cycle_graph(4), cycle_graph(6)],
            port_limit=4,
        )
        assert report.passed

    def test_mixed_tags_rejected(self):
        """A neighborhood mixing H1 and H2 certificates must reject —
        otherwise the two schemes' invariants cannot compose."""
        lcp = UnionLCP()
        g = cycle_graph(4)
        instance = Instance.build(g)
        cyc = lcp.prover.certify(instance)
        mixed = cyc.with_label(0, (TAG_DEGREE_ONE, 0))
        result = lcp.check(instance.with_labeling(mixed))
        assert 0 in result.rejecting
        assert 1 in result.rejecting  # the H2 neighbor sees a foreign tag

    def test_strong_soundness_exhaustive_small(self):
        report = check_strong_soundness(
            UnionLCP(), [complete_graph(3)], ExhaustiveAdversary(), port_limit=1
        )
        assert report.passed
        assert report.labelings_checked == 20**3

    def test_alphabet_is_tagged_union(self):
        lcp = UnionLCP()
        alphabet = lcp.certificate_alphabet(path_graph(2))
        assert len(alphabet) == 4 + 16
        assert all(tag in (TAG_DEGREE_ONE, TAG_EVEN_CYCLE) for tag, _ in alphabet)

    def test_untagged_certificates_rejected(self):
        lcp = UnionLCP()
        g = path_graph(2)
        result = lcp.check(Instance.build(g).with_labeling(Labeling.uniform(g, 0)))
        assert result.rejecting == {0, 1}


class TestRevealingGeneralK:
    """Lemma 3.2 at k = 3: the general-k instantiation of the framework."""

    def test_k3_round_trip(self):
        lcp = RevealingLCP(k=3)
        for g in [complete_graph(3), cycle_graph(5), path_graph(4)]:
            assert lcp.certify_and_check(Instance.build(g)).unanimous

    def test_k3_prover_enumerates_color_permutations(self):
        lcp = RevealingLCP(k=3)
        instance = Instance.build(path_graph(2))
        labelings = list(lcp.prover.all_certifications(instance))
        assert len(labelings) == 6  # 3! permutations

    def test_k3_rejects_k4(self):
        with pytest.raises(PromiseViolationError):
            RevealingLCP(k=3).prover.certify(Instance.build(complete_graph(4)))

    def test_k3_yes_no_instances(self):
        lcp = RevealingLCP(k=3)
        assert lcp.is_yes_instance(complete_graph(3))
        assert lcp.is_no_instance(complete_graph(4))
        assert not lcp.is_no_instance(cycle_graph(5))

    def test_lemma32_at_k3(self):
        """The characterization for general k: V(D, 4) for the 3-coloring
        revealing scheme is 3-colorable, and the compiled extraction
        decoder recovers a proper 3-coloring on covered instances."""
        from repro.neighborhood import (
            build_extraction_decoder,
                    run_extraction,
        )

        lcp = RevealingLCP(k=3)
        verdict = decide_hiding(
            lcp, 4, ExecutionPlan(early_exit=False, labeling_limit=5_000)
        )
        assert verdict.hiding is False
        decoder = build_extraction_decoder(verdict.ngraph, 3)
        assert decoder is not None
        for g in [complete_graph(3), cycle_graph(4)]:
            instance = Instance.build(g, id_bound=4)
            labeling = lcp.prover.certify(instance)
            outcome = run_extraction(decoder, lcp, instance.with_labeling(labeling))
            assert outcome.proper
