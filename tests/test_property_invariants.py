"""Hypothesis property tests over the core model invariants.

These are the cross-cutting laws that hold for every scheme, instance,
and labeling — the skeleton the theorem experiments stand on:

* strong soundness implies soundness (Section 2.3's observation);
* the simulator always reproduces the model views;
* prover outputs are always unanimously accepted (completeness);
* accepting sets of the paper's schemes always induce bipartite graphs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DegreeOneLCP, EvenCycleLCP, RevealingLCP, UnionLCP
from repro.graphs import is_bipartite, random_graph
from repro.graphs.properties import bipartition
from repro.graphs.traversal import is_connected
from repro.local import Instance, Labeling, PortAssignment, extract_all_views

from .simulator import simulate_views


def connected_graphs(min_n=2, max_n=8):
    """Strategy: connected random graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        p = draw(st.floats(0.25, 0.9))
        seed = draw(st.integers(0, 10**6))
        g = random_graph(n, p, seed)
        if not is_connected(g):
            # densify deterministically: chain the nodes.
            nodes = g.nodes
            for a, b in zip(nodes, nodes[1:]):
                g.add_edge(a, b)
        return g

    return build()


SCHEMES = [DegreeOneLCP(), EvenCycleLCP(), RevealingLCP(), UnionLCP()]


class TestUniversalInvariants:
    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs(), seed=st.integers(0, 10**6))
    def test_simulator_matches_views_under_random_ports(self, graph, seed):
        ports = PortAssignment.random(graph, seed)
        instance = Instance.build(graph, ports=ports)
        for radius in (1, 2):
            simulated, _ = simulate_views(instance, radius)
            assert simulated == extract_all_views(instance, radius)

    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs(), data=st.data())
    def test_accepting_sets_always_bipartite(self, graph, data):
        """Strong soundness, fuzzed: random labelings over each scheme's
        alphabet never make the accepting set induce an odd cycle."""
        for lcp in SCHEMES:
            alphabet = lcp.certificate_alphabet(graph)
            labels = {
                v: data.draw(st.sampled_from(alphabet), label=f"{lcp.name}:{v!r}")
                for v in graph.nodes
            }
            instance = Instance.build(graph).with_labeling(Labeling(labels))
            accepting = lcp.check(instance).accepting
            assert bipartition(graph.induced_subgraph(accepting)).is_bipartite

    @settings(max_examples=25, deadline=None)
    @given(graph=connected_graphs(), seed=st.integers(0, 10**6))
    def test_prover_certificates_unanimous(self, graph, seed):
        """Completeness, fuzzed over random ports: on yes-instances of
        each scheme's promise class, prover output is always accepted."""
        ports = PortAssignment.random(graph, seed)
        instance = Instance.build(graph, ports=ports)
        for lcp in SCHEMES:
            if not (lcp.promise(graph) and is_bipartite(graph)):
                continue
            for labeling in lcp.prover.all_certifications(instance):
                assert lcp.check(instance.with_labeling(labeling)).unanimous

    @settings(max_examples=20, deadline=None)
    @given(graph=connected_graphs(min_n=3))
    def test_strong_soundness_implies_soundness(self, graph):
        """Section 2.3: if the accepting set always induces a
        yes-instance, then no-instances are never unanimously accepted.
        Checked concretely: on non-bipartite graphs, full acceptance
        would contradict the bipartite-accepting-set invariant."""
        if is_bipartite(graph):
            return
        for lcp in SCHEMES:
            alphabet = lcp.certificate_alphabet(graph)
            labeling = Labeling({v: alphabet[0] for v in graph.nodes})
            instance = Instance.build(graph).with_labeling(labeling)
            result = lcp.check(instance)
            assert not result.unanimous


class TestViewInvariants:
    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs(), radius=st.integers(1, 3))
    def test_view_graph_is_subgraph(self, graph, radius):
        instance = Instance.build(graph)
        views = extract_all_views(instance, radius)
        for v, view in views.items():
            # Every view edge maps back to a graph edge via identifiers.
            id_to_node = {instance.ids.id_of(u): u for u in graph.nodes}
            for a, b in view.edges:
                assert graph.has_edge(id_to_node[view.ids[a]], id_to_node[view.ids[b]])

    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs(), radius=st.integers(1, 2))
    def test_center_degree_exact(self, graph, radius):
        instance = Instance.build(graph)
        for v, view in extract_all_views(instance, radius).items():
            assert view.center_degree == graph.degree(v)

    @settings(max_examples=20, deadline=None)
    @given(graph=connected_graphs())
    def test_anonymization_forgets_exactly_ids(self, graph):
        instance = Instance.build(graph)
        with_ids = extract_all_views(instance, 1, include_ids=True)
        without = extract_all_views(instance, 1, include_ids=False)
        for v in graph.nodes:
            assert with_ids[v].anonymized() == without[v]
