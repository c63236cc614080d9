"""Tests for the message-passing simulators: exact equivalence with direct
view extraction, message accounting, and fault injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DegreeOneLCP, EvenCycleLCP, RevealingLCP
from repro.experiments import tables
from repro.graphs import (
    caterpillar_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
    spider_graph,
    star_graph,
)
from repro.graphs.traversal import is_connected
from repro.local import Instance, Labeling, extract_all_views, extract_view

from .async_simulator import simulate_views_async
from .simulator import ERASED, SyncSimulator, run_algorithm_distributed, simulate_views

#: Graphs whose views both engines must reconstruct at radius 1..3.
GRAPHS = {
    "P7": lambda: path_graph(7),
    "C9": lambda: cycle_graph(9),
    "grid(3,3)": lambda: grid_graph(3, 3),
    "spider(3,2)": lambda: spider_graph(3, 2),
    "star(4)": lambda: star_graph(4),
    "P8": lambda: path_graph(8),
    "C10": lambda: cycle_graph(10),
    "caterpillar(5)": lambda: caterpillar_graph(5),
    "spider(3,3)": lambda: spider_graph(3, 3),
}


class TestEquivalence:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_simulated_views_equal_direct(self, graph, radius, engine):
        """``radius`` flooding rounds, synchronous or under the
        α-synchronizer, reconstruct exactly the extracted views."""
        instance = Instance.build(GRAPHS[graph]())
        if engine == "sync":
            simulated, _ = simulate_views(instance, radius)
        else:
            simulated, _ = simulate_views_async(instance, radius, seed=radius * 31)
        assert simulated == extract_all_views(instance, radius)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), p=st.floats(0.3, 0.8), seed=st.integers(0, 10**5),
           radius=st.integers(1, 3))
    def test_equivalence_random_graphs(self, n, p, seed, radius):
        g = random_graph(n, p, seed)
        if not is_connected(g):
            return
        instance = Instance.build(g)
        simulated, _ = simulate_views(instance, radius)
        assert simulated == extract_all_views(instance, radius)

    def test_labeled_instance(self):
        g = path_graph(5)
        instance = Instance.build(g, labeling=Labeling({v: f"L{v}" for v in g.nodes}))
        simulated, _ = simulate_views(instance, 2)
        assert simulated == extract_all_views(instance, 2)

    def test_anonymous_views(self):
        instance = Instance.build(cycle_graph(6))
        simulated, _ = simulate_views(instance, 1, include_ids=False)
        assert simulated == extract_all_views(instance, 1, include_ids=False)
        assert all(view.is_anonymous for view in simulated.values())

    @pytest.mark.parametrize("center", range(5))
    def test_invisible_far_edge_in_simulation(self, center):
        """Fig. 2: an edge between two distance-r nodes needs r+1 rounds
        to reach the center — the simulator must NOT show it at round r.
        On C5 at r = 2 every center sees all 5 nodes and 4 of 5 edges."""
        instance = Instance.build(cycle_graph(5))
        simulated, _ = simulate_views(instance, 2)
        view = simulated[center]
        assert view == extract_view(instance, center, 2)
        assert view.size == 5
        assert len(view.edges) == 4


class TestAccounting:
    def test_messages_per_round(self):
        g = cycle_graph(8)
        instance = Instance.build(g)
        _views, stats = simulate_views(instance, 3)
        assert len(stats.rounds) == 3
        # Every round sends one message per directed edge.
        for round_stats in stats.rounds:
            assert round_stats.messages == 2 * g.size

    def test_knowledge_grows(self):
        instance = Instance.build(path_graph(8))
        _views, stats = simulate_views(instance, 3)
        units = [r.record_units for r in stats.rounds]
        assert units[0] < units[1] < units[2]


class TestFaultInjection:
    def test_erased_label_visible_to_neighbors(self):
        lcp = RevealingLCP()
        g = path_graph(5)
        instance = Instance.build(g)
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        views, _ = simulate_views(labeled, 1, include_ids=False, erased_nodes={2})
        assert views[2].center_label == ERASED
        assert ERASED in [
            views[1].label_of(w) for w in views[1].neighbors_in_view(0)
        ]

    @pytest.mark.parametrize("erased_count", [0, 1, 2])
    @pytest.mark.parametrize(
        "lcp, graph",
        [(DegreeOneLCP(), path_graph(8)), (EvenCycleLCP(), cycle_graph(8))],
        ids=["degree-one", "even-cycle"],
    )
    def test_erasure_equals_extraction_of_the_erased_labeling(self, lcp, graph, erased_count):
        """``tbl_resilience`` extracts views of the labeling with the
        erased certificates replaced by its sentinel; that is what the
        erasure fault model floods."""
        instance = Instance.build(graph)
        labeling = lcp.prover.certify(instance)
        erased = set(graph.nodes[:erased_count])
        direct = extract_all_views(
            instance.with_labeling(
                Labeling({
                    v: tables.ERASED if v in erased else labeling.of(v)
                    for v in graph.nodes
                })
            ),
            1,
            include_ids=False,
        )
        simulated, _ = simulate_views(
            instance.with_labeling(labeling), 1, include_ids=False, erased_nodes=erased
        )
        assert simulated == direct

    def test_erasure_trips_decoder(self):
        lcp = EvenCycleLCP()
        g = cycle_graph(6)
        instance = Instance.build(g)
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        views, _ = simulate_views(labeled, 1, include_ids=False, erased_nodes={0})
        votes = {v: lcp.decoder.decide(view) for v, view in views.items()}
        assert not votes[0]
        assert not votes[1] and not votes[5]  # neighbors see the erasure
        assert votes[3]  # far nodes unaffected


class TestRunDistributed:
    def test_matches_direct_run(self):
        lcp = EvenCycleLCP()
        g = cycle_graph(8)
        instance = Instance.build(g)
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        distributed, stats = run_algorithm_distributed(lcp.decoder, labeled)
        assert distributed == lcp.decoder.run_on(labeled)
        assert stats.total_messages == 2 * g.size  # one round

    def test_simulator_object_reusable(self):
        instance = Instance.build(path_graph(6))
        sim = SyncSimulator(instance)
        sim.run(2)
        v1 = sim.reconstruct_view(3, 1)
        v2 = sim.reconstruct_view(3, 2)
        assert v1.size < v2.size
