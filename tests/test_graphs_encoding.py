"""Tests for the brute-force isomorphism oracle and family enumeration."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.graphs.families import (
    all_graphs_exactly,
    all_graphs_up_to,
    bipartite_graphs_up_to,
    even_cycles_up_to,
    min_degree_one_graphs_up_to,
    non_bipartite_graphs_up_to,
    shatter_graphs_up_to,
    watermelon_graphs_up_to,
)

from .isomorphism import (
    adjacency_matrix,
    are_isomorphic,
    canonical_form,
    find_isomorphism,
    graph_key,
)


class TestCanonicalForm:
    def test_relabeling_invariant(self):
        g = cycle_graph(5)
        h = g.relabeled({0: 3, 1: 4, 2: 0, 3: 1, 4: 2})
        assert canonical_form(g) == canonical_form(h)

    def test_distinguishes_path_from_star(self):
        assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), p=st.floats(0.2, 0.8), seed=st.integers(0, 10**5),
           perm_seed=st.integers(0, 10**5))
    def test_random_relabeling_invariant(self, n, p, seed, perm_seed):
        import random

        g = random_graph(n, p, seed)
        nodes = g.nodes
        shuffled = list(nodes)
        random.Random(perm_seed).shuffle(shuffled)
        h = g.relabeled(dict(zip(nodes, shuffled)))
        assert canonical_form(g) == canonical_form(h)


class TestIsomorphism:
    def test_isomorphic_cycles(self):
        g = cycle_graph(6)
        h = g.relabeled({i: (i * 5) % 6 for i in range(6)})
        assert are_isomorphic(g, h)
        iso = find_isomorphism(g, h)
        assert iso is not None
        for a, b in g.edges:
            assert h.has_edge(iso[a], iso[b])

    def test_non_isomorphic_same_degrees(self):
        # C6 vs two triangles: same degree sequence, different graphs.
        g = cycle_graph(6)
        h = Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not are_isomorphic(g, h)
        assert find_isomorphism(g, h) is None

    def test_matches_networkx(self):
        for seed in range(6):
            g = random_graph(6, 0.5, seed)
            h = random_graph(6, 0.5, seed + 100)
            ng = nx.Graph(g.edges)
            ng.add_nodes_from(g.nodes)
            nh = nx.Graph(h.edges)
            nh.add_nodes_from(h.nodes)
            assert are_isomorphic(g, h) == nx.is_isomorphic(ng, nh)


class TestGraphKey:
    def test_labelled_key_distinguishes(self):
        assert graph_key(path_graph(3)) != graph_key(star_graph(2).relabeled({0: 1, 1: 0, 2: 2}))

    def test_key_stable(self):
        assert graph_key(cycle_graph(4)) == graph_key(cycle_graph(4))


def test_adjacency_matrix():
    m = adjacency_matrix(path_graph(3))
    assert m == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


class TestFamilyCounts:
    """Counts cross-checked against OEIS A001349 (connected graphs)."""

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
    def test_connected_graph_counts(self, n, count):
        assert sum(1 for _ in all_graphs_exactly(n)) == count

    def test_connected_graphs_n6(self):
        assert sum(1 for _ in all_graphs_exactly(6)) == 112

    def test_up_to_accumulates(self):
        assert sum(1 for _ in all_graphs_up_to(4)) == 1 + 1 + 2 + 6

    def test_bipartite_counts(self):
        # Connected bipartite graphs on 1..5 nodes: 1,1,1,3,5  (A005142).
        for n, count in [(1, 1), (2, 2), (3, 3), (4, 6), (5, 11)]:
            assert sum(1 for _ in bipartite_graphs_up_to(n)) == count

    def test_partition_bipartite_plus_nonbipartite(self):
        total = sum(1 for _ in all_graphs_up_to(5))
        bip = sum(1 for _ in bipartite_graphs_up_to(5))
        non = sum(1 for _ in non_bipartite_graphs_up_to(5))
        assert bip + non == total

    def test_even_cycles(self):
        cycles = list(even_cycles_up_to(8))
        assert sorted(c.order for c in cycles) == [4, 6, 8]

    def test_min_degree_one_family(self):
        for g in min_degree_one_graphs_up_to(5):
            assert g.min_degree() == 1

    def test_shatter_family_membership(self):
        from repro.graphs import has_shatter_point

        graphs = list(shatter_graphs_up_to(5))
        assert graphs
        assert all(has_shatter_point(g) for g in graphs)

    def test_watermelon_family_membership(self):
        from repro.graphs import is_watermelon

        graphs = list(watermelon_graphs_up_to(5))
        assert graphs
        assert all(is_watermelon(g) for g in graphs)
