"""Tests for view extraction and canonicalization — the heart of the
model.  Key invariants: canonicalization is isomorphism-invariant,
boundary edges between distance-r nodes are invisible, and anonymized /
order-normalized forms behave as the paper's definitions demand."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError, ViewError
from repro.graphs import cycle_graph, grid_graph, path_graph, random_graph, star_graph
from repro.graphs.traversal import is_connected
from repro.local import (
    IdentifierAssignment,
    Instance,
    Labeling,
    PortAssignment,
    extract_all_views,
    extract_view,
)


class TestExtraction:
    def test_radius1_star_structure(self):
        instance = Instance.build(star_graph(3))
        view = extract_view(instance, 0, 1)
        assert view.size == 4
        assert view.center_degree == 3
        assert view.dist == (0, 1, 1, 1)

    def test_center_is_local_zero(self):
        instance = Instance.build(grid_graph(3, 3))
        for v in instance.graph.nodes:
            view = extract_view(instance, v, 2)
            assert view.dist[0] == 0
            assert view.id_of(0) == instance.ids.id_of(v)

    def test_invisible_far_edge(self):
        instance = Instance.build(cycle_graph(5))
        view = extract_view(instance, 0, 2)
        assert view.size == 5
        assert len(view.edges) == 4  # the (2,3) edge of C5 is invisible

    def test_radius_zero_rejected(self):
        instance = Instance.build(path_graph(2))
        with pytest.raises(ViewError):
            extract_view(instance, 0, 0)

    def test_unknown_center_rejected(self):
        instance = Instance.build(path_graph(2))
        with pytest.raises(NodeNotFoundError):
            extract_view(instance, 7, 1)

    def test_labels_carried(self):
        g = path_graph(3)
        instance = Instance.build(g, labeling=Labeling({0: "a", 1: "b", 2: "c"}))
        view = extract_view(instance, 1, 1)
        assert view.center_label == "b"
        assert sorted(
            view.label_of(w) for w in view.neighbors_in_view(0)
        ) == ["a", "c"]

    def test_unlabeled_instance_gives_none_labels(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 1, 1)
        assert view.center_label is None


class TestCanonicalization:
    def test_same_view_across_isomorphic_positions(self):
        """In C6 with rotation-symmetric ports, all anonymous views match."""
        g = cycle_graph(6)
        ports = PortAssignment(
            {v: {(v + 1) % 6: 1, (v - 1) % 6: 2} for v in range(6)}
        )
        instance = Instance.build(g, ports=ports)
        views = {
            extract_view(instance, v, 1, include_ids=False) for v in g.nodes
        }
        assert len(views) == 1

    def test_port_sensitivity(self):
        """Swapping ports between *distinguishable* neighbors changes the
        view; between indistinguishable leaves it does not (the whole
        point of canonicalization)."""
        g = path_graph(3)
        labels = Labeling({0: "a", 1: "m", 2: "b"})
        ports_a = PortAssignment({0: {1: 1}, 1: {0: 1, 2: 2}, 2: {1: 1}})
        ports_b = PortAssignment({0: {1: 1}, 1: {0: 2, 2: 1}, 2: {1: 1}})
        va = extract_view(
            Instance.build(g, ports=ports_a, labeling=labels), 1, 1, include_ids=False
        )
        vb = extract_view(
            Instance.build(g, ports=ports_b, labeling=labels), 1, 1, include_ids=False
        )
        assert va != vb
        # Without labels the two leaf neighbors are indistinguishable and
        # the canonical views coincide.
        ua = extract_view(Instance.build(g, ports=ports_a), 1, 1, include_ids=False)
        ub = extract_view(Instance.build(g, ports=ports_b), 1, 1, include_ids=False)
        assert ua == ub

    def test_id_relabeling_changes_identified_view_only(self):
        g = path_graph(3)
        ids_a = IdentifierAssignment({0: 1, 1: 2, 2: 3})
        ids_b = IdentifierAssignment({0: 3, 1: 2, 2: 1})
        ia = Instance.build(g, ids=ids_a, id_bound=3)
        ib = Instance.build(g, ids=ids_b, id_bound=3)
        assert extract_view(ia, 1, 1) != extract_view(ib, 1, 1)
        assert extract_view(ia, 1, 1, include_ids=False) == extract_view(
            ib, 1, 1, include_ids=False
        )

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 8), p=st.floats(0.3, 0.8), seed=st.integers(0, 10**5))
    def test_views_hashable_and_stable(self, n, p, seed):
        g = random_graph(n, p, seed)
        if not is_connected(g):
            return
        instance = Instance.build(g)
        for radius in (1, 2):
            views = extract_all_views(instance, radius)
            again = extract_all_views(instance, radius)
            assert views == again
            assert all(hash(v) == hash(again[k]) for k, v in views.items())

    def test_identified_views_unique_per_node(self):
        instance = Instance.build(grid_graph(3, 3))
        views = extract_all_views(instance, 1)
        assert len(set(views.values())) == 9


class TestViewQueries:
    def test_center_neighbors_sorted_by_port(self):
        instance = Instance.build(star_graph(3))
        view = extract_view(instance, 0, 1)
        ports = [own for _w, own, _far in view.center_neighbors()]
        assert ports == sorted(ports)

    def test_neighbor_via_port(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 1, 1)
        w = view.neighbor_via_port(1)
        assert view.port(0, w) == 1
        with pytest.raises(ViewError):
            view.neighbor_via_port(9)

    def test_port_missing_edge(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 0, 1)
        with pytest.raises(ViewError):
            view.port(0, 0)

    def test_degree_in_view_boundary_underestimates(self):
        instance = Instance.build(path_graph(5))
        view = extract_view(instance, 0, 2)
        # node at distance 2 (local index of dist 2) has true degree 2 but
        # only 1 visible edge.
        boundary = [x for x in view.nodes() if view.dist[x] == 2][0]
        assert view.degree_in_view(boundary) == 1

    def test_to_graph(self):
        instance = Instance.build(cycle_graph(6))
        view = extract_view(instance, 0, 2)
        g = view.to_graph()
        assert g.order == view.size
        assert g.size == len(view.edges)


class TestDerivedViews:
    def test_anonymized(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 1, 1)
        anon = view.anonymized()
        assert anon.is_anonymous
        with pytest.raises(ViewError):
            anon.id_of(0)

    def test_order_normalized(self):
        g = path_graph(3)
        ids = IdentifierAssignment({0: 10, 1: 99, 2: 5})
        instance = Instance.build(g, ids=ids, id_bound=99)
        view = extract_view(instance, 1, 1)
        normalized = view.order_normalized()
        assert set(normalized.ids) == {1, 2, 3}
        # Order preserved: 99 was the largest -> center rank 3.
        assert normalized.ids[0] == 3

    def test_order_normalized_anonymous_raises(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 1, 1, include_ids=False)
        with pytest.raises(ViewError):
            view.order_normalized()

    def test_structure_key_ignores_id_values(self):
        g = path_graph(3)
        ia = Instance.build(g, ids=IdentifierAssignment({0: 1, 1: 2, 2: 3}), id_bound=9)
        ib = Instance.build(g, ids=IdentifierAssignment({0: 4, 1: 6, 2: 8}), id_bound=9)
        va = extract_view(ia, 1, 1)
        vb = extract_view(ib, 1, 1)
        assert va.structure_key() == vb.structure_key()

    def test_subview_radius1_matches_direct(self):
        instance = Instance.build(grid_graph(3, 3))
        big = extract_view(instance, 4, 2)
        # Inner node: local name of a distance-1 node.
        inner = [x for x in big.nodes() if big.dist[x] == 1][0]
        sub = big.subview_radius1(inner)
        assert sub.radius == 1
        assert sub.dist[0] == 0

    def test_subview_radius1_boundary_raises(self):
        instance = Instance.build(path_graph(5))
        view = extract_view(instance, 0, 2)
        boundary = [x for x in view.nodes() if view.dist[x] == 2][0]
        with pytest.raises(ViewError):
            view.subview_radius1(boundary)

    def test_with_relabeled_ids(self):
        instance = Instance.build(path_graph(3))
        view = extract_view(instance, 1, 1)
        moved = view.with_relabeled_ids({1: 11, 2: 12, 3: 13})
        assert moved.ids == tuple(i + 10 for i in view.ids)
        with pytest.raises(ViewError):
            view.with_relabeled_ids({1: 2})  # collides with existing id 2
