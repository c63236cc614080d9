"""Tests for port assignments, identifier assignments, and labelings."""

import pytest

from repro.errors import (
    IdentifierAssignmentError,
    LabelingError,
    PortAssignmentError,
)
from repro.graphs import Graph, cycle_graph, path_graph, star_graph
from repro.local import (
    IdentifierAssignment,
    Instance,
    Labeling,
    PortAssignment,
    all_identifier_assignments,
    all_labelings,
    all_order_types,
    all_port_assignments,
    count_labelings,
    count_port_assignments,
    same_order_type,
)


class TestPortAssignment:
    def test_canonical_valid(self):
        g = star_graph(3)
        ports = PortAssignment.canonical(g)
        ports.validate(g)
        assert ports.port(0, 1) in (1, 2, 3)
        assert sorted(ports.ports_of(0).values()) == [1, 2, 3]

    def test_neighbor_at_roundtrip(self):
        g = cycle_graph(5)
        ports = PortAssignment.canonical(g)
        for v in g.nodes:
            for u in g.neighbors(v):
                assert ports.neighbor_at(v, ports.port(v, u)) == u

    def test_edge_ports(self):
        g = path_graph(3)
        ports = PortAssignment.canonical(g)
        p_u, p_v = ports.edge_ports(0, 1)
        assert p_u == ports.port(0, 1) and p_v == ports.port(1, 0)

    def test_duplicate_port_rejected(self):
        with pytest.raises(PortAssignmentError):
            PortAssignment({0: {1: 1, 2: 1}, 1: {0: 1}, 2: {0: 1}})

    def test_duplicate_port_message_names_both_neighbors(self):
        with pytest.raises(
            PortAssignmentError, match=r"^node 0 uses port 2 for both 1 and 3$"
        ):
            PortAssignment({0: {1: 2, 2: 1, 3: 2}, 1: {0: 1}, 2: {0: 1}, 3: {0: 1}})
        with pytest.raises(
            PortAssignmentError, match=r"^node 'b' uses port 1 for both 'a' and 'c'$"
        ):
            PortAssignment({"a": {"b": 1}, "b": {"a": 1, "c": 1}, "c": {"b": 1}})

    def test_reverse_map_is_built_on_first_lookup(self):
        g = star_graph(3)
        ports = PortAssignment.canonical(g)
        assert ports._by_port is None
        assert ports.neighbor_at(0, ports.port(0, 2)) == 2
        assert ports._by_port is not None
        with pytest.raises(PortAssignmentError, match="node 0 has no port 4"):
            ports.neighbor_at(0, 4)
        with pytest.raises(PortAssignmentError, match="node 9 has no port 1"):
            ports.neighbor_at(9, 1)

    def test_validate_out_of_range(self):
        g = path_graph(2)
        ports = PortAssignment({0: {1: 2}, 1: {0: 1}})
        with pytest.raises(PortAssignmentError):
            ports.validate(g)

    def test_validate_coverage(self):
        g = path_graph(3)
        ports = PortAssignment({0: {1: 1}, 1: {0: 1}, 2: {}})
        with pytest.raises(PortAssignmentError):
            ports.validate(g)

    def test_loops_rejected(self):
        g = Graph.from_edges([(0, 0)])
        with pytest.raises(PortAssignmentError):
            PortAssignment.canonical(g).validate(g)

    def test_random_deterministic(self):
        g = cycle_graph(6)
        assert PortAssignment.random(g, 3) == PortAssignment.random(g, 3)

    def test_enumeration_count(self):
        g = path_graph(4)  # degrees 1,2,2,1 -> 1!*2!*2!*1! = 4
        assert count_port_assignments(g) == 4
        assignments = list(all_port_assignments(g))
        assert len(assignments) == 4
        assert len({repr(sorted((repr(v), tuple(sorted(a.ports_of(v).items(), key=repr))) for v in g.nodes)) for a in assignments}) == 4

    def test_relabeled(self):
        g = path_graph(2)
        ports = PortAssignment.canonical(g)
        moved = ports.relabeled({0: "a", 1: "b"})
        assert moved.port("a", "b") == 1


class TestIdentifierAssignment:
    def test_canonical(self):
        g = path_graph(3)
        ids = IdentifierAssignment.canonical(g)
        assert [ids.id_of(v) for v in g.nodes] == [1, 2, 3]
        assert ids.node_of(2) == 1

    def test_injectivity_enforced(self):
        with pytest.raises(IdentifierAssignmentError):
            IdentifierAssignment({0: 1, 1: 1})

    def test_positive_ids_enforced(self):
        with pytest.raises(IdentifierAssignmentError):
            IdentifierAssignment({0: 0})

    def test_validate_bound(self):
        g = path_graph(2)
        ids = IdentifierAssignment({0: 1, 1: 9})
        with pytest.raises(IdentifierAssignmentError):
            ids.validate(g, 8)
        ids.validate(g, 9)

    def test_validate_coverage(self):
        g = path_graph(3)
        with pytest.raises(IdentifierAssignmentError):
            IdentifierAssignment({0: 1, 1: 2}).validate(g, 10)

    def test_random_within_bound(self):
        g = cycle_graph(5)
        ids = IdentifierAssignment.random(g, 50, seed=4)
        ids.validate(g, 50)

    def test_random_space_too_small(self):
        with pytest.raises(IdentifierAssignmentError):
            IdentifierAssignment.random(path_graph(3), 2, seed=0)

    def test_order_rank(self):
        ids = IdentifierAssignment({0: 10, 1: 3, 2: 7})
        assert ids.order_rank(1) == 0
        assert ids.order_rank(2) == 1
        assert ids.order_rank(0) == 2

    def test_all_assignments_count(self):
        g = path_graph(2)
        # choose 2 ids from [3], ordered: 3*2 = 6.
        assert len(list(all_identifier_assignments(g, 3))) == 6

    def test_order_types_count(self):
        g = path_graph(3)
        assert len(list(all_order_types(g))) == 6

    def test_same_order_type(self):
        g = path_graph(3)
        a = IdentifierAssignment({0: 1, 1: 5, 2: 9})
        b = IdentifierAssignment({0: 2, 1: 4, 2: 8})
        c = IdentifierAssignment({0: 9, 1: 5, 2: 1})
        assert same_order_type(a, b, g.nodes)
        assert not same_order_type(a, c, g.nodes)


class TestLabeling:
    def test_of_and_get(self):
        lab = Labeling({0: "x"})
        assert lab.of(0) == "x"
        assert lab.get(1, "d") == "d"
        with pytest.raises(LabelingError):
            lab.of(1)

    def test_validate(self):
        g = path_graph(3)
        with pytest.raises(LabelingError):
            Labeling({0: "a"}).validate(g)
        Labeling.uniform(g, "c").validate(g)

    def test_validate_names_missing_nodes_sorted_by_repr(self):
        g = Graph(nodes=[10, 2, "b"])
        message = "nodes without labels: [\"'b'\", '10']"
        with pytest.raises(LabelingError) as caught:
            Labeling({2: "x", "extra": "y"}).validate(g)
        assert str(caught.value) == message
        with pytest.raises(LabelingError) as caught:
            Instance.build(g).with_labeling(Labeling({2: "x"}))
        assert str(caught.value) == message

    def test_with_label_copy(self):
        lab = Labeling({0: "a"})
        lab2 = lab.with_label(0, "b")
        assert lab.of(0) == "a" and lab2.of(0) == "b"

    def test_all_labelings_count(self):
        g = path_graph(3)
        assert count_labelings(g, 2) == 8
        assert len(list(all_labelings(g, ["x", "y"]))) == 8

    def test_relabeled(self):
        lab = Labeling({0: "a", 1: "b"})
        moved = lab.relabeled({0: 1, 1: 0})
        assert moved.of(1) == "a"
