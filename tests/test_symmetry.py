"""Unit tests for the symmetry layer: orderly generation, automorphism
groups, frozen family caches, and the canonical-form plumbing they share.

The load-bearing claim of :mod:`repro.symmetry` is *exactness*: the
orderly generator must emit the same representative stream as the
edge-subset walk of the test oracle (so every cache and provenance count
downstream is unchanged), and the automorphism groups it seeds must be the true groups
(so orbit pruning never merges labelings that are not actually
equivalent).  These tests pin both against brute-force oracles.
"""

from __future__ import annotations

import pickle

import pytest

from repro.graphs.families import (
    all_graphs_exactly,
    clear_family_cache,
    warm_graph_families,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import FrozenGraph, Graph, GraphError
from repro.graphs.properties import is_bipartite
from repro.perf.stats import GLOBAL_STATS
from repro.symmetry import (
    automorphism_group,
    clear_orderly_cache,
    count_classes,
    orderly_graphs_exactly,
    seed_automorphisms,
)

from .isomorphism import are_isomorphic
from .oracle import reference_graphs

# OEIS A000088 (graphs on n nodes) and A001349 (connected graphs).
ALL_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]
CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853]
# OEIS A033995 (bipartite graphs on n nodes) and A005142 (connected
# bipartite graphs), n = 1..8.
BIPARTITE_COUNTS = [1, 2, 3, 7, 13, 35, 88, 303]
CONNECTED_BIPARTITE_COUNTS = [1, 1, 1, 3, 5, 17, 44, 182]


# ---------------------------------------------------------------------------
# Orderly generation
# ---------------------------------------------------------------------------


class TestOrderlyGeneration:
    def test_class_counts_match_known_sequences(self):
        clear_orderly_cache()
        for n in range(1, 8):
            assert count_classes(n, connected_only=False) == ALL_COUNTS[n]
            assert count_classes(n, connected_only=True) == CONNECTED_COUNTS[n]

    def test_bipartite_class_counts_match_known_sequences(self):
        clear_orderly_cache()
        for n in range(1, 9):
            assert count_classes(n, bipartite=True) == BIPARTITE_COUNTS[n - 1]
            assert (
                count_classes(n, connected_only=True, bipartite=True)
                == CONNECTED_BIPARTITE_COUNTS[n - 1]
            )

    @pytest.mark.parametrize("connected_only", [True, False])
    def test_bipartite_stream_is_the_bipartite_subsequence(self, connected_only):
        # Pruned orderly tree, the reference walk filtered afterwards,
        # and the full orderly stream filtered afterwards: one stream,
        # byte for byte (seeded automorphism groups included).
        for n in range(1, 7):
            full = [
                (tuple(g.edges), automorphism_group(g).perms)
                for g in orderly_graphs_exactly(n, connected_only)
                if is_bipartite(g)
            ]
            pruned = [
                (tuple(g.edges), automorphism_group(g).perms)
                for g in orderly_graphs_exactly(n, connected_only, bipartite=True)
            ]
            assert pruned == full
            legacy = [
                tuple(g.edges)
                for g in reference_graphs(n, connected_only)
                if is_bipartite(g)
            ]
            assert legacy == [edges for edges, _ in full]

    @pytest.mark.parametrize("connected_only", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_oracle_up_to_isomorphism(self, n, connected_only):
        orderly = list(orderly_graphs_exactly(n, connected_only=connected_only))
        reference = reference_graphs(n, connected_only)
        assert len(orderly) == len(reference)
        # One representative per class, and the classes are the same.
        for g in orderly:
            assert sum(1 for h in reference if are_isomorphic(g, h)) == 1
        for i, g in enumerate(orderly):
            assert not any(are_isomorphic(g, h) for h in orderly[i + 1 :])

    @pytest.mark.parametrize("connected_only", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_emission_stream_identical_to_legacy(self, n, connected_only):
        # Not just the same classes: the same representatives, in the
        # same order, with the same node names — downstream caches key
        # on the labelled stream, so it must be byte-identical.
        orderly = [
            (tuple(g.nodes), tuple(g.edges))
            for g in orderly_graphs_exactly(n, connected_only=connected_only)
        ]
        legacy = [
            (tuple(g.nodes), tuple(g.edges))
            for g in reference_graphs(n, connected_only)
        ]
        assert orderly == legacy

    def test_emission_stream_identical_to_legacy_n6_connected(self):
        orderly = [tuple(g.edges) for g in orderly_graphs_exactly(6)]
        legacy = [tuple(g.edges) for g in reference_graphs(6, True)]
        assert orderly == legacy


# ---------------------------------------------------------------------------
# Seeded groups: every representative generation hands out
# ---------------------------------------------------------------------------


def _assert_seeded_groups_are_true(graphs) -> int:
    """Each graph is frozen and its group fact, set where it was built,
    equals (as a set) a fresh computation on a mutable copy."""
    count = 0
    for g in graphs:
        assert isinstance(g, FrozenGraph)
        assert "automorphism_group" in g._facts
        fresh = automorphism_group(g.copy())
        assert set(automorphism_group(g).perms) == set(fresh.perms)
        count += 1
    return count


@pytest.mark.parametrize(
    "n, bipartite",
    [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 10)],
)
def test_generator_seeds_true_automorphism_groups(n, bipartite):
    """The groups seeded at emission equal the groups computed from
    scratch, for every emitted class, connected or not: all graphs up to
    8 nodes, bipartite ones up to 9."""
    count = (BIPARTITE_COUNTS + [1119])[n - 1] if bipartite else (ALL_COUNTS + [12346])[n]
    emitted = orderly_graphs_exactly(n, connected_only=False, bipartite=bipartite)
    assert _assert_seeded_groups_are_true(emitted) == count


@pytest.mark.parametrize("family", ["cycles", "even-cycles", "watermelons"])
def test_direct_family_groups_equal_fresh_computations(family):
    """Direct members are built cold (no orderly family to adopt from)."""
    clear_family_cache()
    members = [
        g for n in range(1, 10) for g in all_graphs_exactly(n, mutable=False, family=family)
    ]
    assert _assert_seeded_groups_are_true(members) == len(members) > 0
    clear_family_cache()


# ---------------------------------------------------------------------------
# Automorphism groups and orbits
# ---------------------------------------------------------------------------


class TestAutomorphismGroups:
    @pytest.mark.parametrize(
        "graph, order",
        [
            (path_graph(2), 2),
            (path_graph(4), 2),  # reversal only
            (cycle_graph(4), 8),  # dihedral D4
            (cycle_graph(5), 10),  # dihedral D5
            (cycle_graph(6), 12),  # dihedral D6
            (star_graph(4), 24),  # S4 on the leaves
            (complete_graph(4), 24),  # S4
            (complete_graph(5), 120),  # S5
        ],
    )
    def test_group_orders(self, graph, order):
        group = automorphism_group(graph)
        assert group.order == order
        # Every permutation really is an automorphism.
        nodes = tuple(graph.nodes)
        index = {v: i for i, v in enumerate(nodes)}
        edges = {frozenset((index[u], index[v])) for u, v in graph.edges}
        for perm in group.perms:
            assert {frozenset((perm[a], perm[b])) for e in edges for a, b in [tuple(e)]} == edges

    def test_path_orbits_pair_mirror_nodes(self):
        group = automorphism_group(path_graph(4))
        # 0-1-2-3: reversal pairs {0,3} and {1,2}.
        assert {frozenset(o) for o in group.orbits()} == {
            frozenset({0, 3}),
            frozenset({1, 2}),
        }

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cycle_orbits_are_transitive(self, n):
        group = automorphism_group(cycle_graph(n))
        assert len(group.orbits()) == 1
        assert len(group.orbits()[0]) == n

    def test_star_orbits_split_hub_from_leaves(self):
        group = automorphism_group(star_graph(4))
        orbits = {frozenset(o) for o in group.orbits()}
        hub = frozenset({0})
        leaves = frozenset({1, 2, 3, 4})
        assert orbits == {hub, leaves}

    def test_complete_graph_is_node_transitive(self):
        group = automorphism_group(complete_graph(5))
        assert group.orbits() == ((0, 1, 2, 3, 4),)
        assert not group.is_trivial

    def test_asymmetric_graph_has_trivial_group(self):
        # Smallest asymmetric graphs have 6 nodes; this is one of them.
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (2, 5), (3, 5)])
        group = automorphism_group(g)
        assert group.is_trivial
        assert group.order == 1

    def test_seed_automorphisms_short_circuits_recomputation(self):
        fake = ((0, 1, 2, 3),)  # deliberately wrong: identity only
        frozen = FrozenGraph.freeze(cycle_graph(4))
        computed = GLOBAL_STATS.get("automorphism_groups")
        seed_automorphisms(frozen, fake)
        assert automorphism_group(frozen).perms == fake
        assert GLOBAL_STATS.get("automorphism_groups") == computed
        # A mutable graph keeps no facts: the seed is dropped and every
        # call recomputes.
        mutable = cycle_graph(4)
        seed_automorphisms(mutable, fake)
        assert automorphism_group(mutable).order == 8
        assert automorphism_group(mutable).order == 8
        assert GLOBAL_STATS.get("automorphism_groups") == computed + 2


# ---------------------------------------------------------------------------
# FrozenGraph and the family cache fast path
# ---------------------------------------------------------------------------


class TestFrozenFamilies:
    def test_frozen_graph_mutators_raise(self):
        frozen = FrozenGraph(range(3), [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            frozen.add_node(3)
        with pytest.raises(GraphError):
            frozen.add_edge(0, 2)
        with pytest.raises(GraphError):
            frozen.remove_edge(0, 1)
        with pytest.raises(GraphError):
            frozen.remove_node(0)

    def test_frozen_graph_copy_is_mutable(self):
        frozen = FrozenGraph.freeze(path_graph(3))
        thawed = frozen.copy()
        assert type(thawed) is Graph
        thawed.add_edge(0, 2)
        assert (0, 2) in {tuple(sorted(e)) for e in thawed.edges}
        assert (0, 2) not in {tuple(sorted(e)) for e in frozen.edges}

    def test_frozen_graph_pickle_roundtrip(self):
        frozen = FrozenGraph.freeze(cycle_graph(5))
        clone = pickle.loads(pickle.dumps(frozen))
        assert isinstance(clone, FrozenGraph)
        assert tuple(clone.nodes) == tuple(frozen.nodes)
        assert clone.edges == frozen.edges
        with pytest.raises(GraphError):
            clone.add_edge(0, 2)

    def test_immutable_fast_path_shares_representatives(self):
        clear_family_cache()
        first = list(all_graphs_exactly(4, mutable=False))
        second = list(all_graphs_exactly(4, mutable=False))
        assert all(a is b for a, b in zip(first, second))
        assert all(isinstance(g, FrozenGraph) for g in first)

    def test_mutable_path_returns_defensive_copies(self):
        clear_family_cache()
        first = list(all_graphs_exactly(4, mutable=True))
        second = list(all_graphs_exactly(4, mutable=True))
        assert all(a is not b for a, b in zip(first, second))
        assert all(type(g) is Graph for g in first)
        # Same content either way.
        frozen = list(all_graphs_exactly(4, mutable=False))
        assert [g.edges for g in first] == [g.edges for g in frozen]

    def test_warmed_families_are_served_from_the_cache(self):
        clear_family_cache()
        warmed = warm_graph_families(0, 4) + warm_graph_families(0, 4, bipartite=True)
        assert warmed == 8
        assert warm_graph_families(0, 4) == 0  # every size already cached
        for bipartite in (False, True):
            first = tuple(all_graphs_exactly(4, mutable=False, bipartite=bipartite))
            again = tuple(all_graphs_exactly(4, mutable=False, bipartite=bipartite))
            assert first and all(a is b for a, b in zip(first, again))

    @pytest.mark.parametrize("connected_only", [True, False])
    def test_family_stream_is_generator_independent(self, connected_only):
        """Generation is orderly whatever the scheme: a rebuilt family
        emits the edge-subset walk's stream, disconnected graphs too."""
        clear_family_cache()
        stream = [g.edges for g in all_graphs_exactly(5, connected_only)]
        clear_family_cache()
        assert [g.edges for g in all_graphs_exactly(5, connected_only)] == stream
        assert stream == [g.edges for g in reference_graphs(5, connected_only)]
