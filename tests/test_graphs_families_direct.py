"""Directly built graph families stand in for orderly generation.

A :data:`~repro.graphs.families.GRAPH_FAMILIES` entry with a direct
generator must yield exactly what the filtered orderly stream yields:
the same labeled graphs, in the same order, with the same automorphism
groups.  The Lemma 3.1 sweep of a scheme whose promise class is such a
family (:func:`repro.neighborhood.aviews.graph_source`) then keeps its
instance stream, digests and warm-start behavior while generating
nothing.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.certification.lcp import parametrized, promise_family
from repro.core.registry import make_lcp, scheme_names
from repro.engine import ExecutionPlan, RunContext, decide_hiding
from repro.graphs.families import (
    GRAPH_FAMILIES,
    _edge_mask,
    all_graphs_exactly,
    all_graphs_up_to,
    clear_family_cache,
    cycle_edges,
    graph_family_predicate,
    warm_graph_families,
    watermelon_family_up_to,
    watermelon_graphs_up_to,
)
from repro.graphs.watermelon import is_watermelon
from repro.neighborhood.aviews import (
    graph_source,
    labeled_yes_instances,
    yes_instances_up_to,
)
from repro.perf.stats import GLOBAL_STATS
from repro.symmetry.canon import min_edge_mask
from repro.symmetry.groups import automorphism_group

from .isomorphism import are_isomorphic

DIRECT = [name for name, family in GRAPH_FAMILIES.items() if family.direct is not None]

#: The decision digest of even-cycle's full V(D, n) for every n >= 4.
EVEN_CYCLE_DIGEST = "17988d03caac585774abe3831d0eb79d"


def _labeled(graphs) -> list[tuple[tuple, frozenset]]:
    """``(edges, automorphism group as a set)`` per graph."""
    return [
        (tuple(g.edges), frozenset(automorphism_group(g).perms)) for g in graphs
    ]


def test_the_direct_families():
    assert DIRECT == ["cycles", "even-cycles", "watermelons"]


@pytest.fixture(autouse=True, scope="module")
def _drop_generated():
    yield
    _generated.cache_clear()


@lru_cache(maxsize=None)
def _generated(n: int, bipartite: bool) -> tuple:
    """``(graph, (edges, group))`` for the orderly stream on *n* nodes,
    emitted cold, each group the one generation seeded."""
    clear_family_cache()
    graphs = list(all_graphs_exactly(n, mutable=False, bipartite=bipartite))
    return tuple(zip(graphs, _labeled(graphs)))


# Full level 9 takes seconds; at n = 9 the bipartite stream (the one
# every k = 2 sweep reads) is compared.
@pytest.mark.parametrize(
    "n, bipartite", [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 10)]
)
@pytest.mark.parametrize("name", DIRECT)
def test_direct_stream_equals_the_filtered_orderly_stream(name, n, bipartite):
    predicate = graph_family_predicate(name)
    generated = [labeled for g, labeled in _generated(n, bipartite) if predicate(g)]
    clear_family_cache()
    direct = _labeled(
        all_graphs_exactly(n, mutable=False, bipartite=bipartite, family=name)
    )
    assert direct == generated


@pytest.mark.parametrize("m", range(3, 12))
def test_closed_form_cycle_labeling_is_the_minimal_edge_mask(m):
    adj = [0] * m
    for i in range(m):
        j = (i + 1) % m
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    mask, _ = min_edge_mask(adj, m, first_candidates=(0,))
    assert _edge_mask(cycle_edges(m), m) == mask


def test_direct_family_is_cached_and_counts_no_canonical_form():
    clear_family_cache()
    before = GLOBAL_STATS.get("canonicalizations")
    first = list(all_graphs_up_to(12, mutable=False, bipartite=True, family="even-cycles"))
    assert [g.order for g in first] == [4, 6, 8, 10, 12]
    assert GLOBAL_STATS.get("canonicalizations") == before
    again = list(all_graphs_up_to(12, mutable=False, bipartite=True, family="even-cycles"))
    assert all(a is b for a, b in zip(first, again))
    assert warm_graph_families(0, 12, bipartite=True, family="even-cycles") == 0


def test_direct_family_adopts_generated_objects():
    clear_family_cache()
    generated = [
        g for g in all_graphs_exactly(6, mutable=False, bipartite=True) if g.size == 6
    ]
    (cycle,) = all_graphs_exactly(6, mutable=False, bipartite=True, family="cycles")
    assert any(cycle is g for g in generated)


def test_direct_family_is_connected_only():
    with pytest.raises(ValueError, match="connected"):
        list(all_graphs_exactly(5, connected_only=False, family="cycles"))


@pytest.mark.parametrize(
    "scheme", [s for s in scheme_names() if promise_family(make_lcp(s)) is not None]
)
def test_promise_equals_the_named_family(scheme):
    lcp = make_lcp(scheme)
    predicate = graph_family_predicate(promise_family(lcp))
    for g in all_graphs_up_to(8, mutable=False):
        assert lcp.promise(g) is bool(predicate(g)), (scheme, g.edges)


def test_promise_families_of_the_registry():
    named = {scheme: promise_family(make_lcp(scheme)) for scheme in scheme_names()}
    assert named == {
        "revealing": None,
        "degree-one": "min-degree-one",
        "even-cycle": "even-cycles",
        "union": None,
        "shatter": "shatter",
        "watermelon": "watermelons",
        "universal": None,
    }
    sources = {scheme: graph_source(make_lcp(scheme))["family"] for scheme in named}
    assert sources == {
        scheme: family if family in DIRECT else None for scheme, family in named.items()
    }


def test_parametrized_schemes_keep_the_promise_family():
    assert graph_source(parametrized(make_lcp("even-cycle"), k=3)) == {
        "bipartite": False,
        "family": "even-cycles",
    }
    assert graph_source(parametrized(make_lcp("watermelon"), radius=2))["family"] == (
        "watermelons"
    )


def test_campaign_family_supplies_the_source_when_the_promise_does_not():
    assert graph_source(make_lcp("union"), "cycles")["family"] == "cycles"
    assert graph_source(make_lcp("union"), "trees")["family"] is None
    assert graph_source(make_lcp("even-cycle"), "cycles")["family"] == "even-cycles"


def test_redefined_subclass_keeps_the_orderly_source():
    base = type(make_lcp("even-cycle"))

    class RedefinedYes(base):
        def is_yes_instance(self, graph):
            return True

    class RedefinedPromise(base):
        def promise(self, graph):
            return graph.order % 2 == 0

    class Renamed(base):
        promise_family = "cycles"

        def promise(self, graph):
            return graph.order >= 3 and graph.size == graph.order

    assert graph_source(RedefinedYes())["family"] is None
    assert graph_source(RedefinedPromise())["family"] is None
    assert graph_source(parametrized(RedefinedPromise(), k=3))["family"] is None
    assert graph_source(Renamed())["family"] == "cycles"


@pytest.mark.parametrize("scheme", ["even-cycle", "watermelon"])
def test_sweep_stream_equals_the_generated_stream(scheme):
    lcp = make_lcp(scheme)
    direct = list(yes_instances_up_to(lcp, 7))
    generated = list(
        labeled_yes_instances(
            lcp,
            all_graphs_up_to(7, mutable=False, bipartite=True),
            id_bound=7,
            include_all_accepted_labelings=True,
        )
    )
    assert direct
    assert direct == generated


def test_even_cycle_sweeps_generate_nothing_cold_or_warm():
    plan = ExecutionPlan(backend="streaming", early_exit=False, disk_cache=False)
    warm_ctx = RunContext.isolated()
    before = GLOBAL_STATS.get("canonicalizations")
    for n in range(4, 13):
        cold = decide_hiding(make_lcp("even-cycle"), n, plan, ctx=RunContext.isolated())
        warm = decide_hiding(make_lcp("even-cycle"), n, plan, ctx=warm_ctx)
        assert not cold.provenance.warm_started
        assert warm.provenance.warm_started is (n > 4)
        assert cold.hiding is warm.hiding is True
        assert cold.digest() == warm.digest() == EVEN_CYCLE_DIGEST
    assert GLOBAL_STATS.get("canonicalizations") == before


def test_direct_family_matches_filtered_enumeration():
    direct = [tuple(g.edges) for g in all_graphs_up_to(6, family="watermelons")]
    filtered = [tuple(g.edges) for g in watermelon_graphs_up_to(6)]
    assert direct
    assert direct == filtered


def test_direct_family_members_are_watermelons():
    graphs = list(watermelon_family_up_to(8))
    assert graphs
    assert all(is_watermelon(g) for g in graphs)
    # No isomorphic duplicates.
    for i, g in enumerate(graphs):
        assert not any(are_isomorphic(g, h) for h in graphs[i + 1 :])
