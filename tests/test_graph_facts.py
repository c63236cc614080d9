"""Graph-scoped facts: what a :class:`FrozenGraph` derives from its
adjacency alone (colorings, decompositions, the shatter prover's plans,
the sweep's port and identifier lists) is computed once per object,
equals a fresh computation, stays read-only, and lives as long as the
family cache keeps the representative."""

from __future__ import annotations

import pytest

from repro.core import RevealingLCP
from repro.core.registry import make_lcp
from repro.core.shatter import shatter_plan
from repro.engine import ExecutionPlan, decide_hiding
from repro.engine.context import RunContext
from repro.graphs.coloring import k_coloring
from repro.graphs.families import all_graphs_exactly, clear_family_cache
from repro.graphs.graph import FrozenGraph
from repro.graphs.properties import bipartition
from repro.graphs.shatter import shatter_points
from repro.graphs.watermelon import watermelon_decomposition
from repro.local import Instance
from repro.neighborhood.aviews import canonical_ids, sweep_ports
from repro.perf import clear_shared_caches

N_MAX = 6
PORT_LIMITS = (1, 8, 64)


def _representatives():
    for n in range(1, N_MAX + 1):
        for bipartite in (True, False):
            yield from all_graphs_exactly(n, mutable=False, bipartite=bipartite)


def _plans(graph):
    if not bipartition(graph).is_bipartite:
        return []  # the prover rejects before it plans
    return [shatter_plan(graph, point) for point in shatter_points(graph)]


def _ports(graph, limit):
    sampled, ports = sweep_ports(graph, limit)
    return sampled, [p._ports for p in ports]


def test_every_fact_equals_a_fresh_computation():
    """Both families up to n = 6: each fact, read twice from the frozen
    representative (fill, then hit), equals the same function on a
    mutable copy, which never memoizes."""
    for graph in _representatives():
        assert isinstance(graph, FrozenGraph)
        fresh = graph.copy()
        for _ in range(2):
            split, fresh_split = bipartition(graph), bipartition(fresh)
            assert split.is_bipartite == fresh_split.is_bipartite
            assert split.coloring == fresh_split.coloring
            if split.odd_cycle is not None:
                assert list(split.odd_cycle) == fresh_split.odd_cycle
            assert graph.edges == fresh.edges
            assert k_coloring(graph, 3) == k_coloring(fresh, 3)
            assert watermelon_decomposition(graph) == watermelon_decomposition(fresh)
            assert shatter_points(graph) == shatter_points(fresh)
            assert _plans(graph) == _plans(fresh)
            for limit in PORT_LIMITS:
                assert _ports(graph, limit) == _ports(fresh, limit)
            assert canonical_ids(graph) == canonical_ids(fresh)


def test_facts_are_computed_once_per_representative():
    graph = next(all_graphs_exactly(5, mutable=False, bipartite=True))
    assert bipartition(graph) is bipartition(graph)
    assert sweep_ports(graph, 64) is sweep_ports(graph, 64)
    assert canonical_ids(graph) is canonical_ids(graph)
    # A mutable graph computes afresh on every call.
    fresh = graph.copy()
    assert bipartition(fresh) is not bipartition(fresh)
    assert canonical_ids(fresh) is not canonical_ids(fresh)


def test_port_limits_below_one_share_the_limit_one_entry():
    graph = next(all_graphs_exactly(4, mutable=False, bipartite=True))
    assert sweep_ports(graph, 0) is sweep_ports(graph, 1)
    assert sweep_ports(graph, -5) is sweep_ports(graph, 1)


def test_cached_facts_are_read_only():
    """No caller can mutate what the next caller reads: colorings are
    read-only mappings, sequences are tuples, and list-returning
    accessors hand out copies."""
    graph = next(
        g for g in all_graphs_exactly(5, mutable=False, bipartite=True) if shatter_points(g)
    )
    coloring = bipartition(graph).coloring
    node = next(iter(coloring))
    with pytest.raises(TypeError):
        coloring[node] = 1 - coloring[node]
    with pytest.raises(TypeError):
        k_coloring(graph, 3)[node] = 2
    plan = next(p for p in _plans(graph) if p is not None)
    with pytest.raises(TypeError):
        plan.component_colorings[0][next(iter(plan.component_colorings[0]))] = 0
    graph.edges.append((0, 0))
    shatter_points(graph).clear()
    assert (0, 0) not in graph.edges
    assert shatter_points(graph)
    assert isinstance(sweep_ports(graph, 64)[1], tuple)


def test_revealing_labeling_does_not_alias_the_cached_coloring():
    graph = next(all_graphs_exactly(4, mutable=False, bipartite=True))
    before = dict(bipartition(graph).coloring)
    instance = Instance.build(graph)
    for labeling in RevealingLCP().prover.all_certifications(instance):
        for v in graph.nodes:
            labeling._labels[v] = "tampered"
    assert dict(bipartition(graph).coloring) == before


def test_clearing_the_family_cache_drops_the_facts():
    clear_family_cache()
    first = list(all_graphs_exactly(4, mutable=False, bipartite=True))
    for graph in first:
        bipartition(graph)
        sweep_ports(graph, 64)
    assert all(graph._facts for graph in first)
    clear_family_cache()
    second = list(all_graphs_exactly(4, mutable=False, bipartite=True))
    assert all(a is not b for a, b in zip(first, second))
    # Emission seeds each regenerated representative's group, and
    # nothing else.
    assert all(set(graph._facts) == {"automorphism_group"} for graph in second)


def test_full_family_adopts_the_bipartite_representatives():
    """The bipartite family is the bipartite subsequence of the full
    one; the full family reuses those objects, so a k >= 3 sweep reads
    the facts a k = 2 sweep derived."""
    clear_family_cache()
    bipartite = list(all_graphs_exactly(5, mutable=False, bipartite=True))
    full = list(all_graphs_exactly(5, mutable=False))
    adopted = [g for g in full if bipartition(g).is_bipartite]
    assert len(adopted) == len(bipartite)
    assert all(a is b for a, b in zip(adopted, bipartite))
    # The other order generates both families and still agrees.
    clear_family_cache()
    full_first = list(all_graphs_exactly(5, mutable=False))
    bipartite_after = list(all_graphs_exactly(5, mutable=False, bipartite=True))
    assert [g.edges for g in full_first if bipartition(g).is_bipartite] == [
        g.edges for g in bipartite_after
    ]


def test_frozen_graph_pickles_without_its_facts():
    import pickle

    graph = next(all_graphs_exactly(4, mutable=False, bipartite=True))
    bipartition(graph)  # a read-only mapping, which cannot be pickled
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph and not clone._facts


def test_a_repeated_sweep_extracts_no_layouts():
    """Port and identifier lists persist with the representative, so the
    identity-keyed layout cache also hits for a second, uncached sweep
    of the same question: fresh port objects would re-extract all 41
    bases."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(early_exit=False, memory_cache=False, disk_cache=False)
    runs = []
    for _ in range(2):
        ctx = RunContext.isolated()
        verdict = decide_hiding(lcp, 5, plan, ctx=ctx)
        runs.append((verdict, ctx.stats.counters.get("layout_misses", 0)))
    (first, _), (second, second_misses) = runs
    assert second_misses == 0
    for verdict in (first, second):
        assert verdict.digest() == "f71bf15c4d39d05737104d20460675ea"
        p = verdict.provenance
        assert (p.views, p.edges, p.instances_scanned) == (133, 448, 664)


def test_anonymous_sweeps_share_layouts_across_n():
    """An anonymous view carries no identifiers, so the id bound (``n``)
    does not key its layouts: ``V(D, 5)`` after ``V(D, 4)``, without the
    warm start, extracts only the bases of the 5-node graphs.  Both
    layout readers of a sweep count on its stats: the builder extracts
    a base first and the unanimity pass re-reads it (4 hits at n = 4,
    8 at n = 5); the other 6 hits at n = 5 are the bases of n = 4."""
    clear_shared_caches()
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(early_exit=False, memory_cache=False, disk_cache=False)
    counts = []
    for n in (4, 5):
        ctx = RunContext.isolated()
        decide_hiding(lcp, n, plan, ctx=ctx)
        counts.append((ctx.stats.get("layout_misses"), ctx.stats.get("layout_hits")))
    (misses4, hits4), (misses5, hits5) = counts
    assert (misses4, hits4) == (6, 4)
    assert (misses5, hits5) == (35, 8 + misses4)
    assert misses4 + misses5 == 41
