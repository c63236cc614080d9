"""Test oracles: the build-then-decide Lemma 3.2 pipeline and the
edge-subset graph walk.

The engine decides ``k``-colorability incrementally while the builder
discovers ``V(D, n)``.  This oracle takes the independent route: build
the complete graph from the Lemma 3.1 yes-instance stream first, then
decide on the finished graph with :func:`classic_verdict` (BFS
bipartition walk for ``k = 2``, exact coloring otherwise).  Parity
suites compare the engine against it.

Its brute-force side draws graphs from
:func:`~repro.graphs.families.enumerate_graphs_exactly_reference` — every
edge subset, deduplicated by isomorphism — so it stays independent of
orderly generation, which emits the same stream.
"""

from __future__ import annotations

from functools import cache

from repro.engine import ExecutionPlan, Provenance, Verdict
from repro.graphs.families import enumerate_graphs_exactly_reference
from repro.graphs.graph import FrozenGraph
from repro.neighborhood import (
    build_neighborhood_graph,
    labeled_yes_instances,
    yes_instances_up_to,
)
from repro.neighborhood.aviews import symmetry_pruning_effective
from repro.neighborhood.hiding import classic_verdict
from repro.symmetry import SymmetryAccount

_PLAN = ExecutionPlan()

#: The Lemma 3.1 enumeration bounds of a default plan.
DEFAULT_BOUNDS = {
    "port_limit": _PLAN.port_limit,
    "id_order_types": _PLAN.id_order_types,
    "include_all_accepted_labelings": _PLAN.include_all_accepted_labelings,
    "labeling_limit": _PLAN.labeling_limit,
}


@cache
def reference_graphs(n: int, connected_only: bool = True) -> tuple[FrozenGraph, ...]:
    """The edge-subset walk's graphs on exactly *n* nodes, memoized per
    ``(n, connected_only)`` (a few seconds at ``n = 6``)."""
    return tuple(
        FrozenGraph.freeze(g)
        for g in enumerate_graphs_exactly_reference(n, connected_only=connected_only)
    )


def oracle_verdict(lcp, n: int, symmetry: str = "off", **bounds) -> Verdict:
    """Build all of ``V(D, n)`` under *symmetry* (default: brute force
    over the edge-subset walk), then decide; wrapped as an engine
    :class:`Verdict` (witness = the BFS walk) so engine assertions
    apply.  *bounds* override the default plan's enumeration bounds.
    Suppressed orbit mates are folded back into ``instances_scanned``."""
    pruned = symmetry_pruning_effective(lcp, symmetry)
    account = SymmetryAccount() if pruned else None
    bounds = {**DEFAULT_BOUNDS, **bounds}
    if symmetry == "off":
        instances = labeled_yes_instances(
            lcp,
            (g for size in range(1, n + 1) for g in reference_graphs(size)),
            id_bound=n,
            **bounds,
        )
    else:
        instances = yes_instances_up_to(
            lcp,
            n,
            **bounds,
            symmetry=symmetry if pruned else "off",
            account=account,
        )
    ngraph = build_neighborhood_graph(lcp, instances)
    if account is not None:
        ngraph.instances_scanned += account.instances_suppressed
    legacy = classic_verdict(lcp, ngraph, exhaustive=True)
    return Verdict(
        k=legacy.k,
        hiding=legacy.hiding,
        witness=legacy.odd_cycle,
        coloring=legacy.coloring,
        ngraph=ngraph,
        provenance=Provenance(
            backend="oracle",
            n=n,
            workers=0,
            early_exit=False,
            instances_scanned=ngraph.instances_scanned,
            views=ngraph.order,
            edges=ngraph.size,
            symmetry_pruned=pruned,
        ),
        legacy=legacy,
    )
