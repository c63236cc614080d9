"""Test oracle: the build-then-decide Lemma 3.2 pipeline.

The engine decides ``k``-colorability incrementally while the builders
discover ``V(D, n)``.  This oracle takes the independent route: build
the complete graph from the Lemma 3.1 yes-instance stream first, then
decide on the finished graph with :func:`classic_verdict` (BFS
bipartition walk for ``k = 2``, exact coloring otherwise).  Parity
suites compare the engine against it.
"""

from __future__ import annotations

from repro.engine import ExecutionPlan, Provenance, Verdict
from repro.neighborhood import build_neighborhood_graph_auto, yes_instances_up_to
from repro.neighborhood.aviews import symmetry_pruning_effective
from repro.neighborhood.hiding import classic_verdict
from repro.perf import overridden
from repro.symmetry import SymmetryAccount

_PLAN = ExecutionPlan()

#: The Lemma 3.1 enumeration bounds of a default plan.
DEFAULT_BOUNDS = {
    "port_limit": _PLAN.port_limit,
    "id_order_types": _PLAN.id_order_types,
    "include_all_accepted_labelings": _PLAN.include_all_accepted_labelings,
    "labeling_limit": _PLAN.labeling_limit,
}


def oracle_verdict(
    lcp, n: int, symmetry: str = "off", workers: int = 0, **bounds
) -> Verdict:
    """Build all of ``V(D, n)`` under *symmetry* (default: brute force),
    then decide; wrapped as an engine :class:`Verdict` (witness = the
    BFS walk) so engine assertions apply.  *bounds* override the default
    plan's enumeration bounds.  Suppressed orbit mates are folded back
    into ``instances_scanned``."""
    pruned = symmetry_pruning_effective(lcp, symmetry)
    account = SymmetryAccount() if pruned else None
    with overridden(symmetry=symmetry):
        ngraph = build_neighborhood_graph_auto(
            lcp,
            yes_instances_up_to(
                lcp,
                n,
                **{**DEFAULT_BOUNDS, **bounds},
                symmetry=symmetry if pruned else "off",
                account=account,
            ),
            workers=workers,
        )
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
            workers=workers,
            early_exit=False,
            instances_scanned=ngraph.instances_scanned,
            views=ngraph.order,
            edges=ngraph.size,
            symmetry_pruned=pruned,
        ),
        legacy=legacy,
    )
