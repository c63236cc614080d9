"""The hiding characterization (Lemma 3.2) as executable checks.

``D`` hides a ``k``-coloring iff ``V(D, n)`` is not ``k``-colorable for
some ``n``.  Both directions are runnable:

* **hiding witness** — an odd closed walk (for ``k = 2``) or a
  non-``k``-colorability certificate of the (sub-)neighborhood graph;
* **non-hiding witness** — a proper ``k``-coloring of the full
  ``V(D, n)``, compiled into an extraction decoder
  (:mod:`repro.neighborhood.extraction`) that recovers a coloring on any
  unanimously accepted instance.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..certification.lcp import LCP
from ..graphs.graph import Graph
from ..local.instance import Instance
from ..local.views import View
from .aviews import labeled_yes_instances
from .ngraph import NeighborhoodGraph, build_neighborhood_graph

@dataclass(frozen=True)
class HidingVerdict:
    """Outcome of a hiding check.

    *hiding* is ``True`` when a non-``k``-colorability witness exists in
    the scanned portion of ``V(D, n)`` (sound regardless of coverage),
    ``False`` when the scan was the full Lemma 3.1 enumeration and the
    graph is ``k``-colorable, and ``None`` when a partial scan found no
    witness (inconclusive).
    """

    k: int
    hiding: bool | None
    ngraph: NeighborhoodGraph
    odd_cycle: tuple[View, ...] | None = None
    coloring: dict[int, int] | None = None

    def summary(self) -> str:
        return verdict_summary(self.k, self.hiding, self.odd_cycle)


def verdict_summary(k: int, hiding: bool | None, walk) -> str:
    """One line stating a hiding verdict; *walk* is the odd closed walk
    of a ``k = 2`` hiding verdict (or ``None``)."""
    if hiding:
        witness = (
            f"odd closed walk of {len(walk) - 1} views"
            if walk
            else "non-k-colorable neighborhood graph"
        )
        return f"hiding (k={k}): YES — {witness}"
    if hiding is False:
        return f"hiding (k={k}): NO — V(D, n) is {k}-colorable"
    return f"hiding (k={k}): inconclusive on partial scan"


def hiding_verdict_from_instances(
    lcp: LCP, labeled: Iterable[Instance], exhaustive: bool = False
) -> HidingVerdict:
    """Check hiding over the neighborhood subgraph spanned by *labeled*."""
    ngraph = build_neighborhood_graph(lcp, labeled)
    return classic_verdict(lcp, ngraph, exhaustive=exhaustive)


def hiding_verdict_on_witnesses(
    lcp: LCP, graphs: Iterable[Graph], id_bound: int, port_limit: int = 16
) -> HidingVerdict:
    """Check hiding over prover-labeled instances of chosen graphs."""
    labeled = labeled_yes_instances(
        lcp, graphs, port_limit=port_limit, id_bound=id_bound
    )
    ngraph = build_neighborhood_graph(lcp, labeled)
    return classic_verdict(lcp, ngraph, exhaustive=False)


def classic_verdict(
    lcp: LCP, ngraph: NeighborhoodGraph, exhaustive: bool
) -> HidingVerdict:
    if lcp.k == 2:
        odd_cycle = ngraph.find_odd_cycle()
        if odd_cycle is not None:
            return HidingVerdict(
                k=2, hiding=True, ngraph=ngraph, odd_cycle=tuple(odd_cycle)
            )
        coloring = ngraph.proper_coloring(2)
        return HidingVerdict(
            k=2,
            hiding=(False if exhaustive else None),
            ngraph=ngraph,
            coloring=coloring,
        )
    coloring = ngraph.proper_coloring(lcp.k)
    if coloring is None:
        return HidingVerdict(k=lcp.k, hiding=True, ngraph=ngraph)
    return HidingVerdict(
        k=lcp.k, hiding=(False if exhaustive else None), ngraph=ngraph, coloring=coloring
    )
