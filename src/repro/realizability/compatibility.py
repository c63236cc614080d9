"""View compatibility (Section 5.1, Fig. 7).

Let ``μ1``, ``μ2`` be radius-``r`` views with centers ``v1``, ``v2`` and
let ``u`` be a node of ``μ1``.  Then ``u`` is *compatible* with ``μ2`` if

1. ``u`` carries the identifier of ``μ2``'s center, and
2. for every node ``w1`` of ``μ1`` at distance < ``r`` from ``v1``, if
   ``μ2`` has a node ``w2`` with the same identifier at distance < ``r``
   from ``v2``, then ``w1`` and ``w2`` have identical radius-1 views
   (graph structure, ports, identifiers, and labels).

Unlike yes-instance-compatibility (Section 3), this relates views that
need not coexist in any instance — it is the local consistency predicate
that makes the ``G_bad`` merge of Lemma 5.1 well-defined.
"""

from __future__ import annotations

from ..errors import ViewError
from ..local.views import View


def _id_index(view: View) -> dict[int, int]:
    """Map identifier -> local node for an identified view."""
    if view.ids is None:
        raise ViewError("compatibility is defined on identified views")
    return {ident: local for local, ident in enumerate(view.ids)}


def node_compatible_with(view1: View, u_local: int, view2: View) -> bool:
    """Whether node *u_local* of *view1* is compatible with *view2*."""
    ids1 = view1.ids
    ids2 = view2.ids
    if ids1 is None or ids2 is None:
        raise ViewError("compatibility is defined on identified views")
    if ids1[u_local] != ids2[0]:
        return False  # condition 1: u carries μ2's center identifier
    index2 = _id_index(view2)
    r = view1.radius
    for w1 in view1.nodes():
        if view1.dist[w1] >= r:
            continue
        w2 = index2.get(ids1[w1])
        if w2 is None or view2.dist[w2] >= r:
            continue
        if view1.subview_radius1(w1) != view2.subview_radius1(w2):
            return False
    return True


def occurrences_of_identifier(view: View, identifier: int) -> list[int]:
    """Local nodes of *view* carrying *identifier* (0 or 1 of them)."""
    if view.ids is None:
        raise ViewError("identified views required")
    return [local for local, ident in enumerate(view.ids) if ident == identifier]


def identifiers_in(view: View) -> set[int]:
    """All identifiers appearing in *view*."""
    if view.ids is None:
        raise ViewError("identified views required")
    return set(view.ids)
