"""The shatter-point LCP of Theorem 1.3 (Section 7.1).

Certificates (``O(min{Δ², n} + log n)`` bits), following the paper:

* type 0 — the shatter point ``v``; content: its claimed identifier;
* type 1 — a neighbor of ``v``; content: the claimed identifier of ``v``
  plus a *colors vector* recording, for each component of ``G - N[v]``,
  the color of the side that ``N(v)`` touches;
* type 2 — a node of a component ``C_i``; content: the claimed identifier
  of ``v``, the component number ``i``, and the node's color in a
  2-coloring of ``G[C_i]``.

Reproduction note (documented in EXPERIMENTS.md): the decoder exactly as
written in the brief announcement admits strong-soundness
counterexamples.  Two local checks repair it, and both are arguably what
the authors intended:

1. **Anchored type-0 identifier** — a type-1 node requires its unique
   type-0 neighbor's claimed identifier to equal that neighbor's *actual*
   identifier (the paper's ``id^u = id^w`` read as ``Id(w)``).  Without
   this, a far-away "rogue" type-1 node can be vouched for by a rejecting
   type-0 pendant and stitch two components together at odd parity.
2. **Common touch color** — the colors of a type-1 node's type-2
   neighbors must all agree (the color the paper calls ``c^u`` in the
   strong-soundness proof; the proof asserts this uniqueness but the
   listed conditions do not enforce it).  Without it, a 5-cycle through
   two type-1 nodes with a shared rejecting type-0 pendant is accepted.

Both weakenings are available as constructor flags so the test suite can
exhibit the counterexamples.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import product

from ..certification.decoder import Decoder
from ..certification.lcp import LCP
from ..certification.prover import Prover, reject_promise
from ..graphs.graph import Graph, Node, sealed_coloring
from ..graphs.properties import bipartition
from ..graphs.shatter import ShatterDecomposition, shatter_decomposition, shatter_points
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling
from ..local.views import View

TYPE_SHATTER = "shatter"
TYPE_NEIGHBOR = "nbr"
TYPE_COMPONENT = "comp"


def shatter_certificate(claimed_id: int) -> Certificate:
    """Type-0 certificate of the shatter point."""
    return (TYPE_SHATTER, claimed_id)


def neighbor_certificate(claimed_id: int, colors: tuple[int, ...]) -> Certificate:
    """Type-1 certificate of a shatter-point neighbor."""
    return (TYPE_NEIGHBOR, claimed_id, tuple(colors))


def component_certificate(claimed_id: int, number: int, color: int) -> Certificate:
    """Type-2 certificate of a component node."""
    return (TYPE_COMPONENT, claimed_id, number, color)


def _parse(label: object) -> tuple[str, tuple] | None:
    """Split a certificate into (type, payload); ``None`` if malformed."""
    if not isinstance(label, tuple) or not label:
        return None
    kind = label[0]
    if kind == TYPE_SHATTER:
        if len(label) == 2 and isinstance(label[1], int):
            return kind, (label[1],)
    elif kind == TYPE_NEIGHBOR:
        if (
            len(label) == 3
            and isinstance(label[1], int)
            and isinstance(label[2], tuple)
            and len(label[2]) >= 1
            and all(c in (0, 1) for c in label[2])
        ):
            return kind, (label[1], label[2])
    elif kind == TYPE_COMPONENT:
        if (
            len(label) == 4
            and isinstance(label[1], int)
            and isinstance(label[2], int)
            and label[2] >= 1
            and label[3] in (0, 1)
        ):
            return kind, (label[1], label[2], label[3])
    return None


class ShatterDecoder(Decoder):
    """One-round decoder for the shatter-point certificates."""

    def __init__(self, anchored_type0_id: bool = True, common_touch_color: bool = True) -> None:
        self.radius = 1
        self.anonymous = False
        self.anchored_type0_id = anchored_type0_id
        self.common_touch_color = common_touch_color

    def decide(self, view: View) -> bool:
        own = _parse(view.center_label)
        if own is None:
            return False
        kind, payload = own
        neighbors = view.neighbors_in_view(0)
        parsed = []
        for w in neighbors:
            other = _parse(view.label_of(w))
            if other is None:
                return False
            parsed.append((w, *other))

        if kind == TYPE_SHATTER:
            (claimed,) = payload
            if claimed != view.center_id:
                return False
            contents = set()
            for _w, other_kind, other_payload in parsed:
                if other_kind != TYPE_NEIGHBOR:
                    return False
                other_claimed, other_colors = other_payload
                if other_claimed != view.center_id:
                    return False
                contents.add((other_claimed, other_colors))
            return len(contents) <= 1

        if kind == TYPE_NEIGHBOR:
            claimed, colors = payload
            type0 = [
                (w, p) for w, other_kind, p in parsed if other_kind == TYPE_SHATTER
            ]
            if any(other_kind == TYPE_NEIGHBOR for _w, other_kind, _p in parsed):
                return False  # 2(a): no type-1 neighbors
            if len(type0) != 1:
                return False  # 2(b): unique type-0 neighbor
            w0, (w0_claimed,) = type0[0]
            if w0_claimed != claimed:
                return False
            if self.anchored_type0_id and view.id_of(w0) != claimed:
                return False  # repair 1: the anchor really carries that id
            touch_colors = set()
            for _w, other_kind, other_payload in parsed:
                if other_kind != TYPE_COMPONENT:
                    continue
                other_claimed, number, color = other_payload
                if other_claimed != claimed:
                    return False
                if number > len(colors):
                    return False
                if colors[number - 1] != color:
                    return False  # 2(c)
                touch_colors.add(color)
            if self.common_touch_color and len(touch_colors) > 1:
                return False  # repair 2: one common touch color c^u
            return True

        # kind == TYPE_COMPONENT
        claimed, number, color = payload
        for _w, other_kind, other_payload in parsed:
            if other_kind == TYPE_SHATTER:
                return False  # 3(a)
            if other_kind == TYPE_NEIGHBOR:
                other_claimed, other_colors = other_payload
                if other_claimed != claimed:
                    return False
                if number > len(other_colors) or other_colors[number - 1] != color:
                    return False  # 3(b)
            else:
                other_claimed, other_number, other_color = other_payload
                if other_claimed != claimed:
                    return False
                if other_number != number or other_color == color:
                    return False  # 3(c)
        return True

    @property
    def name(self) -> str:
        flags = []
        if not self.anchored_type0_id:
            flags.append("no-anchor")
        if not self.common_touch_color:
            flags.append("no-common-color")
        suffix = f"[{','.join(flags)}]" if flags else ""
        return f"ShatterDecoder{suffix}"


@dataclass(frozen=True)
class ShatterPlan:
    """Everything :class:`ShatterProver` derives from the graph alone at
    one shatter point: the decomposition, a base 2-coloring per
    component (read-only), the base color of each component's side
    touched by ``N(v)`` (``None`` when untouched), and the orientation
    blocks — component indices that must share a touch color."""

    decomp: ShatterDecomposition
    component_colorings: tuple[Mapping[Node, int], ...]
    touched_base_color: tuple[int | None, ...]
    blocks: tuple[tuple[int, ...], ...]


def shatter_plan(graph: Graph, point: Node) -> ShatterPlan | None:
    """The prover's plan at *point*, or ``None`` when Lemma 7.1's
    condition 3 fails there (``N(v)`` touches both sides of some
    component).  A graph fact per point: a frozen graph derives it once
    for every ``(ports, ids)`` base of every sweep."""
    return graph.fact(("shatter_plan", point), lambda: _plan(graph, point))


def _plan(graph: Graph, point: Node) -> ShatterPlan | None:
    decomp = shatter_decomposition(graph, point)
    # The point, N(v) and the components of G - N[v] cover every node,
    # so each labeling built from the plan is total.
    component_colorings = []
    for comp in decomp.components:
        comp_split = bipartition(graph.induced_subgraph(comp))
        assert comp_split.coloring is not None
        component_colorings.append(sealed_coloring(comp_split.coloring))

    # For each component, the color (under the fixed base coloring) of
    # the side touched by N(v).
    touched_base_color: list[int | None] = []
    for index, comp in enumerate(decomp.components):
        touched = {
            component_colorings[index][w]
            for u in decomp.neighbors
            for w in graph.neighbors(u)
            if w in comp
        }
        if len(touched) > 1:
            return None
        touched_base_color.append(touched.pop() if touched else None)
    return ShatterPlan(
        decomp=decomp,
        component_colorings=tuple(component_colorings),
        touched_base_color=tuple(touched_base_color),
        blocks=_orientation_blocks(graph, decomp),
    )


def _orientation_blocks(
    graph: Graph, decomp: ShatterDecomposition
) -> tuple[tuple[int, ...], ...]:
    """Group component indices that must share a touch color.

    Components touched by a common type-1 node are merged (union-find)
    so every enumerated orientation satisfies the common-touch-color
    check.
    """
    parent = list(range(len(decomp.components)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    comp_of: dict[Node, int] = {}
    for index, comp in enumerate(decomp.components):
        for w in comp:
            comp_of[w] = index
    for u in decomp.neighbors:
        touched = {comp_of[w] for w in graph.neighbors(u) if w in comp_of}
        touched = sorted(touched)
        for other in touched[1:]:
            union(touched[0], other)
    blocks: dict[int, list[int]] = {}
    for index in range(len(decomp.components)):
        blocks.setdefault(find(index), []).append(index)
    return tuple(tuple(blocks[root]) for root in sorted(blocks))


class ShatterProver(Prover):
    """Certify around a shatter point per the paper's completeness proof.

    Per-component colorings are oriented so that the side touched by
    ``N(v)`` carries a chosen color; orientations must give every type-1
    node a single touch color, so components touched by a common neighbor
    are oriented together.  ``all_certifications`` enumerates shatter
    points and all consistent orientation blocks (the freedom the hiding
    construction of Section 7.1 exploits).  The graph-only part of that
    work is :func:`shatter_plan`; only the labelings are built per base.
    """

    def __init__(self, max_orientation_blocks: int = 6) -> None:
        self.max_orientation_blocks = max_orientation_blocks

    def certify(self, instance: Instance) -> Labeling:
        return next(self.all_certifications(instance))

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        graph = instance.graph
        split = bipartition(graph)
        if not split.is_bipartite:
            raise reject_promise(instance, "graph is not 2-colorable")
        points = shatter_points(graph)
        if not points:
            raise reject_promise(instance, "graph admits no shatter point")
        for point in points:
            plan = shatter_plan(graph, point)
            if plan is not None:
                yield from self._certifications_at(instance, plan)

    def _certifications_at(self, instance: Instance, plan: ShatterPlan) -> Iterator[Labeling]:
        # Enumerate only the prefix blocks when there are too many.
        tails = plan.blocks[: self.max_orientation_blocks]
        for choice in product((0, 1), repeat=len(tails)):
            # touch_color[i]: the certificate color of component i's side
            # touched by N(v).
            touch_color = [0] * len(plan.decomp.components)
            for block, bit in zip(tails, choice):
                for comp_index in block:
                    touch_color[comp_index] = bit
            yield self._build_labeling(instance, plan, touch_color)

    def _build_labeling(
        self, instance: Instance, plan: ShatterPlan, touch_color: list[int]
    ) -> Labeling:
        decomp = plan.decomp
        point_id = instance.ids.id_of(decomp.point)
        colors_vector = tuple(touch_color)
        labels: dict[Node, Certificate] = {}
        labels[decomp.point] = shatter_certificate(point_id)
        for u in decomp.neighbors:
            labels[u] = neighbor_certificate(point_id, colors_vector)
        for index, comp in enumerate(decomp.components):
            base = plan.component_colorings[index]
            touched = plan.touched_base_color[index]
            # Flip the base coloring so the touched side gets touch_color.
            flip = 0 if touched is None else (touched ^ touch_color[index])
            for w in comp:
                labels[w] = component_certificate(
                    point_id, index + 1, base[w] ^ flip
                )
        return Labeling(labels)

    @property
    def name(self) -> str:
        return "ShatterProver"


class ShatterLCP(LCP):
    """Theorem 1.3: strong & hiding one-round LCP for shatter-point graphs.

    Certificates use ``O(min{Δ², n} + log n)`` bits; the scheme is
    non-anonymous (certificates embed the shatter point's identifier).
    """

    promise_family = "shatter"

    def __init__(self, anchored_type0_id: bool = True, common_touch_color: bool = True) -> None:
        self.k = 2
        self.radius = 1
        self.anonymous = False
        self._prover = ShatterProver()
        self._decoder = ShatterDecoder(
            anchored_type0_id=anchored_type0_id,
            common_touch_color=common_touch_color,
        )

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    def promise(self, graph: Graph) -> bool:
        """The class H of Theorem 1.3: graphs admitting a shatter point."""
        return bool(shatter_points(graph))

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        id_bits = max(1, id_bound.bit_length())
        parsed = _parse(certificate)
        if parsed is None:
            raise ValueError(f"malformed shatter certificate: {certificate!r}")
        kind, payload = parsed
        type_bits = 2
        if kind == TYPE_SHATTER:
            return type_bits + id_bits
        if kind == TYPE_NEIGHBOR:
            return type_bits + id_bits + len(payload[1])
        comp_bits = max(1, n.bit_length())
        return type_bits + id_bits + comp_bits + 1
