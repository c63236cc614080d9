"""The watermelon LCP of Theorem 1.4 (Section 7.2).

Certificates (``O(log n)`` bits):

* type 1 — an endpoint; content ``(id1, id2)``: the endpoints' identifiers
  in increasing order;
* type 2 — an internal path node; content
  ``(id1, id2, path#, (far_port_1, color_1), (far_port_2, color_2))``:
  the endpoint identifiers, the node's path number, and for each own port
  ``i ∈ {1, 2}`` the far port and the color of that incident edge in a
  2-edge-coloring of the path.

The prover 2-edge-colors every path so that all edges incident to ``v1``
share one color and all edges incident to ``v2`` share one color (possible
in a bipartite watermelon because all path lengths have equal parity);
each path gets a unique number.

The decoder enforces the paper's conditions 1, 2(a–d), 3(a–c); port
claims are checked against the actual ports visible in the view.  Strong
soundness follows the paper's cycle analysis: at most two type-1 nodes can
exist (their actual identifiers must appear in the agreed ``(id1, id2)``
pair), pure type-2 cycles are 2-edge-colored and hence even, and
two-endpoint cycles consist of two paths of equal parity.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..certification.decoder import Decoder
from ..certification.lcp import LCP
from ..certification.prover import Prover, reject_promise
from ..graphs.graph import Graph
from ..graphs.properties import is_bipartite
from ..graphs.watermelon import watermelon_decomposition
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling
from ..local.views import View

TYPE_ENDPOINT = "end"
TYPE_PATH = "path"


def endpoint_certificate(id1: int, id2: int) -> Certificate:
    """Type-1 certificate of a watermelon endpoint."""
    return (TYPE_ENDPOINT, id1, id2)


def path_certificate(
    id1: int,
    id2: int,
    number: int,
    entry1: tuple[int, int],
    entry2: tuple[int, int],
) -> Certificate:
    """Type-2 certificate of an internal path node.

    ``entry_i = (far_port, color)`` describes the edge at own port ``i``.
    """
    return (TYPE_PATH, id1, id2, number, entry1, entry2)


def _parse(label: object) -> tuple[str, tuple] | None:
    if not isinstance(label, tuple) or not label:
        return None
    kind = label[0]
    if kind == TYPE_ENDPOINT:
        if (
            len(label) == 3
            and isinstance(label[1], int)
            and isinstance(label[2], int)
            and label[1] < label[2]
        ):
            return kind, (label[1], label[2])
    elif kind == TYPE_PATH:
        if len(label) != 6:
            return None
        _kind, id1, id2, number, entry1, entry2 = label
        entries_ok = all(
            isinstance(e, tuple)
            and len(e) == 2
            and isinstance(e[0], int)
            and e[0] >= 1
            and e[1] in (0, 1)
            for e in (entry1, entry2)
        )
        if (
            isinstance(id1, int)
            and isinstance(id2, int)
            and id1 < id2
            and isinstance(number, int)
            and number >= 1
            and entries_ok
            and entry1[1] != entry2[1]
        ):
            return kind, (id1, id2, number, entry1, entry2)
    return None


class WatermelonDecoder(Decoder):
    """One-round decoder for watermelon certificates."""

    def __init__(self) -> None:
        self.radius = 1
        self.anonymous = False

    def decide(self, view: View) -> bool:
        own = _parse(view.center_label)
        if own is None:
            return False
        kind, payload = own
        incident = view.center_neighbors()
        parsed = []
        for w, own_port, far_port in incident:
            other = _parse(view.label_of(w))
            if other is None:
                return False
            parsed.append((w, own_port, far_port, *other))

        # Condition 1: everyone agrees on the endpoint identifier pair.
        id1, id2 = payload[0], payload[1]
        for _w, _op, _fp, _okind, other_payload in parsed:
            if other_payload[0] != id1 or other_payload[1] != id2:
                return False

        if kind == TYPE_ENDPOINT:
            if view.center_id not in (id1, id2):
                return False  # 2(a)
            seen_numbers = set()
            colors_toward_me = set()
            for _w, own_port, far_port, other_kind, other_payload in parsed:
                if other_kind != TYPE_PATH:
                    return False  # 2(b): all neighbors are path nodes
                _i1, _i2, number, entry1, entry2 = other_payload
                if far_port not in (1, 2):
                    return False
                claimed_far, color = (entry1, entry2)[far_port - 1]
                if claimed_far != own_port:
                    return False  # 2(b): reciprocal port claim
                if number in seen_numbers:
                    return False  # 2(c): one touch per path
                seen_numbers.add(number)
                colors_toward_me.add(color)
            if len(colors_toward_me) > 1:
                return False  # 2(d): monochromatic incident edges
            return True

        # kind == TYPE_PATH
        _i1, _i2, number, entry1, entry2 = payload
        if len(incident) != 2:
            return False  # 3(a)
        if sorted(own_port for _w, own_port, _fp in incident) != [1, 2]:
            return False
        for w, own_port, far_port, other_kind, other_payload in parsed:
            claimed_far, color = (entry1, entry2)[own_port - 1]
            if claimed_far != far_port:
                return False  # the port claim must match reality
            if other_kind == TYPE_ENDPOINT:
                if view.id_of(w) not in (id1, id2):
                    return False  # 3(b): endpoint really carries one of the ids
            else:
                _j1, _j2, other_number, other_entry1, other_entry2 = other_payload
                if other_number != number:
                    return False  # 3(c): same path
                if far_port not in (1, 2):
                    return False
                back_far, back_color = (other_entry1, other_entry2)[far_port - 1]
                if back_far != own_port or back_color != color:
                    return False  # 3(c): reciprocal entry agrees
        return True

    @property
    def name(self) -> str:
        return "WatermelonDecoder"


class WatermelonProver(Prover):
    """Certify a bipartite watermelon per the completeness proof.

    ``all_certifications`` enumerates the two global edge-coloring flips
    (start color 0 or 1 at ``v1``); path numbering follows the canonical
    decomposition order.
    """

    def certify(self, instance: Instance) -> Labeling:
        return next(self.all_certifications(instance))

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        graph = instance.graph
        decomp = watermelon_decomposition(graph)
        if decomp is None:
            raise reject_promise(instance, "graph is not a watermelon")
        if not is_bipartite(graph):
            raise reject_promise(instance, "watermelon is not bipartite (odd/even path mix)")
        for flip in (0, 1):
            yield self._build(instance, decomp, flip)

    def _build(self, instance: Instance, decomp, flip: int) -> Labeling:
        graph = instance.graph
        ids = instance.ids
        v1, v2 = decomp.endpoints
        id1, id2 = sorted((ids.id_of(v1), ids.id_of(v2)))
        edge_color: dict[frozenset, int] = {}
        for path in decomp.paths:
            for index in range(len(path) - 1):
                a, b = path[index], path[index + 1]
                edge_color[frozenset((a, b))] = (index + flip) % 2
        labels: dict = {}
        labels[v1] = endpoint_certificate(id1, id2)
        labels[v2] = endpoint_certificate(id1, id2)
        for path_number, path in enumerate(decomp.paths, start=1):
            for node in path[1:-1]:
                entries: list[tuple[int, int] | None] = [None, None]
                for u in graph.neighbors(node):
                    own_port = instance.ports.port(node, u)
                    far_port = instance.ports.port(u, node)
                    entries[own_port - 1] = (far_port, edge_color[frozenset((node, u))])
                assert entries[0] is not None and entries[1] is not None
                labels[node] = path_certificate(
                    id1, id2, path_number, entries[0], entries[1]
                )
        return Labeling(labels)

    @property
    def name(self) -> str:
        return "WatermelonProver"


class WatermelonLCP(LCP):
    """Theorem 1.4: strong & hiding one-round LCP for watermelon graphs."""

    promise_family = "watermelons"

    def __init__(self) -> None:
        self.k = 2
        self.radius = 1
        self.anonymous = False
        self._prover = WatermelonProver()
        self._decoder = WatermelonDecoder()

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    def promise(self, graph: Graph) -> bool:
        """The class H of Theorem 1.4: watermelon graphs."""
        return watermelon_decomposition(graph) is not None

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        parsed = _parse(certificate)
        if parsed is None:
            raise ValueError(f"malformed watermelon certificate: {certificate!r}")
        kind, payload = parsed
        id_bits = max(1, id_bound.bit_length())
        type_bits = 1
        if kind == TYPE_ENDPOINT:
            return type_bits + 2 * id_bits
        number_bits = max(1, n.bit_length())
        port_bits = max(1, n.bit_length())  # far ports can address an endpoint's degree
        return type_bits + 2 * id_bits + number_bits + 2 * (port_bits + 1)
