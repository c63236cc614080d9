"""The even-cycle LCP of Lemma 4.2 (class ``H2``: even cycles).

The prover reveals a proper **2-edge-coloring** of the cycle instead of a
node coloring.  On a cycle, 2-colorability and 2-edge-colorability
coincide, and the nodes can verify the edge coloring locally — but no node
learns its own color, so the scheme hides the 2-coloring *everywhere*
(unlike the degree-one scheme, which hides it at a single node).

Certificate encoding.  The paper writes a certificate as two entries of
(port-pair, color); we use the equivalent positional form: entry ``j``
(for the node's own port ``j ∈ {1, 2}``) is a pair
``(far_port, color)`` claiming that the edge leaving through own port
``j`` arrives at the neighbor's port ``far_port`` and is colored
``color``.  The decoder checks the claims against the actual ports in the
view and against the neighbor's own certificate for the shared edge.

Strong soundness is automatic for *all* graphs: accepting nodes have
degree exactly 2 and a locally consistent proper 2-edge-coloring, so any
cycle they induce is 2-edge-colorable and hence even.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..certification.decoder import Decoder, decides_as
from ..certification.lcp import LCP
from ..certification.prover import Prover, reject_promise
from ..graphs.graph import Graph
from ..graphs.properties import is_even_cycle
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling
from ..local.views import View

EdgeEntry = tuple[int, int]
EdgeCertificate = tuple[EdgeEntry, EdgeEntry]


def _entry_ok(entry: object) -> bool:
    return (
        isinstance(entry, tuple)
        and len(entry) == 2
        and entry[0] in (1, 2)
        and entry[1] in (0, 1)
    )


def _certificate_ok(certificate: object) -> bool:
    return (
        isinstance(certificate, tuple)
        and len(certificate) == 2
        and all(_entry_ok(e) for e in certificate)
    )


class EvenCycleDecoder(Decoder):
    """Verify a claimed 2-edge-coloring on a degree-2 node."""

    def __init__(self) -> None:
        self.radius = 1
        self.anonymous = True

    def decide(self, view: View) -> bool:
        own = view.center_label
        if not _certificate_ok(own):
            return False
        entries: EdgeCertificate = own  # type: ignore[assignment]
        if entries[0][1] == entries[1][1]:
            return False  # the two incident edges must have distinct colors
        incident = view.center_neighbors()
        if len(incident) != 2:
            return False
        if [own_port for _w, own_port, _far in incident] != [1, 2]:
            return False
        for w, own_port, far_port in incident:
            claimed_far, claimed_color = entries[own_port - 1]
            if claimed_far != far_port:
                return False
            other = view.label_of(w)
            if not _certificate_ok(other):
                return False
            other_entries: EdgeCertificate = other  # type: ignore[assignment]
            # The neighbor's entry for the shared edge (at its own port
            # ``far_port``) must point back at us with the same color.
            back_far, back_color = other_entries[far_port - 1]
            if back_far != own_port or back_color != claimed_color:
                return False
        return True

    def decide_columns(self, template: View, alphabet, digits) -> np.ndarray:
        """:meth:`decide` as column tests: the template fixes the two
        incident edges, so a row is read through per-symbol tables of
        the claimed far ports and colors."""
        if not decides_as(self, EvenCycleDecoder):
            return super().decide_columns(template, alphabet, digits)
        incident = template.center_neighbors()
        if [own_port for _w, own_port, _far in incident] != [1, 2] or any(
            far_port not in (1, 2) for _w, _own, far_port in incident
        ):
            # Wrong degree or ports, or a far port no entry can claim.
            return np.zeros(len(digits), dtype=bool)
        # far[s, j], color[s, j]: entry j of well-formed symbol s.
        ok = np.zeros(len(alphabet), dtype=bool)
        far = np.zeros((len(alphabet), 2), dtype=np.int8)
        color = np.zeros((len(alphabet), 2), dtype=np.int8)
        for s, label in enumerate(alphabet):
            if _certificate_ok(label):
                ok[s] = True
                for j, (claimed_far, claimed_color) in enumerate(label):
                    far[s, j] = 1 if claimed_far == 1 else 2
                    color[s, j] = 1 if claimed_color == 1 else 0
        own = digits[:, 0]
        accept = ok[own] & (color[own, 0] != color[own, 1])
        for w, own_port, far_port in incident:
            other = digits[:, w]
            accept &= (
                (far[own, own_port - 1] == far_port)
                & ok[other]
                & (far[other, far_port - 1] == own_port)
                & (color[other, far_port - 1] == color[own, own_port - 1])
            )
        return accept

    @property
    def name(self) -> str:
        return "EvenCycleDecoder"


class EvenCycleProver(Prover):
    """Reveal a proper 2-edge-coloring of an even cycle.

    ``all_certifications`` yields both edge colorings (the alternation
    can start with either color).
    """

    def certify(self, instance: Instance) -> Labeling:
        return next(self.all_certifications(instance))

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        graph = instance.graph
        if not is_even_cycle(graph):
            raise reject_promise(instance, "graph is not an even cycle (outside class H2)")
        order = _cycle_order(graph)
        for flip in (0, 1):
            edge_color: dict[frozenset, int] = {}
            for i, v in enumerate(order):
                w = order[(i + 1) % len(order)]
                edge_color[frozenset((v, w))] = (i + flip) % 2
            labels: dict = {}
            for v in graph.nodes:
                entries: list[EdgeEntry] = [None, None]  # type: ignore[list-item]
                for u in graph.neighbors(v):
                    own_port = instance.ports.port(v, u)
                    far_port = instance.ports.port(u, v)
                    entries[own_port - 1] = (far_port, edge_color[frozenset((v, u))])
                labels[v] = tuple(entries)
            yield Labeling(labels)

    @property
    def name(self) -> str:
        return "EvenCycleProver"


def _cycle_order(graph: Graph) -> list:
    """Nodes of a cycle graph in a deterministic traversal order."""
    start = sorted(graph.nodes, key=repr)[0]
    order = [start]
    prev = None
    current = start
    while True:
        nxt = sorted((w for w in graph.neighbors(current) if w != prev), key=repr)[0]
        if nxt == start:
            return order
        order.append(nxt)
        prev, current = current, nxt


class EvenCycleLCP(LCP):
    """Anonymous, one-round, constant-size strong & hiding LCP for H2."""

    promise_family = "even-cycles"

    def __init__(self) -> None:
        self.k = 2
        self.radius = 1
        self.anonymous = True
        self._prover = EvenCycleProver()
        self._decoder = EvenCycleDecoder()

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    def promise(self, graph: Graph) -> bool:
        """Class H2: even cycles."""
        return is_even_cycle(graph)

    def certificate_alphabet(self, graph: Graph) -> list[Certificate]:
        """All 16 well-formed certificates (plus nothing else: malformed
        certificates are rejected on sight, so they cannot help an
        adversary)."""
        entries = [(far, color) for far in (1, 2) for color in (0, 1)]
        return [(e1, e2) for e1 in entries for e2 in entries]

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        return 4  # two entries of (far port: 1 bit, color: 1 bit)
