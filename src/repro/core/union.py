"""The union LCP of Theorem 1.1 (class ``H = H1 ∪ H2``).

The prover picks the sub-scheme matching the instance (degree-one hiding
for graphs with a degree-1 node, edge-coloring for even cycles) and tags
every certificate with the chosen scheme.  The decoder additionally
requires its whole neighborhood to carry the same tag, so any connected
set of accepting nodes runs under a single sub-scheme — strong soundness
then reduces to the sub-schemes' strong soundness, and hiding is
inherited from either witness family.
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
from .degree_one import DegreeOneDecoder, DegreeOneLCP, DegreeOneProver
from .even_cycle import EvenCycleDecoder, EvenCycleLCP, EvenCycleProver

TAG_DEGREE_ONE = "H1"
TAG_EVEN_CYCLE = "H2"


def _untag(view: View, tag: str) -> View | None:
    """Strip the scheme tag off every label, or ``None`` on a tag clash."""
    labels = []
    for local in view.nodes():
        label = view.label_of(local)
        if not (isinstance(label, tuple) and len(label) == 2 and label[0] == tag):
            return None
        labels.append(label[1])
    return View(
        radius=view.radius,
        dist=view.dist,
        edges=view.edges,
        ports=view.ports,
        ids=view.ids,
        id_bound=view.id_bound,
        labels=tuple(labels),
    )


class UnionDecoder(Decoder):
    """Dispatch on the scheme tag; reject mixed-tag neighborhoods."""

    def __init__(self) -> None:
        self.radius = 1
        self.anonymous = True
        self._degree_one = DegreeOneDecoder()
        self._even_cycle = EvenCycleDecoder()

    def decide(self, view: View) -> bool:
        own = view.center_label
        if not (isinstance(own, tuple) and len(own) == 2):
            return False
        tag = own[0]
        if tag == TAG_DEGREE_ONE:
            inner = _untag(view, TAG_DEGREE_ONE)
            return inner is not None and self._degree_one.decide(inner)
        if tag == TAG_EVEN_CYCLE:
            inner = _untag(view, TAG_EVEN_CYCLE)
            return inner is not None and self._even_cycle.decide(inner)
        return False

    def decide_columns(self, template: View, alphabet, digits) -> np.ndarray:
        """:meth:`decide` in bulk: a row goes to the sub-decoder of its
        tag when every symbol in it carries that tag, and the
        sub-decoder decides the untagged rows by its own columns."""
        if not decides_as(self, UnionDecoder):
            return super().decide_columns(template, alphabet, digits)
        accept = np.zeros(len(digits), dtype=bool)
        for tag, decoder in (
            (TAG_DEGREE_ONE, self._degree_one),
            (TAG_EVEN_CYCLE, self._even_cycle),
        ):
            tagged = np.array(
                [
                    isinstance(label, tuple) and len(label) == 2 and label[0] == tag
                    for label in alphabet
                ],
                dtype=bool,
            )
            rows = tagged[digits].all(axis=1)
            if rows.any():
                inner = tuple(label[1] if ok else None for label, ok in zip(alphabet, tagged))
                accept[rows] = decoder.decide_columns(template, inner, digits[rows])
        return accept

    @property
    def name(self) -> str:
        return "UnionDecoder"


class UnionProver(Prover):
    """Certify via the sub-scheme the instance belongs to."""

    def __init__(self) -> None:
        self._degree_one = DegreeOneProver()
        self._even_cycle = EvenCycleProver()

    def certify(self, instance: Instance) -> Labeling:
        return next(self.all_certifications(instance))

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        graph = instance.graph
        produced = False
        if graph.order >= 2 and graph.min_degree() == 1:
            for labeling in self._degree_one.all_certifications(instance):
                produced = True
                yield _tagged(labeling, TAG_DEGREE_ONE)
        elif is_even_cycle(graph):
            for labeling in self._even_cycle.all_certifications(instance):
                produced = True
                yield _tagged(labeling, TAG_EVEN_CYCLE)
        if not produced:
            raise reject_promise(instance, "graph is neither in H1 nor in H2")

    @property
    def name(self) -> str:
        return "UnionProver"


def _tagged(labeling: Labeling, tag: str) -> Labeling:
    return Labeling({v: (tag, labeling.of(v)) for v in labeling.nodes()})


class UnionLCP(LCP):
    """Theorem 1.1: strong & hiding anonymous LCP for ``H1 ∪ H2``."""

    def __init__(self) -> None:
        self.k = 2
        self.radius = 1
        self.anonymous = True
        self._prover = UnionProver()
        self._decoder = UnionDecoder()
        self._h1 = DegreeOneLCP()
        self._h2 = EvenCycleLCP()

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    def promise(self, graph: Graph) -> bool:
        return self._h1.promise(graph) or self._h2.promise(graph)

    def certificate_alphabet(self, graph: Graph) -> list[Certificate]:
        alphabet: list[Certificate] = []
        for certificate in self._h1.certificate_alphabet(graph):
            alphabet.append((TAG_DEGREE_ONE, certificate))
        for certificate in self._h2.certificate_alphabet(graph):
            alphabet.append((TAG_EVEN_CYCLE, certificate))
        return alphabet

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        # 1 tag bit plus the larger sub-scheme payload (4 bits).
        return 5
