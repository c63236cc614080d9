"""The classic color-revealing LCP for ``k``-coloring (paper Section 1).

Implemented for every ``k >= 2`` — the paper focuses on ``k = 2``, but
Lemma 3.2 is stated for general ``k`` and the k = 3 instantiation is
exercised in the tests (the neighborhood graph is 3-colorable and the
compiled extraction decoder recovers a proper 3-coloring).

Certificates are colors: the prover hands every node its color in a
proper ``k``-coloring and each node checks its neighbors' colors differ
from its own.  The scheme is anonymous, one-round, strongly sound (the
accepting nodes are properly colored by their own certificates), uses
``⌈log k⌉`` bits — and is maximally *non-hiding*: the identity decoder
extracts the coloring, and its accepting neighborhood graph is
``k``-colorable (machine-checked in the Lemma 3.2 experiment).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations

from ..errors import PromiseViolationError
from ..graphs.graph import Graph
from ..graphs.properties import bipartition
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling
from ..local.views import View
from ..certification.decoder import Decoder, decides_as
from ..certification.lcp import LCP
from ..certification.prover import Prover


class RevealingDecoder(Decoder):
    """Accept iff the center's color is valid and differs from every
    neighbor's color."""

    def __init__(self, k: int = 2) -> None:
        self.k = k
        self.radius = 1
        self.anonymous = True

    def decide(self, view: View) -> bool:
        own = view.center_label
        if not isinstance(own, int) or not 0 <= own < self.k:
            return False
        for w in view.neighbors_in_view(0):
            other = view.label_of(w)
            if not isinstance(other, int) or not 0 <= other < self.k:
                return False
            if other == own:
                return False
        return True

    @property
    def port_oblivious(self) -> bool:
        """:meth:`decide` reads the neighbors' labels as a set."""
        return decides_as(self, RevealingDecoder)

    @property
    def name(self) -> str:
        return f"RevealingDecoder(k={self.k})"


class RevealingProver(Prover):
    """Hand out a proper coloring (both 2-colorings for ``k = 2``)."""

    def __init__(self, k: int = 2) -> None:
        self.k = k

    def certify(self, instance: Instance) -> Labeling:
        return next(self.all_certifications(instance))

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        if self.k == 2:
            split = bipartition(instance.graph)
            if not split.is_bipartite:
                raise PromiseViolationError("graph is not 2-colorable")
            coloring = split.coloring
            assert coloring is not None
            yield Labeling(dict(coloring))
            yield Labeling({v: 1 - c for v, c in coloring.items()})
            return
        from ..graphs.coloring import k_coloring  # noqa: PLC0415

        coloring = k_coloring(instance.graph, self.k)
        if coloring is None:
            raise PromiseViolationError(f"graph is not {self.k}-colorable")
        # The canonical coloring under every color permutation — the full
        # prover freedom the neighborhood-graph enumeration needs.
        for perm in permutations(range(self.k)):
            yield Labeling({v: perm[c] for v, c in coloring.items()})


class RevealingLCP(LCP):
    """The non-hiding baseline every experiment compares against."""

    def __init__(self, k: int = 2) -> None:
        self.k = k
        self.radius = 1
        self.anonymous = True
        self._prover = RevealingProver(k)
        self._decoder = RevealingDecoder(k)

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    @property
    def name(self) -> str:
        return f"RevealingLCP(k={self.k})"

    def certificate_alphabet(self, graph: Graph) -> list[Certificate]:
        return list(range(self.k))

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        return max(1, (self.k - 1).bit_length())
