"""Binary decoders — the distributed verifier side of an LCP (Section 2.2).

A decoder is an ``r``-round local algorithm whose input views carry
certificates and whose output is accept (``True``) or reject (``False``).
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from ..graphs.graph import Node
from ..local.algorithms import LocalAlgorithm
from ..local.instance import Instance
from ..local.views import View, view_with_labels

ACCEPT = True
REJECT = False


class Decoder(LocalAlgorithm):
    """A binary decoder: accepts or rejects based on the local view."""

    @abstractmethod
    def decide(self, view: View) -> bool:
        """Accept (``True``) or reject (``False``) the certificate layout."""

    def decide_columns(self, template: View, alphabet, digits) -> np.ndarray:
        """Verdicts on a block of labelings of one view template.

        *digits* is a ``(rows, template.size)`` integer matrix of indices
        into *alphabet*; row ``i`` labels local node ``j`` with
        ``alphabet[digits[i, j]]``.  Returns a boolean array of ``rows``
        verdicts, entry ``i`` being what :meth:`decide` answers on
        ``view_with_labels(template, row i's symbols)``.

        This base version is that loop.  A decoder whose rule reads a few
        symbol classes at fixed template positions overrides it with
        column operations; :meth:`decide` stays the definition, so an
        override must agree with it on every alphabet (prefixes and
        foreign symbols included) and defer to this loop whenever a
        subclass redefines :meth:`decide` (:func:`decides_as`).
        """
        decide = self.decide
        return np.array(
            [
                decide(view_with_labels(template, tuple(alphabet[d] for d in row)))
                for row in digits.tolist()
            ],
            dtype=bool,
        )

    @property
    def port_oblivious(self) -> bool:
        """Whether :meth:`decide` never reads port numbers.

        Such a decoder reads labels (and identifiers) and treats the
        center's neighbors as a set or a count, so it accepts exactly
        the same labelings on every port assignment of a graph, and the
        Lemma 3.1 sweep runs one unanimity join per graph instead of one
        per port base
        (:func:`~repro.certification.enumeration.unanimously_accepted_labelings`).
        ``False`` here; a decoder declares it for its own ``decide``
        only (:func:`decides_as`), so a subclass that redefines
        :meth:`decide` joins per base again.
        """
        return False

    def run(self, view: View) -> bool:
        return self.decide(view)

    def decide_all(self, instance: Instance) -> dict[Node, bool]:
        """Run the decoder at every node of a labeled instance."""
        return self.run_on(instance)


def decides_as(decoder: Decoder, cls: type) -> bool:
    """Whether *decoder* decides with ``cls.decide`` itself — the
    condition under which ``cls``'s column override of
    :meth:`Decoder.decide_columns` may stand in for it, and under which
    its :attr:`Decoder.port_oblivious` declaration holds."""
    return type(decoder).decide is cls.decide


class FunctionDecoder(Decoder):
    """Wrap a plain predicate ``View -> bool`` as a decoder."""

    def __init__(self, fn, radius: int = 1, anonymous: bool = False, name: str | None = None):
        self._fn = fn
        self.radius = radius
        self.anonymous = anonymous
        self._name = name or getattr(fn, "__name__", "FunctionDecoder")

    def decide(self, view: View) -> bool:
        return bool(self._fn(view))

    @property
    def name(self) -> str:
        return self._name


class ConstantDecoder(Decoder):
    """Accept (or reject) everything — degenerate baselines for the
    impossibility probes: the always-accept decoder is trivially hiding
    but violently unsound, the always-reject one is sound but incomplete."""

    def __init__(self, verdict: bool, radius: int = 1, anonymous: bool = True):
        self.verdict = verdict
        self.radius = radius
        self.anonymous = anonymous

    def decide(self, view: View) -> bool:
        return self.verdict

    @property
    def name(self) -> str:
        return f"ConstantDecoder({self.verdict})"
