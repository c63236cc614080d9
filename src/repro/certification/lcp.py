"""The LCP abstraction: prover + decoder + promise + certificate codec.

An :class:`LCP` bundles everything the paper's Section 2 attaches to a
locally checkable proof for ``k``-coloring:

* the *language* parameter ``k`` (we focus on ``k = 2`` like the paper);
* the verification radius ``r`` and whether the scheme is anonymous;
* the *promise class* (a predicate on graphs) for promise problems
  (Section 2.5);
* the prover and the binary decoder;
* a certificate codec used by the certificate-size experiments;
* optionally a finite certificate alphabet enabling the exhaustive
  strong-soundness adversary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import PromiseViolationError
from ..graphs.coloring import is_k_colorable
from ..graphs.graph import Graph, Node
from ..graphs.properties import is_bipartite
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling
from ..perf.stats import GLOBAL_STATS, PerfStats
from .decoder import Decoder
from .prover import Prover


@dataclass(frozen=True)
class AcceptanceResult:
    """Per-node decoder verdicts on one labeled instance."""

    votes: dict[Node, bool]

    @property
    def unanimous(self) -> bool:
        """True iff every node accepts (the yes-side condition)."""
        return all(self.votes.values())

    @property
    def accepting(self) -> set[Node]:
        return {v for v, vote in self.votes.items() if vote}

    @property
    def rejecting(self) -> set[Node]:
        return {v for v, vote in self.votes.items() if not vote}

    def __repr__(self) -> str:
        return f"AcceptanceResult(accepting={len(self.accepting)}, rejecting={len(self.rejecting)})"


class LCP(ABC):
    """A locally checkable proof scheme for ``k``-coloring."""

    #: The coloring parameter of the language ``k-col``.
    k: int = 2
    #: Verification radius ``r``.
    radius: int = 1
    #: Whether the decoder may depend on identifiers.
    anonymous: bool = False
    #: The :data:`repro.graphs.families.GRAPH_FAMILIES` entry equal to
    #: the promise class ``H``, or ``None`` when no entry names it.  When
    #: that entry is built directly, the Lemma 3.1 sweep enumerates it
    #: instead of generating every graph (read it through
    #: :func:`promise_family`).
    promise_family: str | None = None

    @property
    @abstractmethod
    def prover(self) -> Prover:
        """The certificate-assigning prover."""

    @property
    @abstractmethod
    def decoder(self) -> Decoder:
        """The distributed verifier."""

    @property
    def name(self) -> str:
        return type(self).__name__

    # ------------------------------------------------------------------
    # Promise class
    # ------------------------------------------------------------------

    def promise(self, graph: Graph) -> bool:
        """Membership in the promise class ``H`` (default: all graphs)."""
        return True

    def is_yes_instance(self, graph: Graph) -> bool:
        """Yes-instances of the promise problem: ``H``-members that are
        properly ``k``-colorable (for ``k = 2``: bipartite)."""
        if self.k == 2:
            return self.promise(graph) and is_bipartite(graph)
        return self.promise(graph) and is_k_colorable(graph, self.k)

    def is_no_instance(self, graph: Graph) -> bool:
        """No-instances: graphs that are not ``k``-colorable at all
        (promise problems leave the rest unconstrained, Section 2.5)."""
        if self.k == 2:
            return not is_bipartite(graph)
        return not is_k_colorable(graph, self.k)

    # ------------------------------------------------------------------
    # Running the scheme
    # ------------------------------------------------------------------

    def check(self, instance: Instance) -> AcceptanceResult:
        """Run the decoder at every node of a labeled instance."""
        instance.require_labeling()
        return AcceptanceResult(votes=self.decoder.decide_all(instance))

    def accepts(self, instance: Instance) -> bool:
        """True iff every node accepts."""
        return self.check(instance).unanimous

    def certify_and_check(self, instance: Instance) -> AcceptanceResult:
        """Prover + decoder round trip on an unlabeled instance."""
        labeling = self.prover.certify(instance)
        return self.check(instance.with_labeling(labeling))

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------

    def certificate_alphabet(self, graph: Graph) -> list[Certificate] | None:
        """The full finite certificate alphabet for instances on *graph*,
        or ``None`` when the alphabet is too large to enumerate.

        Constant-size LCPs return their (small) alphabet, enabling the
        exhaustive adversary of the strong-soundness checks.
        """
        return None

    @abstractmethod
    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        """Encoded size, in bits, of one certificate on an ``n``-node
        instance with identifier bound ``N = id_bound``."""

    def labeling_bits(self, labeling: Labeling, n: int, id_bound: int) -> int:
        """The maximum certificate size across a labeling (the paper's
        ``f(n)`` is a per-node bound)."""
        return max(
            self.certificate_bits(labeling.of(v), n, id_bound) for v in labeling.nodes()
        )


def promise_family(lcp: LCP) -> str | None:
    """*lcp*'s :attr:`LCP.promise_family`, unless a subclass redefines
    ``promise`` or ``is_yes_instance`` below the class that named it —
    the name then no longer describes the yes-instances, and the sweep
    keeps generating every graph."""
    kind = type(lcp)
    owner = next(cls for cls in kind.__mro__ if "promise_family" in vars(cls))
    if kind.promise is owner.promise and kind.is_yes_instance is owner.is_yes_instance:
        return lcp.promise_family
    return None


# ----------------------------------------------------------------------
# Cell-scoped parameterization (the campaign layer's k and r axes)
# ----------------------------------------------------------------------


class _TolerantProver(Prover):
    """A prover whose enumeration survives off-promise instances.

    Re-parameterizing a scheme to a non-native ``k`` can admit
    yes-instances the base prover was never written for (a triangle is a
    3-colorable member of H1, but the degree-one prover reveals a
    2-coloring and rejects it).  For the Lemma 3.1 sweep that is fine:
    the exhaustive unanimity pass is the literal "some labeling accepted
    at v" of the definition, so the honest prover contributing nothing
    for such an instance is sound.  Each swallowed rejection is counted
    as ``prover_rejections`` (on *stats*, default
    :data:`~repro.perf.stats.GLOBAL_STATS`), so the cut is never silent.
    ``certify`` keeps raising — a direct round trip on an off-promise
    instance should still fail loudly.
    """

    def __init__(self, base: Prover) -> None:
        self.base = base

    @property
    def name(self) -> str:
        return self.base.name

    def certify(self, instance: Instance) -> Labeling:
        return self.base.certify(instance)

    def all_certifications(self, instance: Instance, stats: PerfStats | None = None):
        try:
            yield from self.base.all_certifications(instance)
        except PromiseViolationError:
            (stats or GLOBAL_STATS).incr("prover_rejections")


def sweep_certifications(prover: Prover, instance: Instance, stats: PerfStats | None):
    """*prover*'s certifications of *instance* as the Lemma 3.1 sweep
    consumes them: a tolerant prover (a scheme re-parameterized to a
    non-native ``k``) records what it swallows on the sweep's *stats*."""
    if isinstance(prover, _TolerantProver):
        return prover.all_certifications(instance, stats=stats)
    return prover.all_certifications(instance)


class ParametrizedLCP(LCP):
    """A registry scheme re-parameterized to a different ``k`` and/or
    verification radius ``r`` — the campaign layer's cell-scoped view of
    a scheme.

    Everything except ``k``/``radius`` delegates to the base scheme:
    same promise class, same decoder, same certificate codec, same
    ``name`` (cache keys already carry ``k`` and ``radius`` as separate
    fields, so parameterized sweeps get their own addresses without
    renaming).  Never constructed for the native parameters —
    :func:`parametrized` returns the base object itself there, which is
    what keeps default-cell cache identities byte-identical to the
    pre-campaign layout.
    """

    def __init__(self, base: LCP, k: int | None = None, radius: int | None = None):
        self.base = base
        self.k = k if k is not None else base.k
        self.radius = radius if radius is not None else base.radius
        self.anonymous = base.anonymous
        self._prover = (
            _TolerantProver(base.prover) if self.k != base.k else base.prover
        )

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self.base.decoder

    @property
    def name(self) -> str:
        return self.base.name

    def promise(self, graph: Graph) -> bool:
        return self.base.promise(graph)

    @property
    def promise_family(self) -> str | None:
        return promise_family(self.base)

    def certificate_alphabet(self, graph: Graph) -> list[Certificate] | None:
        return self.base.certificate_alphabet(graph)

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        return self.base.certificate_bits(certificate, n, id_bound)


def parametrized(lcp: LCP, k: int | None = None, radius: int | None = None) -> LCP:
    """*lcp* with ``k``/``radius`` overridden — or *lcp* itself when both
    requested values are native (``None`` means "keep").

    Raises ``ValueError`` for non-positive parameters.  Unwraps nested
    parameterizations so ``parametrized(parametrized(D, k=3), k=2)``
    never stacks delegation layers.
    """
    if k is not None and k < 1:
        raise ValueError(f"parametrized: k must be >= 1, got {k}")
    if radius is not None and radius < 1:
        raise ValueError(f"parametrized: radius must be >= 1, got {radius}")
    if isinstance(lcp, ParametrizedLCP):
        base = lcp.base
        k = k if k is not None else lcp.k
        radius = radius if radius is not None else lcp.radius
    else:
        base = lcp
    if (k is None or k == base.k) and (radius is None or radius == base.radius):
        return base
    return ParametrizedLCP(base, k=k, radius=radius)
