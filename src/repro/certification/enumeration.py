"""Wrapping bare decoders as LCPs via brute-force proving.

The impossibility experiments (Theorem 1.2) quantify over decoders, not
over full LCP schemes: a candidate decoder has no prover attached.
:class:`EnumerativeLCP` turns any decoder with a finite certificate
alphabet into an LCP whose "prover" simply searches the labeling space
for unanimously accepted assignments — the existential quantifier of
completeness made executable.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from ..errors import PromiseViolationError
from ..graphs.graph import Graph
from ..local.instance import Instance
from ..local.labeling import (
    Certificate,
    Labeling,
    all_labelings,
    count_labelings,
    labeling_key,
    node_sort_order,
)
from ..local.views import relabel_view
from ..perf.cache import default_layout_cache, memoized_decide
from .decoder import Decoder
from .lcp import LCP
from .prover import Prover


def unanimously_accepted_labelings(
    decoder: Decoder,
    instance: Instance,
    alphabet: list[Certificate],
    radius: int,
    include_ids: bool,
    seen: set[tuple] | None = None,
    stabilizer: tuple | None = None,
    account=None,
    kernel: str | None = None,
    stats=None,
) -> Iterator[Labeling]:
    """Labelings of *instance* over *alphabet* that every node accepts.

    The executable "there exists a labeling accepted at every node" of
    completeness, shared by :class:`SearchProver` and the Lemma 3.1 sweep
    (:func:`repro.neighborhood.aviews.labeled_yes_instances`).  Runs
    through the performance layer: layouts are extracted once per
    instance base and decoder verdicts are memoized per canonical view.

    *seen* deduplicates by :func:`labeling_key`; passing a caller-owned
    set lets the sweep skip labelings its prover already produced (the
    set is updated in place).

    *stabilizer* (index permutations over the graph's insertion-order
    nodes, identity first — see :func:`repro.symmetry.prune.
    instance_stabilizer`) enables orbit pruning: only the minimal
    labeling of each stabilizer orbit is decided and yielded.  Sound
    because the permuted labeling of a port/id-preserving automorphism
    produces the identical multiset of node views.  The labelings this
    suppresses relative to the brute loop are tallied on *account*
    (:class:`repro.symmetry.prune.SymmetryAccount`), which the engine
    folds back into ``instances_scanned``.

    *kernel* selects the inner-loop evaluator: ``None`` for the scalar
    loops below, ``"batch"`` for the prefix-pruned numpy join of
    :mod:`repro.kernel` (same yield stream, ``seen`` mutations, and
    account totals at every yield point).  When numpy is unavailable —
    or the labeling space cannot be indexed — the batch request
    silently falls back to the scalar path, preserving zero-dependency
    operation.  *stats* receives the kernel's batch counters (defaults
    to the process-wide stats).
    """
    layouts = default_layout_cache().layouts_for(instance, radius, include_ids)
    node_order = node_sort_order(instance.graph)
    if seen is None:
        seen = set()
    if kernel is not None:
        if kernel != "batch":
            raise ValueError(f"unknown sweep kernel {kernel!r}; known: batch")
        from ..kernel import numpy_or_none  # noqa: PLC0415

        np = numpy_or_none()
        if np is not None:
            from ..kernel.batch import batch_unanimous_labelings, kernel_supports  # noqa: PLC0415

            if kernel_supports(instance.graph, alphabet):
                yield from batch_unanimous_labelings(
                    decoder,
                    layouts,
                    instance.graph,
                    alphabet,
                    node_order,
                    seen,
                    stabilizer,
                    account,
                    np=np,
                    stats=stats,
                )
                return
    decide = memoized_decide(decoder)
    if stabilizer is not None and len(stabilizer) > 1:
        yield from _orbit_pruned_labelings(
            decide, layouts, instance.graph, alphabet, node_order, seen,
            stabilizer, account,
        )
        return
    for labeling in all_labelings(instance.graph, alphabet):
        if account is not None:
            account.labelings_total += 1
        key = labeling_key(labeling, node_order)
        if key in seen:
            continue
        if all(
            decide(relabel_view(template, order, labeling))
            for template, order in layouts.values()
        ):
            seen.add(key)
            yield labeling


def _orbit_pruned_labelings(
    decide,
    layouts,
    graph: Graph,
    alphabet: list[Certificate],
    node_order: list,
    seen: set[tuple],
    stabilizer: tuple,
    account,
) -> Iterator[Labeling]:
    """The stabilizer-orbit-pruned core of the unanimity search.

    Enumerates labelings as alphabet-index tuples in the exact order of
    :func:`repro.local.labeling.all_labelings` and decides only orbit
    minima (index tuples compare as ints; certificate values may mix
    types).  The yielded stream is a subsequence of the brute stream —
    the minimum of an orbit is the first member product order visits —
    and suppressed orbit mates contribute no new canonical views, so
    builder event streams are unchanged.  Accepted-instance accounting
    is exact: per accepted orbit, the mates neither yielded here nor
    already in *seen* (the prover's keys) are added to
    ``account.instances_suppressed``.
    """
    nodes = graph.nodes
    n = len(nodes)
    node_index = {v: i for i, v in enumerate(nodes)}
    order_pos = [node_index[v] for v in node_order]
    others = stabilizer[1:]
    indices = range(n)
    for t in product(range(len(alphabet)), repeat=n):
        if account is not None:
            account.labelings_total += 1
        is_rep = True
        for sigma in others:
            if tuple(t[sigma[i]] for i in indices) < t:
                is_rep = False
                break
        if not is_rep:
            if account is not None:
                account.labelings_pruned += 1
            continue
        labeling = Labeling({nodes[i]: alphabet[t[i]] for i in indices})
        if not all(
            decide(relabel_view(template, order, labeling))
            for template, order in layouts.values()
        ):
            continue
        orbit = {t}
        for sigma in others:
            orbit.add(tuple(t[sigma[i]] for i in indices))
        keys = {tuple(alphabet[u[j]] for j in order_pos) for u in orbit}
        rep_key = tuple(alphabet[t[j]] for j in order_pos)
        in_seen = sum(1 for key in keys if key in seen)
        if rep_key in seen:
            suppressed = len(orbit) - in_seen
        else:
            suppressed = len(orbit) - in_seen - 1
            seen.add(rep_key)
            yield labeling
        if account is not None:
            account.instances_suppressed += suppressed


class SearchProver(Prover):
    """Find accepted labelings by exhaustive search over an alphabet.

    The search runs through the performance layer: view layouts are
    extracted once per instance base (shared with the neighborhood-graph
    sweep via the process-wide layout cache) and decoder verdicts are
    memoized per canonical view, which collapses the inner loop of the
    ``|alphabet| ** n`` search to mostly cache lookups.
    """

    def __init__(self, decoder: Decoder, alphabet: list[Certificate], search_limit: int = 300_000):
        self._decoder = decoder
        self._alphabet = list(alphabet)
        self.search_limit = search_limit

    def certify(self, instance: Instance) -> Labeling:
        for labeling in self.all_certifications(instance):
            return labeling
        raise PromiseViolationError(
            f"no labeling over {len(self._alphabet)} symbols is unanimously "
            f"accepted on this {instance.n}-node instance"
        )

    def all_certifications(self, instance: Instance) -> Iterator[Labeling]:
        if count_labelings(instance.graph, len(self._alphabet)) > self.search_limit:
            raise PromiseViolationError(
                f"labeling space exceeds the search limit ({self.search_limit})"
            )
        yield from unanimously_accepted_labelings(
            self._decoder,
            instance.without_labeling(),
            self._alphabet,
            self._decoder.radius,
            include_ids=not self._decoder.anonymous,
        )

    @property
    def name(self) -> str:
        return f"SearchProver({self._decoder.name})"


class EnumerativeLCP(LCP):
    """An LCP assembled from a bare decoder and a finite alphabet.

    *promise_fn* optionally restricts the promise class; *k* defaults
    to 2.  Completeness of the result is whatever the search finds — the
    impossibility experiments report incomplete candidates as such.
    """

    def __init__(
        self,
        decoder: Decoder,
        alphabet: list[Certificate],
        promise_fn=None,
        k: int = 2,
        name: str | None = None,
        search_limit: int = 300_000,
    ) -> None:
        self.k = k
        self.radius = decoder.radius
        self.anonymous = decoder.anonymous
        self._decoder = decoder
        self._alphabet = list(alphabet)
        self._prover = SearchProver(decoder, alphabet, search_limit=search_limit)
        self._promise_fn = promise_fn
        self._name = name or f"EnumerativeLCP({decoder.name})"

    @property
    def prover(self) -> Prover:
        return self._prover

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    @property
    def name(self) -> str:
        return self._name

    def promise(self, graph: Graph) -> bool:
        if self._promise_fn is None:
            return True
        return bool(self._promise_fn(graph))

    def certificate_alphabet(self, graph: Graph) -> list[Certificate]:
        return list(self._alphabet)

    def certificate_bits(self, certificate: Certificate, n: int, id_bound: int) -> int:
        return max(1, (len(self._alphabet) - 1).bit_length())
