"""Wrapping bare decoders as LCPs via brute-force proving.

The impossibility experiments (Theorem 1.2) quantify over decoders, not
over full LCP schemes: a candidate decoder has no prover attached.
:class:`EnumerativeLCP` turns any decoder with a finite certificate
alphabet into an LCP whose "prover" simply searches the labeling space
for unanimously accepted assignments — the existential quantifier of
completeness made executable.

The search itself is :func:`unanimously_accepted_labelings`, which also
serves the Lemma 3.1 sweep.  It runs the join of :mod:`repro.kernel.batch`
once per base, except for a port-oblivious decoder
(:attr:`~repro.certification.decoder.Decoder.port_oblivious`) under a
caller that passes a per-graph ``joins`` dict: there the first port base
of a graph joins, and the graph's later port bases reuse its accepted
rows and run only the per-base tail.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import PromiseViolationError
from ..graphs.graph import Graph
from ..kernel.batch import (
    MAX_INT64_SPACE,
    accepted_rows,
    kernel_supports,
    labelings_from_rows,
)
from ..local.instance import Instance
from ..local.labeling import Certificate, Labeling, count_labelings, node_sort_order
from ..perf.cache import default_layout_cache
from ..perf.stats import GLOBAL_STATS
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
    stats=None,
    joins: dict | None = None,
) -> Iterator[Labeling]:
    """Labelings of *instance* over *alphabet* that every node accepts.

    The executable "there exists a labeling accepted at every node" of
    completeness, shared by :class:`SearchProver` and the Lemma 3.1 sweep
    (:func:`repro.neighborhood.aviews.labeled_yes_instances`).  Runs
    the prefix-pruned numpy join of :mod:`repro.kernel.batch` through
    the performance layer: layouts are extracted once per instance base
    and decoder verdicts are kept per template in acceptance tables,
    decided in bulk (:meth:`Decoder.decide_columns`).  Labelings
    come in ``itertools.product`` order over *alphabet*, node columns in
    graph insertion order.

    *seen* deduplicates by :func:`~repro.local.labeling.labeling_key`;
    passing a caller-owned set lets the sweep skip labelings its prover
    already produced (the set is updated in place).

    *stabilizer* (index permutations over the graph's insertion-order
    nodes, identity first — see :func:`repro.symmetry.prune.
    instance_stabilizer`) enables orbit pruning: only the minimal
    labeling of each stabilizer orbit is decided and yielded.  Sound
    because the permuted labeling of a port/id-preserving automorphism
    produces the identical multiset of node views.  The labelings this
    suppresses relative to the unpruned stream are tallied on *account*
    (:class:`repro.symmetry.prune.SymmetryAccount`), which the engine
    folds back into ``instances_scanned``.

    *joins* shares the join across the port bases of one graph.  It is
    a caller-owned dict scoped to one graph, alphabet and identifier
    bound.  When the decoder is :attr:`~Decoder.port_oblivious`, the
    first base of each identifier assignment (one key in all when
    *include_ids* is false) stores its join's accepted row blocks
    there, and every later base with that key runs only the per-base
    tail over them (:func:`repro.kernel.batch.labelings_from_rows`),
    counted as ``kernel_joins_shared``; it extracts no layouts and
    reads no acceptance table.  That first base drains the whole join
    before it yields its first labeling, early exit or not.  Other
    decoders ignore *joins* and join on every base.

    *stats* receives the join's batch counters (defaults to the
    process-wide stats).  Raises :class:`ValueError` on the first pull
    when the labeling space is too large for the join's int64 indices
    (:func:`repro.kernel.batch.kernel_supports`); the sweep counts such
    a base as ``labelings_capped`` and never asks.
    """
    graph = instance.graph
    if not kernel_supports(graph, alphabet):
        raise ValueError(
            f"{len(alphabet)} ** {graph.order} labelings exceed the "
            f"join's int64 index space ({MAX_INT64_SPACE})"
        )
    shared = joins is not None and decoder.port_oblivious
    key = tuple(map(instance.ids.id_of, graph.nodes)) if shared and include_ids else None
    rows = joins.get(key) if shared else None
    if rows is not None:
        (stats or GLOBAL_STATS).incr("kernel_joins_shared")
    else:
        layouts = default_layout_cache().layouts_for(
            instance, radius, include_ids, stats=stats
        )
        rows = accepted_rows(decoder, layouts, graph, alphabet, np, stats)
        if shared:
            rows = joins[key] = list(rows)
    yield from labelings_from_rows(
        rows,
        graph,
        alphabet,
        node_sort_order(graph),
        set() if seen is None else seen,
        stabilizer,
        account,
        np,
    )


class SearchProver(Prover):
    """Find accepted labelings by exhaustive search over an alphabet.

    The search is :func:`unanimously_accepted_labelings`: view layouts
    are extracted once per instance base (shared with the
    neighborhood-graph sweep via the process-wide layout cache), and the
    join decides each distinct local view once instead of scanning the
    ``|alphabet| ** n`` space.
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
