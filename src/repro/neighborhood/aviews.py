"""Enumeration of labeled yes-instances and their accepting views.

``AViews(D, n)`` (Section 3) is the set of views that some node of some
labeled yes-instance on at most ``n`` nodes holds while accepting.  Two
enumeration regimes are provided:

* the **faithful Lemma 3.1 sweep** — all yes-instance graphs up to
  isomorphism, all port assignments (bounded), identifier assignments by
  order type (bounded), and certificate assignments; practical for small
  ``n`` and essential for the extraction direction of Lemma 3.2;
* the **witness regime** — a caller-chosen list of labeled yes-instances
  (this is what the paper's hiding proofs do with their ``I1``/``I2``
  pairs); any odd cycle found among these views is a sound
  non-2-colorability witness for the full neighborhood graph.

Certificate assignments per instance come from the honest prover
(``all_certifications``) and, optionally, from exhaustively enumerating
the LCP's finite alphabet and keeping the unanimously accepted ones —
the literal "there exists a labeling accepted at v" of the definition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..certification.enumeration import unanimously_accepted_labelings
from ..certification.lcp import LCP, promise_family, sweep_certifications
from ..graphs.families import (
    GRAPH_FAMILIES,
    all_graphs_exactly,
    all_graphs_up_to,
    graph_family_predicate,
)
from ..graphs.graph import Graph
from ..kernel.batch import kernel_supports
from ..local.identifiers import IdentifierAssignment, all_order_types
from ..local.instance import Instance
from ..local.labeling import count_labelings, labeling_key, node_sort_order
from ..local.ports import PortAssignment, all_port_assignments, count_port_assignments
from ..perf.stats import GLOBAL_STATS


def bipartite_generation(lcp: LCP) -> bool:
    """Whether the Lemma 3.1 sweep of *lcp* may enumerate bipartite
    graphs only.

    Every yes-instance of a ``k = 2`` LCP is bipartite
    (:meth:`LCP.is_yes_instance` is promise and 2-colorability), so the
    generator can skip the rest outright; ``is_yes_instance`` stays the
    authoritative filter and the yielded stream is unchanged.  Follows
    ``lcp.k`` — a property of the input, not a knob.  A subclass that
    redefines ``is_yes_instance`` keeps the full family."""
    return lcp.k == 2 and type(lcp).is_yes_instance is LCP.is_yes_instance


def graph_source(lcp: LCP, family: str = "all") -> dict:
    """Where the Lemma 3.1 sweep of *lcp* over the campaign *family*
    takes its graphs: the keyword arguments it passes to
    :func:`~repro.graphs.families.all_graphs_up_to`,
    :func:`~repro.graphs.families.all_graphs_exactly` and
    :func:`~repro.graphs.families.warm_graph_families`.

    * ``bipartite`` — :func:`bipartite_generation`.
    * ``family`` — a family that holds every graph the sweep keeps and is
      built directly: the scheme's promise class
      (:func:`~repro.certification.lcp.promise_family`) or else the
      campaign *family*, when either has a direct generator; ``None``
      (orderly generation of every graph) otherwise.

    A direct family yields the subsequence of the orderly stream its
    predicate keeps, so the instance stream is unchanged;
    ``is_yes_instance`` and the campaign predicate stay the filters.
    Follows the scheme and the cell, never a knob."""
    direct = None
    for name in (promise_family(lcp), family):
        entry = GRAPH_FAMILIES.get(name)
        if entry is not None and entry.direct is not None:
            direct = name
            break
    return {"bipartite": bipartite_generation(lcp), "family": direct}


def _admitted_alphabet(
    lcp: LCP,
    graph: Graph,
    alphabet_limit: int | None,
    labeling_limit: int,
    stats,
) -> list | None:
    """The alphabet of *graph*'s exhaustive unanimity pass, or ``None``
    when the pass does not run — counted on *stats* as
    ``labelings_prover_only`` (no finite alphabet) or
    ``labelings_capped`` (``|alphabet| ** n`` over *labeling_limit*, or
    beyond what the join can index)."""
    alphabet = lcp.certificate_alphabet(graph)
    if alphabet is None:
        stats.incr("labelings_prover_only")
        return None
    if alphabet_limit is not None:
        alphabet = alphabet[:alphabet_limit]
    over_limit = count_labelings(graph, len(alphabet)) > labeling_limit
    if over_limit or not kernel_supports(graph, alphabet):
        stats.incr("labelings_capped")
        return None
    return alphabet


def sweep_ports(graph: Graph, port_limit: int) -> tuple[bool, tuple[PortAssignment, ...]]:
    """``(sampled, ports)``: the port assignments the sweep visits on
    *graph* — all of them when their count fits *port_limit*, else
    (``sampled``) the canonical one plus ``port_limit - 1`` seeded random
    ones.  A graph fact per limit, so a frozen representative hands the
    same objects to every sweep and the identity-keyed layout cache
    hits across sweeps.  Limits below 1 sweep what 1 does and share its
    entry."""
    port_limit = max(port_limit, 1)

    def compute() -> tuple[bool, tuple[PortAssignment, ...]]:
        if count_port_assignments(graph) <= port_limit:
            return False, tuple(all_port_assignments(graph))
        ports = [PortAssignment.canonical(graph)]
        ports += [PortAssignment.random(graph, seed) for seed in range(1, port_limit)]
        return True, tuple(ports)

    return graph.fact(("sweep_ports", port_limit), compute)


def canonical_ids(graph: Graph) -> IdentifierAssignment:
    """The canonical identifiers ``1..n`` of *graph* (a graph fact).
    The ``n!`` order types of ``id_order_types`` are built per sweep
    instead, so no representative pins them."""
    return graph.fact("canonical_ids", lambda: IdentifierAssignment.canonical(graph))


def labeled_yes_instances(
    lcp: LCP,
    graphs: Iterable[Graph],
    port_limit: int = 64,
    id_order_types: bool = False,
    id_bound: int | None = None,
    include_all_accepted_labelings: bool = False,
    labeling_limit: int = 20_000,
    account=None,
    stats=None,
    family: str = "all",
    alphabet_limit: int | None = None,
) -> Iterator[Instance]:
    """Labeled yes-instances of *lcp* over the given graphs.

    * Ports: exhaustive when the count fits *port_limit*, else canonical
      plus seeded random ones (:func:`sweep_ports`); each visit to a
      graph whose port space is sampled counts ``ports_sampled`` on
      *stats*.
    * Identifiers: canonical ``1..n`` by default; with *id_order_types*
      every order type (``n!`` of them — tiny graphs only), which is the
      right granularity for order-invariant and identifier-sensitive
      decoders.
    * Labelings: the prover's full certification set; plus, when
      *include_all_accepted_labelings* and the alphabet is finite and the
      space fits *labeling_limit*, every unanimously accepted labeling.
    * Orbit pruning, exactly when an *account*
      (:class:`repro.symmetry.prune.SymmetryAccount`) is passed:
      ``(ports, ids)`` bases that are automorphic images of an earlier
      base are skipped whole, and labelings within a base are pruned to
      stabilizer-orbit minima.  The yielded stream is a subsequence of
      the brute stream whose suppressed members contribute no new
      canonical views or edges, so builder event order — and with it
      early-exit witnesses and verdict fingerprints — is unchanged.
      Suppressed counts accumulate on *account*; the engine folds
      them back into ``Provenance.instances_scanned``.
    * Kernel: the unanimity sweep runs the prefix-pruned numpy join of
      :mod:`repro.kernel.batch`; *stats* receives its batch counters.
      A port-oblivious decoder
      (:attr:`~repro.certification.decoder.Decoder.port_oblivious`) is
      joined once per ``(graph, ids)`` — once per graph when anonymous —
      and the graph's later port bases reuse the accepted rows
      (``kernel_joins_shared``).
    * Skipped passes: with *include_all_accepted_labelings*, each base
      whose exhaustive pass does not run is counted on *stats* —
      ``labelings_capped`` over the limit, ``labelings_prover_only``
      without a finite alphabet (see :func:`_admitted_alphabet`).
    * Campaign axes: *family* names a registered graph family
      (:data:`repro.graphs.families.GRAPH_FAMILIES`) whose predicate
      pre-filters the graph stream (``"all"`` keeps every graph), and
      *alphabet_limit* caps the unanimity pass to the first letters of
      the scheme's certificate alphabet.  Both default to the full
      pre-campaign sweep.
    """
    predicate = graph_family_predicate(family)
    coverage_stats = stats or GLOBAL_STATS
    include_ids = not lcp.anonymous
    for graph in graphs:
        if predicate is not None and not predicate(graph):
            continue
        if not lcp.is_yes_instance(graph):
            continue
        node_order = node_sort_order(graph)
        group = None
        if account is not None:
            from ..symmetry.groups import automorphism_group  # noqa: PLC0415

            group = automorphism_group(graph)
            if group.is_trivial:
                group = None
        sampled, ports_list = sweep_ports(graph, port_limit)
        if sampled:
            coverage_stats.incr("ports_sampled")
        if id_order_types:
            id_list = list(all_order_types(graph))
        else:
            id_list = [canonical_ids(graph)]
        bound = id_bound if id_bound is not None else graph.order
        #: base signature -> brute-equivalent instance count of the
        #: representative base (yields + suppressed), charged whole to
        #: every later automorphic duplicate.
        base_counts: dict[tuple, int] = {}
        #: accepted row blocks of this graph's unanimity join, shared by
        #: its port bases when the decoder is port-oblivious.
        joins: dict = {}
        for ports in ports_list:
            for ids in id_list:
                base = Instance(graph=graph, ports=ports, ids=ids, id_bound=bound)
                if account is not None:
                    account.bases_total += 1
                signature = None
                if group is not None:
                    from ..symmetry.prune import base_signature, instance_stabilizer  # noqa: PLC0415

                    signature = base_signature(group, graph, ports, ids, include_ids)
                    duplicate_of = base_counts.get(signature)
                    if duplicate_of is not None:
                        account.bases_pruned += 1
                        account.instances_suppressed += duplicate_of
                        continue
                suppressed_before = (
                    account.instances_suppressed if account is not None else 0
                )
                produced = 0
                seen = set()
                for labeling in sweep_certifications(lcp.prover, base, coverage_stats):
                    key = labeling_key(labeling, node_order)
                    if key in seen:
                        continue
                    seen.add(key)
                    produced += 1
                    yield base.with_labeling(labeling)
                alphabet = None
                if include_all_accepted_labelings:
                    alphabet = _admitted_alphabet(
                        lcp,
                        graph,
                        alphabet_limit,
                        labeling_limit,
                        coverage_stats,
                    )
                if alphabet is not None:
                    stabilizer = (
                        instance_stabilizer(group, graph, ports, ids, include_ids)
                        if group is not None
                        else None
                    )
                    for labeling in unanimously_accepted_labelings(
                        lcp.decoder,
                        base,
                        alphabet,
                        lcp.radius,
                        include_ids=include_ids,
                        seen=seen,
                        stabilizer=stabilizer,
                        account=account,
                        stats=stats,
                        joins=joins,
                    ):
                        produced += 1
                        yield base.with_labeling(labeling)
                if signature is not None:
                    base_counts[signature] = produced + (
                        account.instances_suppressed - suppressed_before
                    )


def yes_instances_up_to(
    lcp: LCP,
    n: int,
    port_limit: int = 64,
    id_order_types: bool = False,
    labeling_limit: int = 20_000,
    account=None,
    stats=None,
    family: str = "all",
    alphabet_limit: int | None = None,
) -> Iterator[Instance]:
    """The Lemma 3.1 sweep: labeled yes-instances on at most *n* nodes.

    Graphs are enumerated up to isomorphism over all connected graphs,
    filtered by :meth:`LCP.is_yes_instance` (promise class +
    ``k``-colorability — bipartiteness for the paper's ``k = 2``, where
    only bipartite graphs are generated in the first place; see
    :func:`bipartite_generation`).  A promise class that is built
    directly is enumerated instead of all graphs
    (:func:`graph_source`).  Labelings are exhaustive: the
    prover's plus every unanimously accepted one within
    *labeling_limit* (the prover-only stream of the witness regime is
    :func:`labeled_yes_instances` without
    ``include_all_accepted_labelings``).
    """
    # No pre-filter here: labeled_yes_instances applies is_yes_instance
    # itself, and filtering twice would double the bipartiteness checks.
    yield from labeled_yes_instances(
        lcp,
        all_graphs_up_to(n, mutable=False, **graph_source(lcp, family)),
        port_limit=port_limit,
        id_order_types=id_order_types,
        id_bound=n,
        include_all_accepted_labelings=True,
        labeling_limit=labeling_limit,
        account=account,
        stats=stats,
        family=family,
        alphabet_limit=alphabet_limit,
    )


def yes_instances_between(
    lcp: LCP,
    lo: int,
    hi: int,
    port_limit: int = 64,
    id_order_types: bool = False,
    labeling_limit: int = 20_000,
    account=None,
    stats=None,
    family: str = "all",
    alphabet_limit: int | None = None,
) -> Iterator[Instance]:
    """The suffix of the Lemma 3.1 sweep: sizes ``lo+1 .. hi`` only.

    Because :func:`yes_instances_up_to` enumerates graph sizes in
    ascending order, the sweep at ``hi`` is exactly the sweep at ``lo``
    followed by this suffix — the prefix property the streaming engine's
    cross-``n`` warm start relies on.  Anonymous schemes only: views
    carry no identifiers there, so the ``id_bound`` difference between
    the two sweeps cannot reach the neighborhood graph.
    """

    source = graph_source(lcp, family)

    def suffix_graphs() -> Iterator[Graph]:
        for size in range(lo + 1, hi + 1):
            yield from all_graphs_exactly(size, mutable=False, **source)

    yield from labeled_yes_instances(
        lcp,
        suffix_graphs(),
        port_limit=port_limit,
        id_order_types=id_order_types,
        id_bound=hi,
        include_all_accepted_labelings=True,
        labeling_limit=labeling_limit,
        account=account,
        stats=stats,
        family=family,
        alphabet_limit=alphabet_limit,
    )
