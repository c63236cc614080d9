"""Property suite: orbit-pruned sweeps match the brute-force oracle.

The symmetry layer is only allowed to change *how fast* a verdict is
reached, never *what* is reached.  For every registry scheme and both
routes — the engine's full sweep (no early exit, no cache tiers) and the
build-then-decide oracle of :mod:`tests.oracle` — this suite runs with
symmetry off and on and demands byte-identical verdicts:
same hiding decision, same canonical witness walk, same
``decision_fingerprint``, and the same effective instance/view/edge
counts (suppressed instances folded back into ``instances_scanned``).

A second group pins the two pruning mechanisms individually —
labeling-orbit minima inside a base, and automorphic-duplicate bases —
against fresh brute-force enumerations of the same space.
"""

from __future__ import annotations

import pytest

from repro.certification.enumeration import unanimously_accepted_labelings
from repro.core import make_lcp
from repro.core.registry import all_lcps
from repro.engine import ExecutionPlan, clear_engine_state, decide_hiding
from repro.graphs.generators import cycle_graph, path_graph
from repro.local.instance import Instance
from repro.local.labeling import labeling_key, node_sort_order
from repro.neighborhood import build_neighborhood_graph, yes_instances_up_to
from repro.neighborhood.aviews import symmetry_pruning_effective
from repro.symmetry import (
    SymmetryAccount,
    automorphism_group,
    instance_stabilizer,
)

from .oracle import kernel_route, oracle_verdict, reference_unanimous_labelings

SCHEMES = sorted(all_lcps())
#: "materialized" = the oracle (complete graph, then decide);
#: "streaming" = the engine's incremental full sweep.
BACKENDS = ["materialized", "streaming"]

#: Full-sweep ceiling per scheme; the two workhorse schemes get n = 5.
DEPTH = {name: 4 for name in SCHEMES}
DEPTH["degree-one"] = 5
DEPTH["even-cycle"] = 5


def _full_sweep_plan(symmetry: str) -> ExecutionPlan:
    """A deterministic cold sweep: serial, no early exit, no cache tiers."""
    return ExecutionPlan(
        early_exit=False,
        warm_start=False,
        memory_cache=False,
        disk_cache=False,
        symmetry=symmetry,
    )


def _sweep(scheme: str, backend: str, symmetry: str):
    clear_engine_state()
    lcp = make_lcp(scheme)
    if backend == "materialized":
        return lcp, oracle_verdict(lcp, DEPTH[scheme], symmetry=symmetry)
    return lcp, decide_hiding(lcp, DEPTH[scheme], _full_sweep_plan(symmetry))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_pruned_sweep_matches_brute_force(scheme, backend):
    lcp, off = _sweep(scheme, backend, "off")
    _, on = _sweep(scheme, backend, "on")

    assert on.hiding == off.hiding
    assert on.witness == off.witness
    assert on.decision_fingerprint() == off.decision_fingerprint()
    # Effective counts: suppression is folded back, so the provenance
    # numbers of a full sweep are regime-independent.
    assert on.provenance.instances_scanned == off.provenance.instances_scanned
    assert on.provenance.views == off.provenance.views
    assert on.provenance.edges == off.provenance.edges
    assert on.provenance.symmetry_pruned
    assert not off.provenance.symmetry_pruned


@pytest.mark.parametrize("scheme", ["degree-one", "even-cycle"])
def test_pruned_graph_is_the_brute_force_graph_at_n4(scheme):
    """Both Theorem 1.1 schemes at n = 4 on the scalar reference loops:
    the orbit-pruned ``V(D, 4)`` has the brute-force view list, edge set
    and effective instance count, not only the same fingerprint."""
    lcp = make_lcp(scheme)
    graphs = {}
    for mode in ("off", "on"):
        account = SymmetryAccount()
        with kernel_route("off"):
            graph = build_neighborhood_graph(
                lcp,
                yes_instances_up_to(
                    lcp,
                    4,
                    symmetry=mode,
                    account=account,
                ),
            )
        graph.instances_scanned += account.instances_suppressed
        graphs[mode] = graph
    assert account.instances_suppressed  # the "on" sweep did prune
    off, on = graphs["off"], graphs["on"]
    assert on.views == off.views
    assert on.edges == off.edges
    assert on.instances_scanned == off.instances_scanned


@pytest.mark.parametrize("scheme", SCHEMES)
def test_auto_mode_prunes_exactly_the_anonymous_schemes(scheme):
    lcp, auto = _sweep(scheme, "streaming", "auto")
    _, off = _sweep(scheme, "streaming", "off")
    assert auto.provenance.symmetry_pruned == lcp.anonymous
    assert auto.provenance.symmetry_pruned == symmetry_pruning_effective(lcp, "auto")
    assert auto.decision_fingerprint() == off.decision_fingerprint()
    assert auto.provenance.instances_scanned == off.provenance.instances_scanned


@pytest.mark.parametrize("scheme", SCHEMES)
def test_instance_stream_is_a_counted_subsequence(scheme):
    """The pruned instance stream is a subsequence of the brute stream
    and the suppressed tally accounts for every skipped instance."""
    lcp = make_lcp(scheme)
    n = 4
    brute = [
        (tuple(i.graph.edges), labeling_key(i.labeling, node_sort_order(i.graph)))
        for i in yes_instances_up_to(
            lcp, n, symmetry="off"
        )
    ]
    account = SymmetryAccount()
    pruned = [
        (tuple(i.graph.edges), labeling_key(i.labeling, node_sort_order(i.graph)))
        for i in yes_instances_up_to(
            lcp, n, symmetry="on", account=account
        )
    ]
    assert len(brute) == len(pruned) + account.instances_suppressed
    it = iter(brute)
    assert all(item in it for item in pruned)  # subsequence, order preserved


class TestOrbitPruningMechanics:
    """The two pruning mechanisms against fresh brute-force loops."""

    def _base(self, graph):
        lcp = make_lcp("degree-one")  # anonymous, 4-symbol alphabet
        instance = Instance.build(graph)
        alphabet = lcp.certificate_alphabet(graph)
        return lcp, instance, alphabet

    @pytest.mark.parametrize("graph", [cycle_graph(4), cycle_graph(6), path_graph(4)])
    def test_labeling_orbit_pruning_is_exact(self, graph):
        lcp, instance, alphabet = self._base(graph)
        group = automorphism_group(graph)
        stabilizer = instance_stabilizer(
            group, graph, instance.ports, instance.ids, include_ids=False
        )
        assert stabilizer[0] == tuple(range(graph.order))  # identity first

        brute = list(
            reference_unanimous_labelings(
                lcp.decoder, instance, alphabet, lcp.radius, include_ids=False
            )
        )
        account = SymmetryAccount()
        pruned = list(
            unanimously_accepted_labelings(
                lcp.decoder,
                instance,
                alphabet,
                lcp.radius,
                include_ids=False,
                stabilizer=stabilizer,
                account=account,
            )
        )
        # Exact accounting: reps + suppressed mates = brute total.
        assert len(brute) == len(pruned) + account.instances_suppressed
        assert account.labelings_total == len(alphabet) ** graph.order
        if len(stabilizer) > 1:
            # A nontrivial port-preserving symmetry must actually prune.
            assert account.labelings_pruned > 0
        else:
            assert account.labelings_pruned == 0
            assert account.instances_suppressed == 0

        # Soundness: every brute labeling is a stabilizer-image of a rep.
        order = node_sort_order(graph)
        nodes = tuple(graph.nodes)
        rep_keys = {labeling_key(lab, order) for lab in pruned}
        brute_keys = {labeling_key(lab, order) for lab in brute}
        assert rep_keys <= brute_keys
        orbit_closure = set()
        for lab in pruned:
            values = [lab.of(v) for v in nodes]
            for sigma in stabilizer:
                mapped = {nodes[sigma[i]]: values[i] for i in range(len(nodes))}
                orbit_closure.add(
                    tuple(mapped[v] for v in order)
                )
        assert brute_keys <= orbit_closure

    def test_c4_canonical_base_has_nontrivial_stabilizer(self):
        # Guarantees the orbit-pruned branch above is actually exercised:
        # C4 keeps a port-preserving reflection under canonical ports.
        graph = cycle_graph(4)
        instance = Instance.build(graph)
        group = automorphism_group(graph)
        stabilizer = instance_stabilizer(
            group, graph, instance.ports, instance.ids, include_ids=False
        )
        assert len(stabilizer) > 1

    def test_trivial_stabilizer_changes_nothing(self):
        # An identity-only stabilizer must give the unpruned stream.
        graph = path_graph(3)
        lcp, instance, alphabet = self._base(graph)
        identity = (tuple(range(graph.order)),)
        brute = [
            labeling_key(lab, node_sort_order(graph))
            for lab in reference_unanimous_labelings(
                lcp.decoder, instance, alphabet, lcp.radius, include_ids=False
            )
        ]
        account = SymmetryAccount()
        same = [
            labeling_key(lab, node_sort_order(graph))
            for lab in unanimously_accepted_labelings(
                lcp.decoder,
                instance,
                alphabet,
                lcp.radius,
                include_ids=False,
                stabilizer=identity,
                account=account,
            )
        ]
        assert same == brute
        assert account.instances_suppressed == 0
        assert account.labelings_pruned == 0

    def test_base_signature_pruning_collapses_automorphic_bases(self):
        """On a symmetric graph, distinct id orders that are automorphic
        images of each other collapse to one scanned base."""
        lcp = make_lcp("degree-one")
        account = SymmetryAccount()
        pruned = list(
            yes_instances_up_to(
                lcp, 3, id_order_types=True, symmetry="on", account=account
            )
        )
        brute = list(yes_instances_up_to(lcp, 3, id_order_types=True, symmetry="off"))
        assert account.bases_total > 0
        assert account.bases_pruned > 0  # e.g. the two id orders of K2
        assert len(brute) == len(pruned) + account.instances_suppressed
