"""Machine checks for completeness, soundness, and strong soundness.

Each checker enumerates (instances × labelings) and returns a
:class:`~repro.certification.reports.CheckReport` with explicit
counterexamples.  The quantifier structure mirrors Section 2:

* completeness — ∀ yes-instance ∀ ports ∀ ids ∃ labeling accepted by all
  (we check the prover's labelings over enumerated/sampled ports & ids);
* soundness — ∀ no-instance ∀ ports ∀ ids ∀ labeling ∃ rejecting node;
* strong soundness — ∀ instance ∀ ports ∀ ids ∀ labeling: accepting nodes
  induce a bipartite graph (for 2-col).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..graphs.graph import Graph, Node
from ..graphs.properties import BipartitionResult, bipartition
from ..local.identifiers import IdentifierAssignment
from ..local.instance import Instance
from ..local.labeling import Labeling
from ..local.ports import PortAssignment, all_port_assignments, count_port_assignments
from ..local.views import extract_view_layouts, view_with_labels
from .adversary import Adversary
from .lcp import LCP
from .reports import CheckKind, CheckReport, Violation


class FastVerifier:
    """Run one decoder over many labelings of one instance, cheaply.

    View canonicalization never depends on labels, so the views of every
    labeling share the same templates; only the label tuples change.
    Each distinct template keeps a dict from the label tuples seen at
    its positions to the decoder's verdict, so a view that recurs across
    labelings (or across nodes sharing a template) is decided once, and
    each distinct accepting-node set is 2-colored once
    (:meth:`accepting_split`).  This makes exhaustive-adversary sweeps
    (``|Σ|^n`` labelings) orders of magnitude faster than re-extracting
    and re-deciding views each time.
    """

    def __init__(self, lcp: LCP, instance: Instance) -> None:
        self._decide = lcp.decoder.decide
        self._graph = instance.graph
        verdicts: dict = {}
        self._layouts = [
            (v, template, order, verdicts.setdefault(template, {}))
            for v, (template, order) in extract_view_layouts(
                instance.without_labeling(), lcp.radius, include_ids=not lcp.anonymous
            ).items()
        ]
        self._splits: dict[frozenset, BipartitionResult] = {}

    def _vote(self, template, order, verdicts: dict, labeling: Labeling) -> bool:
        labels = tuple(map(labeling.of, order))
        try:
            return verdicts[labels]
        except KeyError:
            verdict = verdicts[labels] = self._decide(view_with_labels(template, labels))
            return verdict

    def votes(self, labeling: Labeling) -> dict[Node, bool]:
        vote = self._vote
        return {
            v: vote(template, order, verdicts, labeling)
            for v, template, order, verdicts in self._layouts
        }

    def unanimous(self, labeling: Labeling) -> bool:
        vote = self._vote
        for _v, template, order, verdicts in self._layouts:
            if not vote(template, order, verdicts, labeling):
                return False
        return True

    def accepting(self, labeling: Labeling) -> set[Node]:
        return {v for v, vote in self.votes(labeling).items() if vote}

    def accepting_split(self, labeling: Labeling) -> BipartitionResult:
        """:func:`~repro.graphs.properties.bipartition` of the subgraph
        the accepting nodes induce, computed once per accepting set."""
        accepting = frozenset(self.accepting(labeling))
        split = self._splits.get(accepting)
        if split is None:
            split = self._splits[accepting] = bipartition(
                self._graph.induced_subgraph(accepting)
            )
        return split


def instances_for(
    graph: Graph,
    port_limit: int = 8,
    id_samples: int = 2,
    id_bound_factor: int = 2,
    seed: int = 0,
) -> Iterator[Instance]:
    """Enumerate (ports × identifiers) configurations of one graph.

    Ports: all assignments when their count is at most *port_limit*, else
    the canonical one plus random ones up to the limit.  Identifiers: the
    canonical ``1..n`` plus *id_samples - 1* random assignments into
    ``[id_bound_factor * n]``.
    """
    n = graph.order
    id_bound = max(1, id_bound_factor * n)

    ports: list[PortAssignment] = []
    if count_port_assignments(graph) <= port_limit:
        ports = list(all_port_assignments(graph))
    else:
        ports = [PortAssignment.canonical(graph)]
        ports += [PortAssignment.random(graph, seed + i) for i in range(1, port_limit)]

    identifier_sets = [IdentifierAssignment.canonical(graph)]
    identifier_sets += [
        IdentifierAssignment.random(graph, id_bound, seed + 100 + i)
        for i in range(max(0, id_samples - 1))
    ]

    for prt in ports:
        for ids in identifier_sets:
            yield Instance(graph=graph, ports=prt, ids=ids, id_bound=id_bound)


def check_completeness(
    lcp: LCP,
    graphs: Iterable[Graph],
    port_limit: int = 8,
    id_samples: int = 2,
    seed: int = 0,
) -> CheckReport:
    """Prover certificates must be unanimously accepted on yes-instances."""
    report = CheckReport(kind=CheckKind.COMPLETENESS, lcp_name=lcp.name)
    for graph in graphs:
        if not lcp.is_yes_instance(graph):
            report.notes.append(f"skipped non-yes-instance graph (n={graph.order})")
            continue
        report.graphs_checked += 1
        for instance in instances_for(graph, port_limit=port_limit, id_samples=id_samples, seed=seed):
            report.instances_checked += 1
            labeling = lcp.prover.certify(instance)
            report.labelings_checked += 1
            result = lcp.check(instance.with_labeling(labeling))
            if not result.unanimous:
                report.violations.append(
                    Violation(
                        kind=CheckKind.COMPLETENESS,
                        instance=instance,
                        labeling=labeling,
                        rejecting=tuple(sorted(result.rejecting, key=repr)),
                        note="prover certificate rejected",
                    )
                )
    return report


def check_soundness(
    lcp: LCP,
    graphs: Iterable[Graph],
    adversary: Adversary,
    port_limit: int = 2,
    id_samples: int = 1,
    seed: int = 0,
) -> CheckReport:
    """No labeling of a no-instance may be unanimously accepted."""
    report = CheckReport(kind=CheckKind.SOUNDNESS, lcp_name=lcp.name)
    report.exhaustive = adversary.exhaustive
    for graph in graphs:
        if not lcp.is_no_instance(graph):
            report.notes.append(f"skipped non-no-instance graph (n={graph.order})")
            continue
        report.graphs_checked += 1
        for instance in instances_for(graph, port_limit=port_limit, id_samples=id_samples, seed=seed):
            report.instances_checked += 1
            verifier = FastVerifier(lcp, instance)
            for labeling in adversary.labelings(lcp, instance):
                report.labelings_checked += 1
                if verifier.unanimous(labeling):
                    report.violations.append(
                        Violation(
                            kind=CheckKind.SOUNDNESS,
                            instance=instance,
                            labeling=labeling,
                            note="no-instance accepted unanimously",
                        )
                    )
    return report


def check_strong_soundness(
    lcp: LCP,
    graphs: Iterable[Graph],
    adversary: Adversary,
    port_limit: int = 2,
    id_samples: int = 1,
    seed: int = 0,
) -> CheckReport:
    """Accepting nodes must induce a 2-colorable subgraph, on *every*
    graph and labeling (Section 2.3) — no promise filter here."""
    report = CheckReport(kind=CheckKind.STRONG_SOUNDNESS, lcp_name=lcp.name)
    report.exhaustive = adversary.exhaustive
    for graph in graphs:
        report.graphs_checked += 1
        for instance in instances_for(graph, port_limit=port_limit, id_samples=id_samples, seed=seed):
            report.instances_checked += 1
            verifier = FastVerifier(lcp, instance)
            for labeling in adversary.labelings(lcp, instance):
                report.labelings_checked += 1
                split = verifier.accepting_split(labeling)
                if not split.is_bipartite:
                    report.violations.append(
                        Violation(
                            kind=CheckKind.STRONG_SOUNDNESS,
                            instance=instance,
                            labeling=labeling,
                            witness=tuple(split.odd_cycle or ()),
                            note="accepting nodes induce an odd cycle",
                        )
                    )
    return report


def find_strong_soundness_violation(
    lcp: LCP,
    graphs: Iterable[Graph],
    adversary: Adversary,
    port_limit: int = 2,
    seed: int = 0,
) -> Violation | None:
    """First strong-soundness violation found, or ``None``.

    Used by the impossibility probes (Theorem 1.2), where a single
    counterexample settles the question for a candidate decoder.
    """
    for graph in graphs:
        for instance in instances_for(graph, port_limit=port_limit, id_samples=1, seed=seed):
            verifier = FastVerifier(lcp, instance)
            for labeling in adversary.labelings(lcp, instance):
                split = verifier.accepting_split(labeling)
                if not split.is_bipartite:
                    return Violation(
                        kind=CheckKind.STRONG_SOUNDNESS,
                        instance=instance,
                        labeling=labeling,
                        witness=tuple(split.odd_cycle or ()),
                        note="accepting nodes induce an odd cycle",
                    )
    return None
