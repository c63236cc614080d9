"""Theorem experiments: machine checks for Theorems 1.1–1.4, Lemma 3.2,
and the Section 6 Ramsey reduction.

The two non-anonymous hiding witnesses follow Section 7's proofs:

* **Shatter (Thm 1.3)** — the paths ``P1`` (8 nodes) and ``P2`` (``P1``
  minus ``w1``, with ``w2`` re-attached to ``u1``) on shared node names,
  identifiers, and ports.  Component colorings are oriented so the views
  of ``w3`` and ``z2`` coincide across the two instances while their
  distances have different parity — an odd closed walk in ``V(D, 8)``.
* **Watermelon (Thm 1.4)** — one path ``P8`` under two identifier
  assignments (the second reverses the identifiers of the four middle
  nodes).  With a palindromic port assignment the view of ``u4`` in the
  first instance equals the view of ``u5`` in the second, closing a
  7-edge odd walk in ``V(D, 8)``.
"""

from __future__ import annotations

from ..certification.adversary import ExhaustiveAdversary, GreedyAdversary
from ..certification.checkers import (
    check_completeness,
    check_soundness,
    check_strong_soundness,
)
from ..certification.decoder import ConstantDecoder, FunctionDecoder
from ..certification.enumeration import EnumerativeLCP
from ..core.degree_one import DegreeOneLCP
from ..core.even_cycle import EvenCycleLCP
from ..core.shatter import ShatterLCP
from ..core.trivial import RevealingDecoder, RevealingLCP
from ..core.union import UnionLCP
from ..core.watermelon import WatermelonLCP
from ..engine import ExecutionPlan, decide_hiding
from ..graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    is_bipartite,
    pan_graph,
    path_graph,
    spider_graph,
    star_graph,
    theta_graph,
    watermelon_graph,
)
from ..graphs.families import (
    bipartite_min_degree_one_graphs_up_to,
    bipartite_shatter_graphs_up_to,
    even_cycles_up_to,
    watermelon_family_up_to,
)
from ..local.identifiers import IdentifierAssignment
from ..local.instance import Instance
from ..local.ports import PortAssignment
from ..local.views import extract_view
from ..neighborhood.extraction import build_extraction_decoder, run_extraction
from ..neighborhood.hiding import hiding_verdict_from_instances
from ..ramsey.order_invariant import ramsey_order_invariant_reduction
from ..ramsey.types import structure_catalog
from .registry import ExperimentResult, register


@register(
    "thm11",
    "Theorem 1.1: strong & hiding anonymous LCP for H1 ∪ H2",
    "Theorem 1.1 (Lemmas 4.1, 4.2)",
)
def run_thm11() -> ExperimentResult:
    """Machine-check all three properties of the union scheme:
    completeness over the enumerated promise family, exhaustive strong
    soundness on small graphs, and hiding via both witness families."""
    lcp = UnionLCP()
    yes_graphs = list(bipartite_min_degree_one_graphs_up_to(5)) + list(
        even_cycles_up_to(6)
    )
    completeness = check_completeness(lcp, yes_graphs, port_limit=4, id_samples=1)

    adversarial_graphs = [
        complete_graph(3),
        cycle_graph(5),
        pan_graph(3, 1),
        path_graph(4),
    ]
    strong = check_strong_soundness(
        lcp, adversarial_graphs, ExhaustiveAdversary(max_labelings=60_000), port_limit=1
    )
    sound = check_soundness(
        lcp, [complete_graph(3), cycle_graph(5)], ExhaustiveAdversary(max_labelings=60_000), port_limit=1
    )

    from .figures import degree_one_witness_instances, even_cycle_witness_instances  # noqa: PLC0415

    h1_verdict = hiding_verdict_from_instances(
        UnionLCP(), _retag_union(degree_one_witness_instances(), "H1")
    )
    h2_verdict = hiding_verdict_from_instances(
        UnionLCP(), _retag_union(even_cycle_witness_instances(), "H2")
    )

    rows = [
        {"property": "completeness", "summary": completeness.summary(), "ok": completeness.passed},
        {"property": "soundness", "summary": sound.summary(), "ok": sound.passed},
        {"property": "strong soundness", "summary": strong.summary(), "ok": strong.passed},
        {"property": "hiding via H1 witnesses", "summary": h1_verdict.summary(), "ok": h1_verdict.hiding is True},
        {"property": "hiding via H2 witnesses", "summary": h2_verdict.summary(), "ok": h2_verdict.hiding is True},
    ]
    ok = all(row["ok"] for row in rows)
    return ExperimentResult(
        exp_id="thm11",
        title="Theorem 1.1: strong & hiding anonymous LCP for H1 ∪ H2",
        paper_claim="one-round anonymous constant-size strong & hiding LCP "
        "for graphs with δ=1 or even cycles",
        ok=ok,
        rows=rows,
    )


def _retag_union(instances: list[Instance], tag: str) -> list[Instance]:
    """Wrap sub-scheme certificates in the union scheme's tag."""
    from ..local.labeling import Labeling  # noqa: PLC0415

    out = []
    for instance in instances:
        labeling = instance.require_labeling()
        tagged = Labeling({v: (tag, labeling.of(v)) for v in labeling.nodes()})
        out.append(instance.with_labeling(tagged))
    return out


# ----------------------------------------------------------------------
# Theorem 1.3 — shatter points
# ----------------------------------------------------------------------


def shatter_hiding_witnesses() -> tuple[Instance, Instance]:
    """The Section 7.1 pair ``(P1, P2)`` with aligned labels and ports.

    ``P1``: path ``w3-w2-w1-u1-v-u2-z1-z2`` (nodes 0..7).
    ``P2``: same names minus ``w1`` (node 2); ``w2`` re-attached to
    ``u1``.  Shared identifiers ``i+1`` and id bound 8.  Component
    colorings: ``P1`` uses touch vector ``(0, 0)``, ``P2`` uses
    ``(1, 0)`` — so the certificates of ``w3``/``w2`` and ``z1``/``z2``
    agree across the instances and the boundary views glue.
    """
    from ..core.shatter import (  # noqa: PLC0415
        component_certificate,
        neighbor_certificate,
        shatter_certificate,
    )
    from ..local.labeling import Labeling  # noqa: PLC0415

    p1 = path_graph(8)
    ids1 = IdentifierAssignment({i: i + 1 for i in range(8)})
    inst1 = Instance.build(p1, ids=ids1, id_bound=8)
    vid = 5  # identifier of the shatter point v = node 4
    labels1 = {
        0: component_certificate(vid, 1, 0),
        1: component_certificate(vid, 1, 1),
        2: component_certificate(vid, 1, 0),
        3: neighbor_certificate(vid, (0, 0)),
        4: shatter_certificate(vid),
        5: neighbor_certificate(vid, (0, 0)),
        6: component_certificate(vid, 2, 0),
        7: component_certificate(vid, 2, 1),
    }
    inst1 = inst1.with_labeling(Labeling(labels1))

    p2 = Graph(
        nodes=[0, 1, 3, 4, 5, 6, 7],
        edges=[(0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
    )
    ids2 = IdentifierAssignment({i: i + 1 for i in [0, 1, 3, 4, 5, 6, 7]})
    inst2 = Instance.build(p2, ids=ids2, id_bound=8)
    labels2 = {
        0: component_certificate(vid, 1, 0),
        1: component_certificate(vid, 1, 1),
        3: neighbor_certificate(vid, (1, 0)),
        4: shatter_certificate(vid),
        5: neighbor_certificate(vid, (1, 0)),
        6: component_certificate(vid, 2, 0),
        7: component_certificate(vid, 2, 1),
    }
    inst2 = inst2.with_labeling(Labeling(labels2))
    return inst1, inst2


@register(
    "thm13",
    "Theorem 1.3: strong & hiding LCP for shatter-point graphs",
    "Theorem 1.3, Lemma 7.1, Section 7.1",
)
def run_thm13() -> ExperimentResult:
    lcp = ShatterLCP()
    yes_graphs = list(bipartite_shatter_graphs_up_to(6))
    completeness = check_completeness(lcp, yes_graphs, port_limit=2, id_samples=2)

    pool = [path_graph(8), spider_graph(3, 2), grid_graph(2, 4), star_graph(4)]
    strong = check_strong_soundness(
        lcp,
        [complete_graph(3), cycle_graph(5), pan_graph(5, 1), theta_graph(2, 2, 3)],
        GreedyAdversary(restarts=6, sweeps=3, seed=7, pool_graphs=pool),
        port_limit=1,
    )

    inst1, inst2 = shatter_hiding_witnesses()
    accepted1 = lcp.check(inst1).unanimous
    accepted2 = lcp.check(inst2).unanimous
    glue_w3 = extract_view(inst1, 0, 1) == extract_view(inst2, 0, 1)
    glue_z2 = extract_view(inst1, 7, 1) == extract_view(inst2, 7, 1)
    verdict = hiding_verdict_from_instances(lcp, [inst1, inst2])

    # The weakened decoders admit explicit strong-soundness violations
    # (reproduction note in the module docstring of repro.core.shatter).
    weak_anchor = ShatterLCP(anchored_type0_id=False)
    weak_color = ShatterLCP(common_touch_color=False)
    # Direct hand-built counterexamples (deterministic, no search needed):
    anchor_broken = _check_rogue_type1_counterexample(weak_anchor)
    color_broken = _check_common_color_counterexample(weak_color)
    repaired_resists = not _check_rogue_type1_counterexample(lcp) and not _check_common_color_counterexample(lcp)

    rows = [
        {"property": "completeness", "summary": completeness.summary(), "ok": completeness.passed},
        {"property": "strong soundness (greedy adversary)", "summary": strong.summary(), "ok": strong.passed},
        {"property": "P1/P2 unanimously accepted", "summary": f"{accepted1}/{accepted2}", "ok": accepted1 and accepted2},
        {"property": "boundary views glue (w3, z2)", "summary": f"{glue_w3}/{glue_z2}", "ok": glue_w3 and glue_z2},
        {"property": "hiding via P1/P2", "summary": verdict.summary(), "ok": verdict.hiding is True},
        {"property": "weakened decoder (no id anchor) broken", "summary": str(anchor_broken), "ok": anchor_broken},
        {"property": "weakened decoder (no common color) broken", "summary": str(color_broken), "ok": color_broken},
        {"property": "repaired decoder resists both counterexamples", "summary": str(repaired_resists), "ok": repaired_resists},
    ]
    ok = all(row["ok"] for row in rows)
    return ExperimentResult(
        exp_id="thm13",
        title="Theorem 1.3: strong & hiding LCP for shatter-point graphs",
        paper_claim="O(min{Δ²,n}+log n)-bit strong & hiding one-round LCP; "
        "hiding witnessed by the P1/P2 path pair",
        ok=ok,
        rows=rows,
        notes=[
            "decoder carries two repairs over the paper's literal conditions; "
            "both weakened variants are machine-refuted (see repro.core.shatter)"
        ],
    )


def _check_rogue_type1_counterexample(lcp: ShatterLCP) -> bool:
    """The rogue-type-1 attack against the unanchored decoder.

    A 7-cycle ``v u1 a1 a2 u' b1 u2`` where the genuine shatter point
    ``v`` sits on the cycle and the far type-1 node ``u'`` is vouched by
    a *rejecting* pendant type-0 node ``w0'`` that merely claims ``v``'s
    identifier.  ``u'`` stitches components 1 and 2 together at odd
    parity; every cycle node accepts, only the pendant rejects.  With the
    anchored-identifier repair, ``u'`` notices its anchor's actual
    identifier is wrong and rejects.  Returns True iff the attack goes
    through (decoder broken).
    """
    from ..core.shatter import (  # noqa: PLC0415
        component_certificate,
        neighbor_certificate,
        shatter_certificate,
    )
    from ..local.labeling import Labeling  # noqa: PLC0415
    from ..graphs.properties import bipartition  # noqa: PLC0415

    # v=0, u1=1, a1=2, a2=3, u'=4, b1=5, u2=6, w0'=7; canonical ids i+1.
    g = Graph(
        nodes=range(8),
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (4, 7)],
    )
    vid = 1  # Id(v)
    labels = {
        0: shatter_certificate(vid),
        1: neighbor_certificate(vid, (0, 1)),
        2: component_certificate(vid, 1, 0),
        3: component_certificate(vid, 1, 1),
        4: neighbor_certificate(vid, (1, 1)),
        5: component_certificate(vid, 2, 1),
        6: neighbor_certificate(vid, (0, 1)),
        7: shatter_certificate(vid),  # claims v's identifier; its own is 8
    }
    instance = Instance.build(g, id_bound=8).with_labeling(Labeling(labels))
    result = lcp.check(instance)
    induced = g.induced_subgraph(result.accepting)
    return not bipartition(induced).is_bipartite


def _check_common_color_counterexample(lcp: ShatterLCP) -> bool:
    """The C5-through-two-type-1-nodes attack against the decoder without
    the common-touch-color check: colors vectors differ per type-1 node
    but each condition 2(c)/3(b,c) holds pointwise.  Returns True iff the
    attack goes through."""
    from ..core.shatter import (  # noqa: PLC0415
        component_certificate,
        neighbor_certificate,
        shatter_certificate,
    )
    from ..local.labeling import Labeling  # noqa: PLC0415
    from ..graphs.properties import bipartition  # noqa: PLC0415

    # C5 = A(1) B(2) C(3) D(4) E(5); pendant anchor w0 adjacent to A and D.
    g = Graph(
        nodes=range(6),
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (3, 5)],
    )
    claimed = 6  # node 5's canonical identifier
    labels = {
        0: neighbor_certificate(claimed, (0, 0)),   # A: touches B (#1, x=0) and E (#2, x=0)
        1: component_certificate(claimed, 1, 0),     # B
        2: component_certificate(claimed, 1, 1),     # C
        3: neighbor_certificate(claimed, (1, 0)),    # D: touches C (#1, x=1) and E (#2, x=0)
        4: component_certificate(claimed, 2, 0),     # E
        5: shatter_certificate(claimed),             # w0 (rejects: contents differ)
    }
    instance = Instance.build(g, id_bound=6).with_labeling(Labeling(labels))
    result = lcp.check(instance)
    induced = g.induced_subgraph(result.accepting)
    return not bipartition(induced).is_bipartite


# ----------------------------------------------------------------------
# Theorem 1.4 — watermelons
# ----------------------------------------------------------------------


def watermelon_hiding_witnesses() -> tuple[Instance, Instance]:
    """The Section 7.2 pair: one P8 under two identifier assignments.

    Ports are chosen palindromically so the reflected middle views
    coincide: ``prt(u4→u5) = prt(u5→u4) = 1`` and outward ports mirror.
    Identifier assignment 2 reverses the identifiers of ``u3..u6``.
    """
    graph = path_graph(8)
    ports = PortAssignment(
        {
            0: {1: 1},
            1: {2: 1, 0: 2},
            2: {3: 1, 1: 2},
            3: {4: 1, 2: 2},
            4: {3: 1, 5: 2},
            5: {4: 1, 6: 2},
            6: {5: 1, 7: 2},
            7: {6: 1},
        }
    )
    ids1 = IdentifierAssignment({i: i + 1 for i in range(8)})
    ids2 = IdentifierAssignment({0: 1, 1: 2, 2: 6, 3: 5, 4: 4, 5: 3, 6: 7, 7: 8})
    lcp = WatermelonLCP()
    inst1 = Instance(graph=graph, ports=ports, ids=ids1, id_bound=8)
    inst2 = Instance(graph=graph, ports=ports, ids=ids2, id_bound=8)
    inst1.validate()
    inst2.validate()
    inst1 = inst1.with_labeling(lcp.prover.certify(inst1))
    inst2 = inst2.with_labeling(lcp.prover.certify(inst2))
    return inst1, inst2


@register(
    "thm14",
    "Theorem 1.4: strong & hiding LCP for watermelon graphs",
    "Theorem 1.4, Section 7.2",
)
def run_thm14() -> ExperimentResult:
    lcp = WatermelonLCP()
    yes_graphs = [g for g in watermelon_family_up_to(7) if is_bipartite(g)]
    completeness = check_completeness(lcp, yes_graphs, port_limit=2, id_samples=2)

    pool = [path_graph(8), watermelon_graph([2, 2]), watermelon_graph([2, 4]), theta_graph(2, 2, 2)]
    strong = check_strong_soundness(
        lcp,
        [complete_graph(3), cycle_graph(5), theta_graph(2, 2, 3), pan_graph(3, 2)],
        GreedyAdversary(restarts=6, sweeps=3, seed=11, pool_graphs=pool),
        port_limit=1,
    )

    inst1, inst2 = watermelon_hiding_witnesses()
    accepted = lcp.check(inst1).unanimous and lcp.check(inst2).unanimous
    glue_ends = extract_view(inst1, 0, 1) == extract_view(inst2, 0, 1)
    glue_middle = extract_view(inst1, 3, 1) == extract_view(inst2, 4, 1)
    verdict = hiding_verdict_from_instances(lcp, [inst1, inst2])

    rows = [
        {"property": "completeness", "summary": completeness.summary(), "ok": completeness.passed},
        {"property": "strong soundness (greedy adversary)", "summary": strong.summary(), "ok": strong.passed},
        {"property": "I1/I2 unanimously accepted", "summary": str(accepted), "ok": accepted},
        {"property": "view gluing: u1 and u4/u5", "summary": f"{glue_ends}/{glue_middle}", "ok": glue_ends and glue_middle},
        {"property": "hiding via I1/I2", "summary": verdict.summary(), "ok": verdict.hiding is True},
    ]
    ok = all(row["ok"] for row in rows)
    return ExperimentResult(
        exp_id="thm14",
        title="Theorem 1.4: strong & hiding LCP for watermelon graphs",
        paper_claim="O(log n)-bit strong & hiding one-round LCP for "
        "watermelon graphs; hiding via two identifier assignments of P8",
        ok=ok,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Lemma 3.2 — the characterization, both directions
# ----------------------------------------------------------------------


@register(
    "lem32",
    "Lemma 3.2: hiding ⇔ V(D, n) not k-colorable",
    "Lemma 3.2, Section 3",
)
def run_lem32() -> ExperimentResult:
    rows = []
    # Direction 1: hiding schemes have non-2-colorable neighborhood graphs
    # (full sweeps, so the table reports the complete V(D, n)).
    for name, lcp, n in [
        ("degree-one", DegreeOneLCP(), 4),
        ("even-cycle", EvenCycleLCP(), 6),
    ]:
        verdict = decide_hiding(lcp, n, ExecutionPlan(early_exit=False))
        rows.append(
            {
                "lcp": name,
                "n": n,
                "V_order": verdict.ngraph.order,
                "V_size": verdict.ngraph.size,
                "verdict": verdict.summary(),
                "ok": verdict.hiding is True,
            }
        )
    # Direction 2: the revealing baseline is 2-colorable; the compiled
    # extraction decoder recovers a proper coloring on accepted instances.
    lcp = RevealingLCP()
    # The extraction direction consumes the complete V(D, n), which a
    # full sweep guarantees even on future hiding=True schemes.
    verdict = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False))
    decoder = (
        build_extraction_decoder(verdict.ngraph, 2) if verdict.hiding is False else None
    )
    extraction_ok = False
    if decoder is not None:
        extraction_ok = True
        for graph in [path_graph(4), cycle_graph(4), star_graph(3)]:
            instance = Instance.build(graph, id_bound=4)
            labeling = lcp.prover.certify(instance)
            outcome = run_extraction(decoder, lcp, instance.with_labeling(labeling))
            extraction_ok = extraction_ok and outcome.proper
    rows.append(
        {
            "lcp": "revealing",
            "n": 4,
            "V_order": verdict.ngraph.order,
            "V_size": verdict.ngraph.size,
            "verdict": verdict.summary() + f"; extraction proper={extraction_ok}",
            "ok": verdict.hiding is False and extraction_ok,
        }
    )
    # General k: the k = 3 instantiation of the characterization.
    lcp3 = RevealingLCP(k=3)
    verdict3 = decide_hiding(
        lcp3, 4, ExecutionPlan(early_exit=False, labeling_limit=5_000)
    )
    decoder3 = (
        build_extraction_decoder(verdict3.ngraph, 3)
        if verdict3.hiding is False
        else None
    )
    extraction3 = False
    if decoder3 is not None:
        instance3 = Instance.build(complete_graph(3), id_bound=4)
        labeling3 = lcp3.prover.certify(instance3)
        extraction3 = run_extraction(
            decoder3, lcp3, instance3.with_labeling(labeling3)
        ).proper
    rows.append(
        {
            "lcp": "revealing (k=3)",
            "n": 4,
            "V_order": verdict3.ngraph.order,
            "V_size": verdict3.ngraph.size,
            "verdict": verdict3.summary() + f"; extraction proper={extraction3}",
            "ok": verdict3.hiding is False and extraction3,
        }
    )
    ok = all(row["ok"] for row in rows)
    return ExperimentResult(
        exp_id="lem32",
        title="Lemma 3.2: hiding ⇔ V(D, n) not k-colorable",
        paper_claim="odd cycles in V(D,n) certify hiding; a 2-colorable "
        "V(D,n) compiles into an extraction decoder D'",
        ok=ok,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Theorem 1.2 / 6.3 — impossibility dichotomy probe
# ----------------------------------------------------------------------


def _candidate_decoders() -> list[tuple[str, EnumerativeLCP]]:
    """The Theorem 1.2 candidate catalog on the class B(Δ, r).

    Each candidate is a one-round decoder with a small certificate
    alphabet, wrapped as an LCP by exhaustive proving.
    """
    def degree_cap(view) -> bool:
        return view.center_degree <= 3

    catalog: list[tuple[str, EnumerativeLCP]] = [
        (
            "accept-all",
            EnumerativeLCP(
                ConstantDecoder(True, anonymous=True), ["c"], promise_fn=is_bipartite,
                name="accept-all",
            ),
        ),
        (
            "degree-cap",
            EnumerativeLCP(
                FunctionDecoder(degree_cap, anonymous=True, name="degree-cap"),
                ["c"],
                promise_fn=is_bipartite,
                name="degree-cap",
            ),
        ),
        (
            "revealing",
            EnumerativeLCP(
                RevealingDecoder(2), [0, 1], promise_fn=is_bipartite, name="revealing"
            ),
        ),
        (
            "parity-of-ports",
            EnumerativeLCP(
                FunctionDecoder(
                    lambda view: all(
                        view.label_of(w) != view.center_label
                        for w in view.neighbors_in_view(0)
                    ),
                    anonymous=True,
                    name="neighbor-disagreement",
                ),
                ["a", "b", "c"],
                promise_fn=is_bipartite,
                name="neighbor-disagreement-3",
            ),
        ),
    ]
    return catalog


@register(
    "thm12",
    "Theorem 1.2/6.3: no strong & hiding LCP on r-forgetful classes",
    "Theorems 1.2, 1.5, 6.3",
)
def run_thm12() -> ExperimentResult:
    """Dichotomy probe: every candidate decoder on the r-forgetful class
    is either revealed (2-colorable witness V) or breaks strong soundness
    (an accepted odd-cycle counterexample exists).

    The theorem quantifies over all decoders; this experiment
    machine-checks its prediction on an explicit catalog (and the unit
    tests add random decoders).  The witness yes-instance is the
    bipartite theta graph θ(4,4,6): connected, 1-forgetful, min degree 2,
    two cycles — exactly the class B(Δ, r) of Theorem 6.3.
    """
    theta = theta_graph(4, 4, 6)
    no_instances = [cycle_graph(5), theta_graph(2, 2, 3), complete_graph(3)]
    rows = []
    ok = True
    for name, lcp in _candidate_decoders():
        from ..neighborhood.aviews import labeled_yes_instances  # noqa: PLC0415
        from ..neighborhood.ngraph import build_neighborhood_graph  # noqa: PLC0415

        try:
            labeled = list(
                labeled_yes_instances(lcp, [theta], port_limit=1, id_bound=theta.order)
            )
        except Exception:
            labeled = []
        complete_on_theta = bool(labeled)
        hiding = None
        if labeled:
            # Bounded scan: a handful of accepted labelings suffices for a
            # positive hiding witness.
            ngraph = build_neighborhood_graph(lcp, labeled[:40])
            odd = ngraph.find_odd_cycle()
            hiding = True if odd is not None else None

        strong_report = check_strong_soundness(
            lcp, no_instances, ExhaustiveAdversary(max_labelings=100_000), port_limit=1
        )
        strong = strong_report.passed
        dichotomy_ok = not (complete_on_theta and strong and hiding is True)
        ok = ok and dichotomy_ok
        rows.append(
            {
                "decoder": name,
                "complete_on_theta": complete_on_theta,
                "hiding_witness": hiding,
                "strong_sound": strong,
                "dichotomy_holds": dichotomy_ok,
            }
        )
    return ExperimentResult(
        exp_id="thm12",
        title="Theorem 1.2/6.3: no strong & hiding LCP on r-forgetful classes",
        paper_claim="no one-round constant-size LCP on B(Δ, r) is "
        "simultaneously complete, strongly sound, and hiding",
        ok=ok,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Lemma 6.2 — the Ramsey reduction
# ----------------------------------------------------------------------


@register(
    "lem62",
    "Lemma 6.2: Ramsey reduction to order-invariant decoders",
    "Lemma 6.2, Section 6",
)
def run_lem62() -> ExperimentResult:
    """Run the finite Ramsey pipeline on a constant-size, genuinely
    identifier-value-dependent decoder and verify the reduction.

    Lemma 6.2 is stated for constant-size certificates (the watermelon/
    shatter certificates embed identifier *values* and are outside its
    scope).  The probe decoder accepts iff the certificate bit matches
    ``center_id mod 2`` — maximally value-dependent and not
    order-invariant.  The pipeline must (a) find a monochromatic
    identifier set, (b) produce an order-invariant ``D'``, and (c) have
    ``D'`` agree with ``D`` on instances whose identifiers are drawn
    from the monochromatic set, including all their order types.
    """
    from ..local.algorithms import is_order_invariant_on  # noqa: PLC0415

    def id_parity(view) -> bool:
        return view.center_label == view.center_id % 2

    decoder = FunctionDecoder(id_parity, anonymous=False, name="id-parity")
    lcp = EnumerativeLCP(decoder, [0, 1], promise_fn=is_bipartite, name="id-parity")
    base = Instance.build(path_graph(5), id_bound=24)
    labeled = base.with_labeling(lcp.prover.certify(base))
    catalog = structure_catalog(decoder, [labeled])
    reduction, dprime = ramsey_order_invariant_reduction(
        decoder, catalog, tuple(range(1, 25)), target_size=6
    )
    rows = [
        {
            "catalog_structures": reduction.catalog_size,
            "subset_size_s": reduction.subset_size,
            "universe": f"[1..{max(reduction.universe)}]",
            "monochromatic_set": reduction.monochromatic_set,
            "found": reduction.succeeded,
        }
    ]
    ok = reduction.succeeded and dprime is not None
    if ok:
        # The original decoder is NOT order-invariant; D' must be.
        from ..local.labeling import Labeling  # noqa: PLC0415

        probe = Instance.build(path_graph(4), id_bound=4)
        probe = probe.with_labeling(Labeling({v: v % 2 for v in probe.graph.nodes}))
        original_invariant = is_order_invariant_on(decoder, probe)
        invariant = is_order_invariant_on(dprime, probe)
        # Agreement with D on identifier draws from the monochromatic set.
        agree = True
        chosen = sorted(reduction.monochromatic_set)
        if len(chosen) >= 5:
            ids = IdentifierAssignment({i: chosen[i] for i in range(5)})
            inst = Instance.build(path_graph(5), ids=ids, id_bound=24)
            inst = inst.with_labeling(lcp.prover.certify(inst))
            for v in inst.graph.nodes:
                view = extract_view(inst, v, 1)
                if dprime.decide(view) != decoder.decide(view):
                    agree = False
        rows.append(
            {
                "original_order_invariant": original_invariant,
                "reduced_order_invariant": invariant,
                "agrees_on_mono_ids": agree,
            }
        )
        ok = ok and invariant and agree and not original_invariant
    return ExperimentResult(
        exp_id="lem62",
        title="Lemma 6.2: Ramsey reduction to order-invariant decoders",
        paper_claim="constant-size decoders reduce to order-invariant ones "
        "via a monochromatic identifier set",
        ok=ok,
        rows=rows,
    )
