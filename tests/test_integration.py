"""End-to-end integration tests crossing all layers: prover →
message-passing verification → neighborhood graph → hiding/extraction →
realizability, mirroring the examples."""

from repro.certification import ConstantDecoder, EnumerativeLCP
from repro.core import DegreeOneLCP, RevealingLCP, UnionLCP, all_lcps, make_lcp, scheme_names
from repro.graphs import cycle_graph, grid_graph, is_bipartite, path_graph, theta_graph
from repro.local import Instance
from repro.engine import ExecutionPlan, decide_hiding
from repro.neighborhood import (
    build_extraction_decoder,
    build_neighborhood_graph,
    labeled_yes_instances,
    run_extraction,
)
from repro.realizability import candidates_from_witnesses, realize_views

from .simulator import run_algorithm_distributed


def test_registry_round_trip_all_schemes():
    """Every registered scheme certifies and verifies its canonical
    instance through the distributed (message-passing) pipeline."""
    canonical = {
        "revealing": path_graph(6),
        "degree-one": path_graph(6),
        "even-cycle": cycle_graph(6),
        "union": path_graph(6),
        "shatter": path_graph(8),
        "watermelon": theta_graph(2, 2, 2),
        "universal": grid_graph(2, 4),
    }
    assert set(canonical) == set(scheme_names())
    for name, graph in canonical.items():
        lcp = make_lcp(name)
        instance = Instance.build(graph)
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        votes, stats = run_algorithm_distributed(lcp.decoder, labeled)
        assert all(votes.values()), name
        assert stats.total_messages == 2 * graph.size


def test_all_lcps_factory():
    schemes = all_lcps()
    assert len(schemes) == 7
    assert {lcp.k for lcp in schemes.values()} == {2}
    assert all(lcp.radius == 1 for lcp in schemes.values())


def test_hiding_landscape():
    """The paper's headline landscape in one assertion block: the
    revealing baseline is extractable, the paper's schemes are not."""
    revealed = decide_hiding(RevealingLCP(), 4, ExecutionPlan(early_exit=False))
    hidden = decide_hiding(DegreeOneLCP(), 4, ExecutionPlan())
    assert revealed.hiding is False
    assert hidden.hiding is True

    decoder = build_extraction_decoder(revealed.ngraph, 2)
    lcp = RevealingLCP()
    instance = Instance.build(cycle_graph(4), id_bound=4)
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    assert run_extraction(decoder, lcp, labeled).proper

    assert build_extraction_decoder(hidden.ngraph, 2) is None


def test_union_inherits_both_hiding_families():
    """Theorem 1.1's union is hiding via either witness family."""
    from repro.experiments.theorems import _retag_union
    from repro.experiments.figures import (
        degree_one_witness_instances,
        even_cycle_witness_instances,
    )
    from repro.neighborhood import hiding_verdict_from_instances

    for witnesses, tag in [
        (degree_one_witness_instances(), "H1"),
        (even_cycle_witness_instances(), "H2"),
    ]:
        verdict = hiding_verdict_from_instances(UnionLCP(), _retag_union(witnesses, tag))
        assert verdict.hiding is True


def test_lemma51_realization_closes_the_loop():
    """Build V(D, n) for an identifier-aware accept-all decoder from one
    instance, realize all its views via the Lemma 5.1 merge, and confirm
    G_bad reproduces the instance with every center accepted."""
    lcp = EnumerativeLCP(
        ConstantDecoder(True, anonymous=False), ["c"],
        promise_fn=is_bipartite, name="accept-all-ids",
    )
    graph = theta_graph(2, 2, 4)
    labeled = list(labeled_yes_instances(lcp, [graph], port_limit=1, id_bound=graph.order))
    ngraph = build_neighborhood_graph(lcp, labeled)
    views = list(ngraph.views)
    candidates = candidates_from_witnesses(
        views, list(ngraph.view_witness.values()), lcp.radius
    )
    result = realize_views(lcp, views, candidates, id_bound=graph.order)
    assert result.realized
    assert result.all_centers_accepted
    assert result.instance.graph.order == graph.order
    assert sorted(result.instance.graph.degree_sequence()) == sorted(
        graph.degree_sequence()
    )


def test_cert_size_ordering():
    """The implicit results table's ordering: constant-size schemes sit
    strictly below the log-n schemes at moderate n."""
    n = 32
    sizes = {}
    for name, graph in [
        ("revealing", path_graph(n)),
        ("degree-one", path_graph(n)),
        ("even-cycle", cycle_graph(n)),
        ("union", path_graph(n)),
        ("shatter", path_graph(n)),
        ("watermelon", path_graph(n)),
    ]:
        lcp = make_lcp(name)
        instance = Instance.build(graph)
        labeling = lcp.prover.certify(instance)
        sizes[name] = lcp.labeling_bits(labeling, instance.n, instance.id_bound)
    assert sizes["revealing"] < sizes["degree-one"] < sizes["even-cycle"]
    assert sizes["union"] < sizes["shatter"] < sizes["watermelon"]
