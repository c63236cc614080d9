"""Benchmark for Theorems 1.2/6.3: the impossibility dichotomy probe and
its ingredients (adversarial refutation, hiding witness search, the
Lemma 6.2 Ramsey reduction)."""

from repro.certification import (
    ConstantDecoder,
    EnumerativeLCP,
    ExhaustiveAdversary,
    check_strong_soundness,
)
from repro.experiments import run_experiment
from repro.graphs import complete_graph, cycle_graph, is_bipartite, theta_graph
from repro.neighborhood import build_neighborhood_graph, labeled_yes_instances


def test_thm12_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("thm12"), rounds=1, iterations=1)
    assert result.ok


def test_lem62_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("lem62"), rounds=1, iterations=1)
    assert result.ok


def _accept_all():
    return EnumerativeLCP(
        ConstantDecoder(True, anonymous=True), ["c"],
        promise_fn=is_bipartite, name="accept-all",
    )


def test_refute_accept_all(benchmark):
    """The adversarial half of the dichotomy: accept-all is hiding but
    a single odd cycle refutes its strong soundness."""
    lcp = _accept_all()

    def refute():
        return check_strong_soundness(
            lcp, [cycle_graph(5), complete_graph(3)], ExhaustiveAdversary(), port_limit=1
        )

    report = benchmark(refute)
    assert not report.passed


def test_hiding_witness_search_on_theta(benchmark):
    lcp = _accept_all()
    theta = theta_graph(4, 4, 6)
    labeled = list(labeled_yes_instances(lcp, [theta], port_limit=1, id_bound=theta.order))

    def search():
        ngraph = build_neighborhood_graph(lcp, labeled)
        return ngraph.find_odd_cycle()

    walk = benchmark(search)
    assert walk is not None
