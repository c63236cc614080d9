"""Benchmarks for the extension experiments: χ(V(D, n)) computation, the
exhaustive decoder sub-universe, the universal O(n²) scheme, quantified
hiding and certificate erasure."""

from repro.core import UniversalLCP
from repro.engine import ExecutionPlan, decide_hiding
from repro.experiments import run_experiment
from repro.graphs import grid_graph
from repro.graphs.coloring import chromatic_number
from repro.local import Instance


def test_ext_chromatic_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("ext_chromatic"), rounds=1, iterations=1
    )
    assert result.ok


def test_ext_decoder_universe_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("ext_decoder_universe"), rounds=1, iterations=1
    )
    assert result.ok


def test_tbl_hiding_fraction_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("tbl_hiding_fraction"), rounds=1, iterations=1
    )
    assert result.ok


def test_tbl_resilience_experiment(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment("tbl_resilience"), rounds=1, iterations=1
    )
    assert result.ok


def test_chromatic_number_of_neighborhood_graph(benchmark):
    from repro.core import DegreeOneLCP

    verdict = decide_hiding(DegreeOneLCP(), 4, ExecutionPlan(early_exit=False))
    graph = verdict.ngraph.to_graph()
    chi = benchmark(lambda: chromatic_number(graph, max_k=6))
    assert chi == 3


def test_universal_prover_grid(benchmark):
    lcp = UniversalLCP()
    instance = Instance.build(grid_graph(4, 6))
    labeling = benchmark(lambda: lcp.prover.certify(instance))
    assert len(labeling.nodes()) == 24


def test_universal_verification_grid(benchmark):
    lcp = UniversalLCP()
    instance = Instance.build(grid_graph(4, 6))
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    result = benchmark(lambda: lcp.check(labeled))
    assert result.unanimous
