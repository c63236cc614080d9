"""Benchmark for Figs. 5–6 (Lemma 4.2): the even-cycle LCP's edge-colored
witnesses and the odd closed walk in V(D, 6)."""

from repro.core import EvenCycleLCP
from repro.engine import ExecutionPlan, decide_hiding
from repro.experiments import run_experiment
from repro.experiments.figures import even_cycle_witness_instances
from repro.graphs import cycle_graph
from repro.local import Instance
from repro.neighborhood import build_neighborhood_graph


def test_fig5_6_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("fig5_6"), rounds=1, iterations=1)
    assert result.ok


def test_edge_coloring_prover(benchmark):
    lcp = EvenCycleLCP()
    instance = Instance.build(cycle_graph(64))
    labeling = benchmark(lambda: lcp.prover.certify(instance))
    assert len(labeling.nodes()) == 64


def test_verification_on_long_cycle(benchmark):
    lcp = EvenCycleLCP()
    instance = Instance.build(cycle_graph(128))
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    result = benchmark(lambda: lcp.check(labeled))
    assert result.unanimous


def test_witness_neighborhood_graph(benchmark):
    lcp = EvenCycleLCP()
    witnesses = even_cycle_witness_instances()
    ngraph = benchmark.pedantic(
        lambda: build_neighborhood_graph(lcp, witnesses), rounds=1, iterations=1
    )
    assert ngraph.find_odd_cycle() is not None


def test_full_lemma31_sweep_n6(benchmark):
    verdict = benchmark.pedantic(
        lambda: decide_hiding(EvenCycleLCP(), 6, ExecutionPlan(early_exit=False)),
        rounds=1,
        iterations=1,
    )
    assert verdict.hiding is True
