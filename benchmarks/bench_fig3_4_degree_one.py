"""Benchmark for Figs. 3–4 (Lemma 4.1): building the degree-one LCP's
accepting neighborhood graph and finding the odd cycle."""

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan, decide_hiding
from repro.experiments import run_experiment
from repro.experiments.figures import degree_one_witness_instances
from repro.neighborhood import (
    build_neighborhood_graph,
    hiding_verdict_from_instances,
)


def test_fig3_4_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("fig3_4"), rounds=1, iterations=1)
    assert result.ok


def test_witness_neighborhood_graph(benchmark):
    lcp = DegreeOneLCP()
    witnesses = degree_one_witness_instances()

    def build():
        return build_neighborhood_graph(lcp, witnesses)

    ngraph = benchmark(build)
    assert ngraph.order > 20


def test_odd_cycle_detection(benchmark):
    lcp = DegreeOneLCP()
    ngraph = build_neighborhood_graph(lcp, degree_one_witness_instances())
    walk = benchmark(ngraph.find_odd_cycle)
    assert walk is not None
    assert (len(walk) - 1) % 2 == 1


def test_full_lemma31_sweep_n4(benchmark):
    verdict = benchmark.pedantic(
        lambda: decide_hiding(DegreeOneLCP(), 4, ExecutionPlan(early_exit=False)),
        rounds=1,
        iterations=1,
    )
    assert verdict.hiding is True


def test_witness_verdict(benchmark):
    lcp = DegreeOneLCP()
    witnesses = degree_one_witness_instances()
    verdict = benchmark(lambda: hiding_verdict_from_instances(lcp, witnesses))
    assert verdict.hiding is True
