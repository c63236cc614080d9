"""Benchmark for Lemma 3.2: both directions of the characterization —
odd-cycle witnesses for the hiding schemes, and extraction-decoder
compilation + execution for the revealing baseline."""

from repro.core import RevealingLCP
from repro.engine import ExecutionPlan, decide_hiding
from repro.experiments import run_experiment
from repro.graphs import cycle_graph, path_graph
from repro.local import Instance
from repro.neighborhood import (
    build_extraction_decoder,
    run_extraction,
)


def test_lem32_experiment(benchmark):
    result = benchmark.pedantic(lambda: run_experiment("lem32"), rounds=1, iterations=1)
    assert result.ok


def test_revealing_sweep_and_compile(benchmark):
    def compile_decoder():
        verdict = decide_hiding(RevealingLCP(), 4, ExecutionPlan(early_exit=False))
        return build_extraction_decoder(verdict.ngraph, 2)

    decoder = benchmark.pedantic(compile_decoder, rounds=1, iterations=1)
    assert decoder is not None


def test_extraction_execution(benchmark):
    lcp = RevealingLCP()
    verdict = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False))
    decoder = build_extraction_decoder(verdict.ngraph, 2)
    instance = Instance.build(cycle_graph(4), id_bound=4)
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    outcome = benchmark(lambda: run_extraction(decoder, lcp, labeled))
    assert outcome.proper


def test_extraction_table_lookup_throughput(benchmark):
    lcp = RevealingLCP()
    verdict = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False))
    decoder = build_extraction_decoder(verdict.ngraph, 2)
    instance = Instance.build(path_graph(4), id_bound=4)
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    outputs = benchmark(lambda: decoder.run_on(labeled))
    assert len(outputs) == 4
