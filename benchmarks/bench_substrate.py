"""Substrate micro-benchmarks: the primitives everything else pays for.

Not tied to one paper artifact; these quantify the costs that determine
how far the neighborhood-graph enumerations and adversarial sweeps scale
(exhaustive relabeling, coloring, family enumeration).
"""

from repro.certification import ExhaustiveAdversary, FastVerifier, check_strong_soundness
from repro.core import DegreeOneLCP
from repro.graphs import complete_graph, cycle_graph, grid_graph, random_graph
from repro.graphs.coloring import k_coloring
from repro.graphs.families import all_graphs_exactly
from repro.local import Instance, Labeling
from repro.local.views import extract_view_layouts, relabel_view


def test_family_enumeration_n5(benchmark):
    count = benchmark(lambda: sum(1 for _ in all_graphs_exactly(5)))
    assert count == 21


def test_k_coloring_hard_instance(benchmark):
    graph = random_graph(14, 0.5, seed=7)
    coloring = benchmark(lambda: k_coloring(graph, 4))
    if coloring is not None:
        from repro.graphs import proper_coloring_ok

        assert proper_coloring_ok(graph, coloring)


def test_fast_verifier_throughput(benchmark):
    """Labelings verified per second — the adversarial sweep's unit cost."""
    lcp = DegreeOneLCP()
    instance = Instance.build(cycle_graph(7))
    verifier = FastVerifier(lcp, instance)
    labeling = Labeling.uniform(instance.graph, 0)

    def verify_batch():
        total = 0
        for _ in range(100):
            total += sum(verifier.votes(labeling).values())
        return total

    benchmark(verify_batch)


def test_relabel_view_fast_path(benchmark):
    instance = Instance.build(grid_graph(3, 3))
    layouts = extract_view_layouts(instance, 2)
    labeling = Labeling.uniform(instance.graph, "c")

    def relabel_all():
        return [
            relabel_view(template, order, labeling)
            for template, order in layouts.values()
        ]

    views = benchmark(relabel_all)
    assert len(views) == 9


def test_exhaustive_sweep_k3(benchmark):
    """The end-to-end adversarial unit: 64 labelings on K3, all ports."""
    lcp = DegreeOneLCP()

    def sweep():
        return check_strong_soundness(
            lcp, [complete_graph(3)], ExhaustiveAdversary(), port_limit=2
        )

    report = benchmark(sweep)
    assert report.passed
