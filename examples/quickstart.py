"""Quickstart: certify 2-colorability without revealing the coloring.

Runs the degree-one scheme (Lemma 4.1) end to end on a path: the prover
assigns certificates, every node verifies locally, and the hiding
property is demonstrated by showing the accepting neighborhood graph of
small instances contains an odd cycle (Lemma 3.2).

Run:  python examples/quickstart.py
"""

from repro import Instance
from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan, decide_hiding
from repro.graphs import path_graph


def main() -> None:
    # 1. A yes-instance: the 6-node path (bipartite, has degree-1 nodes).
    graph = path_graph(6)
    lcp = DegreeOneLCP()
    instance = Instance.build(graph)

    # 2. The prover assigns certificates from {0, 1, ⊥, ⊤}: the coloring
    #    is revealed everywhere except at one degree-1 node.
    labeling = lcp.prover.certify(instance)
    print("certificates:")
    for v in graph.nodes:
        print(f"  node {v}: {labeling.of(v)!r}")

    # 3. Every node runs the one-round decoder on its local view.
    result = lcp.check(instance.with_labeling(labeling))
    print(f"\nverdict: unanimous = {result.unanimous}")
    assert result.unanimous

    # 4. Hiding (Lemma 3.2): the accepting neighborhood graph V(D, 4) is
    #    not 2-colorable, so no one-round decoder can extract a coloring.
    #    The plan picks the execution route (early exit, caches);
    #    the defaults are fine for a sweep this small.
    verdict = decide_hiding(lcp, 4, ExecutionPlan())
    print(f"\n{verdict.summary()}")
    print(
        f"V(D, 4): {verdict.ngraph.order} accepting views, "
        f"{verdict.ngraph.size} compatibility edges"
    )
    assert verdict.hiding is True


if __name__ == "__main__":
    main()
