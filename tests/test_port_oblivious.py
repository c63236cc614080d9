"""Port-oblivious decoders: one unanimity join per graph.

A decoder that never reads port numbers accepts the same labelings on
every port assignment of a graph, so the Lemma 3.1 sweep joins once per
graph and hands the accepted rows to the graph's later port bases
(:attr:`repro.certification.decoder.Decoder.port_oblivious`,
``kernel_joins_shared``).  These tests hold the declaration to
``decide_all`` on drawn graphs and port assignments, keep it off the
decoders that read ports, and compare the shared sweep with the
labeling-by-labeling reference of :func:`tests.oracle.kernel_route`,
which joins nothing and shares nothing.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.certification.lcp import parametrized
from repro.core.degree_one import ALPHABET, BOT, TOP, DegreeOneDecoder, DegreeOneLCP
from repro.core.even_cycle import EvenCycleDecoder
from repro.core.trivial import RevealingDecoder, RevealingLCP
from repro.core.union import UnionDecoder
from repro.core.watermelon import WatermelonDecoder
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.graphs import Graph
from repro.local.instance import Instance
from repro.local.labeling import Labeling, labeling_key, node_sort_order
from repro.local.ports import PortAssignment
from repro.neighborhood import yes_instances_up_to
from repro.symmetry import SymmetryAccount

from .oracle import kernel_route

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


class _PortReading(DegreeOneDecoder):
    """Degree-one, except that a ``⊤`` node whose ``⊥`` neighbor sits
    behind port 1 waives the common ``β``.  It then accepts labelings
    the prover never hands out, on some port assignments of a graph and
    not on others."""

    def decide(self, view) -> bool:
        if view.center_label == TOP and view.label_of(view.neighbor_via_port(1)) == BOT:
            return _WEAKENED.decide(view)
        return super().decide(view)


_WEAKENED = DegreeOneDecoder(require_common_beta=False)


def _port_reading_lcp() -> DegreeOneLCP:
    lcp = DegreeOneLCP()
    lcp._decoder = _PortReading()
    return lcp


#: Decoders declared port-oblivious, with the alphabet they are drawn over.
OBLIVIOUS = {
    "degree-one": (DegreeOneDecoder(), ALPHABET),
    "degree-one-weakened": (DegreeOneDecoder(require_common_beta=False), ALPHABET),
    "revealing-k2": (RevealingDecoder(2), (0, 1)),
    "revealing-k3": (RevealingDecoder(3), (0, 1, 2)),
}


def test_declarations():
    for decoder, _ in OBLIVIOUS.values():
        assert decoder.port_oblivious is True
    assert parametrized(DegreeOneLCP(), radius=2).decoder.port_oblivious is True
    assert parametrized(RevealingLCP(), k=3).decoder.port_oblivious is True
    for decoder in (
        EvenCycleDecoder(),
        WatermelonDecoder(),
        UnionDecoder(),
        _PortReading(),
        _PortReading(require_common_beta=False),
    ):
        assert decoder.port_oblivious is False, decoder.name


if HAVE_HYPOTHESIS:

    @st.composite
    def _networks(draw):
        """A graph on at most 6 nodes and two port assignments of it."""
        n = draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [pair for pair in pairs if draw(st.booleans())]
        graph = Graph(nodes=range(n), edges=edges)
        seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
        return graph, [PortAssignment.random(graph, seed) for seed in seeds]

    @settings(max_examples=150, deadline=None)
    @given(
        network=_networks(),
        name=st.sampled_from(sorted(OBLIVIOUS)),
        data=st.data(),
    )
    def test_verdicts_do_not_depend_on_ports(network, name, data):
        graph, port_pair = network
        decoder, alphabet = OBLIVIOUS[name]
        labels = data.draw(
            st.lists(
                st.sampled_from(alphabet),
                min_size=graph.order,
                max_size=graph.order,
            )
        )
        labeling = Labeling(dict(zip(graph.nodes, labels)))
        verdicts = [
            decoder.decide_all(Instance.build(graph, ports=ports, labeling=labeling))
            for ports in port_pair
        ]
        assert verdicts[0] == verdicts[1]


def _sweep_stream(lcp, n: int, kernel: str) -> tuple[list, tuple]:
    """The pruned Lemma 3.1 stream on *kernel*'s route: per instance its
    ports, labeling key and the account totals at that yield."""
    account = SymmetryAccount()
    stream = []
    with kernel_route(kernel):
        for instance in yes_instances_up_to(lcp, n, symmetry="auto", account=account):
            order = node_sort_order(instance.graph)
            stream.append(
                (instance.ports, labeling_key(instance.labeling, order), astuple(account))
            )
    return stream, astuple(account)


@pytest.mark.parametrize(
    "lcp, n",
    [(DegreeOneLCP(), 5), (RevealingLCP(2), 5), (RevealingLCP(3), 5), (_port_reading_lcp(), 5)],
    ids=["degree-one", "revealing-k2", "revealing-k3", "port-reading"],
)
def test_shared_stream_matches_the_reference(lcp, n):
    """Same instances in the same order, same account at every yield."""
    assert _sweep_stream(lcp, n, "auto") == _sweep_stream(lcp, n, "off")


#: Symmetry totals the engine folds into a run's stats.
SYMMETRY_COUNTERS = (
    "symmetry_labelings_total",
    "symmetry_labelings_pruned",
    "symmetry_bases_pruned",
    "symmetry_instances_suppressed",
)


def _decide(lcp, n: int, kernel: str, early_exit: bool):
    plan = ExecutionPlan(
        early_exit=early_exit, warm_start=False, memory_cache=False, disk_cache=False
    )
    ctx = RunContext.isolated()
    clear_engine_state()
    with kernel_route(kernel):
        verdict = decide_hiding(lcp, n, plan, ctx=ctx)
    prov = verdict.provenance
    decision = (
        verdict.hiding,
        verdict.digest(),
        (prov.views, prov.edges, prov.instances_scanned),
        tuple(ctx.stats.get(name) for name in SYMMETRY_COUNTERS),
    )
    return decision, ctx.stats.get("kernel_joins_shared")


#: ``(lcp, n, early_exit)``.  Revealing is not hiding, so its early-exit
#: sweeps run to the end; the ``k = 3``, ``n = 5`` one (8 s a route, the
#: exact 3-coloring of 2,217 views) is left to the stream test above.
SWEEP_CASES = [
    pytest.param(DegreeOneLCP(), n, early_exit, id=f"degree-one-n{n}-{mode}")
    for n in (3, 4, 5, 6)
    for early_exit, mode in ((False, "full"), (True, "early-exit"))
] + [
    pytest.param(RevealingLCP(k), n, early_exit, id=f"revealing-k{k}-n{n}-{mode}")
    for k in (2, 3)
    for n in (3, 4, 5)
    for early_exit, mode in ((False, "full"), (True, "early-exit"))
    if (k, n, early_exit) != (3, 5, True)
]


@pytest.mark.parametrize("lcp, n, early_exit", SWEEP_CASES)
def test_shared_sweep_matches_the_reference(lcp, n, early_exit):
    """Digest, provenance and symmetry totals equal the reference's."""
    shared, joins_shared = _decide(lcp, n, "auto", early_exit)
    reference, reference_shared = _decide(lcp, n, "off", early_exit)
    assert shared == reference
    assert reference_shared == 0
    if not early_exit and n >= 4:
        assert joins_shared > 0


def test_port_reading_subclass_joins_per_base():
    """A subclass that reads ports shares nothing and still matches the
    reference; its verdict really depends on the ports."""
    lcp = _port_reading_lcp()
    shared, joins_shared = _decide(lcp, 5, "auto", early_exit=False)
    reference, _ = _decide(lcp, 5, "off", early_exit=False)
    assert shared == reference
    assert joins_shared == 0
    assert shared != _decide(DegreeOneLCP(), 5, "auto", early_exit=False)[0]


def test_degree_one_v6_joins_once_per_graph():
    """Full degree-one ``V(D, 6)``: 347 joined bases over 20 graphs, so
    327 bases reuse an earlier join; the decision is unchanged."""
    decision, joins_shared = _decide(DegreeOneLCP(), 6, "auto", early_exit=False)
    assert decision[1] == "f71bf15c4d39d05737104d20460675ea"
    assert decision[2] == (414, 2863, 4704)
    assert joins_shared == 327
