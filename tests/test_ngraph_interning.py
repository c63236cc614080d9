"""The interned neighborhood-graph builder against the per-pair loop it
replaced (:func:`oracle.reference_build`).

``build_neighborhood_graph`` clones, decides and indexes each distinct
view once per call.  Nothing observable may change: the graph (view
order, index, edges, adjacency), the view and edge witnesses, the
instance count, how far the instance stream is consumed, and the
``on_view``/``on_edge`` event stream — also when the consumer stops the
scan after any event, and when the build continues a warm graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import pytest

from repro.certification.lcp import parametrized
from repro.core import make_lcp
from repro.neighborhood import build_neighborhood_graph, yes_instances_up_to
from repro.neighborhood.ngraph import GraphConsumer
from repro.perf import PerfStats
from repro.perf.cache import default_layout_cache

from .oracle import reference_build

SCHEMES = ("degree-one", "even-cycle", "union", "shatter", "watermelon")
CELLS = [(scheme, k) for scheme in SCHEMES for k in (2, 3)]


class FirstNeighborVeto:
    """A scheme's decoder, except that a view rejects when its center's
    label sorts (by ``repr``) before its first neighbor's: accepted
    labelings then have rejecting nodes, so the builder meets views the
    decoder turns down."""

    def __init__(self, base) -> None:
        self.base = base
        self.rejected = 0

    def decide(self, view) -> bool:
        if view.size > 1 and repr(view.labels[0]) < repr(view.labels[1]):
            self.rejected += 1
            return False
        return self.base.decide(view)


class Recorder(GraphConsumer):
    """Records every event; sets ``done`` after the *stop_after*-th."""

    def __init__(self, stop_after: int | None = None) -> None:
        self.events: list[tuple] = []
        self.stop_after = stop_after
        self.done = False

    def _record(self, event: tuple) -> None:
        self.events.append(event)
        if self.stop_after is not None and len(self.events) >= self.stop_after:
            self.done = True

    def on_view(self, idx, view) -> None:
        self._record(("view", idx, view))

    def on_edge(self, i, j) -> None:
        self._record(("edge", i, j))


def _lcp(scheme: str, k: int, veto: bool = False):
    lcp = parametrized(make_lcp(scheme), k=k)
    if not veto:
        return lcp
    return SimpleNamespace(
        decoder=FirstNeighborVeto(lcp.decoder), radius=lcp.radius, anonymous=lcp.anonymous
    )


@cache
def _instances(scheme: str, k: int, n: int) -> tuple:
    return tuple(yes_instances_up_to(parametrized(make_lcp(scheme), k=k), n))


def _snapshot(graph) -> dict:
    """Everything a builder leaves observable; witnesses by identity of
    the instance object the stream yielded."""
    return {
        "views": list(graph.views),
        "index": list(graph.index.items()),
        "edges": graph.edges,
        "adjacency": graph.adjacency,
        "view_witness": [(i, id(inst), v) for i, (inst, v) in graph.view_witness.items()],
        "edge_witness": [(e, id(inst), uv) for e, (inst, uv) in graph.edge_witness.items()],
        "instances_scanned": graph.instances_scanned,
    }


def _copy(graph):
    """A fresh copy of a built graph, sharing its views and witnesses."""
    if graph is None:
        return None
    return replace(
        graph,
        views=list(graph.views),
        index=dict(graph.index),
        edges=set(graph.edges),
        view_witness=dict(graph.view_witness),
        edge_witness=dict(graph.edge_witness),
        adjacency={i: list(js) for i, js in graph.adjacency.items()},
    )


def _run(build, lcp, instances, stop_after=None, warm=None):
    """One build over *instances* (continuing a copy of the graph *warm*,
    if given); returns the snapshot, the events and how many instances
    the builder left unconsumed."""
    into = _copy(warm)
    recorder = Recorder(stop_after)
    stream = iter(instances)
    graph = build(lcp, stream, consumer=recorder, into=into)
    return _snapshot(graph), recorder.events, sum(1 for _ in stream)


def _assert_same_build(lcp, instances, stop_after=None, warm=None) -> list:
    """Both builders leave the same observables; returns the events."""
    expected = _run(reference_build, lcp, instances, stop_after, warm)
    assert _run(build_neighborhood_graph, lcp, instances, stop_after, warm) == expected
    return expected[1]


def _stops(total: int, every: bool) -> list[int]:
    """Every event position, or about 6 of them spread evenly."""
    if every:
        return list(range(1, total + 1))
    return sorted(set(range(1, total + 1, max(1, total // 6))) | {total})


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("veto", [False, True], ids=["scheme", "veto"])
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("scheme, k", CELLS)
def test_a_consumer_stopping_after_any_event_sees_the_same_prefix(scheme, k, n, veto, warm):
    """The full build, then a consumer that stops after the m-th event,
    for every m at n = 4 and for about 6 spread-out m at n = 5.  Warm
    builds continue the graph of the first quarter of the stream with
    the rest, so some views and edges exist before the build starts."""
    lcp = _lcp(scheme, k, veto)
    instances = _instances(scheme, k, n)
    head = None
    if warm:
        quarter = len(instances) // 4
        head = reference_build(lcp, instances[:quarter])
        instances = instances[quarter:]
    events = _assert_same_build(lcp, instances, warm=head)
    assert events or warm
    if veto:
        assert lcp.decoder.rejected
    for m in _stops(len(events), every=n == 4):
        assert _assert_same_build(lcp, instances, m, head) == events[:m]


@pytest.mark.parametrize("veto", [False, True], ids=["scheme", "veto"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_distinct_view_is_decided_once_per_build(scheme, veto, monkeypatch):
    """The builder calls ``decoder.decide`` on each distinct view of the
    stream once — not once per (labeling, node) pair — and
    ``views_built`` counts exactly those views."""
    lcp = _lcp(scheme, 2, veto)
    instances = _instances(scheme, 2, 4)
    calls: Counter = Counter()
    decide = lcp.decoder.decide

    def counted(view):
        calls[view] += 1
        return decide(view)

    monkeypatch.setattr(lcp.decoder, "decide", counted)
    stats = PerfStats()
    graph = build_neighborhood_graph(lcp, instances, stats=stats)
    distinct = {
        view
        for instance in instances
        for view in default_layout_cache()
        .labeled_views(instance, lcp.radius, not lcp.anonymous)
        .values()
    }
    pairs = sum(instance.graph.order for instance in instances)
    assert set(calls) == distinct
    assert set(calls.values()) == {1}
    assert stats.get("views_built") == len(distinct) < pairs
    assert set(graph.views) <= distinct
    assert (len(graph.views) < len(distinct)) is veto
