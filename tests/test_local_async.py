"""Tests for the asynchronous engine: the synchronizer must make every
delay schedule indistinguishable from the synchronous execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EvenCycleLCP
from repro.graphs import cycle_graph, grid_graph, path_graph, random_graph, spider_graph
from repro.graphs.traversal import is_connected
from repro.local import Instance, extract_all_views

from .async_simulator import (
    AsyncSimulationError,
    AsyncSimulator,
    AsyncStats,
    DelaySchedule,
    _Event,
    simulate_views_async,
)
from .simulator import ERASED, NodeRecord


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_sync_on_grid(self, radius, seed):
        instance = Instance.build(grid_graph(3, 3))
        views, _stats = simulate_views_async(instance, radius, seed=seed)
        assert views == extract_all_views(instance, radius)

    @pytest.mark.parametrize("fifo", [False, True])
    def test_fifo_and_non_fifo(self, fifo):
        instance = Instance.build(cycle_graph(9))
        views, _ = simulate_views_async(instance, 2, seed=11, fifo=fifo)
        assert views == extract_all_views(instance, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 8),
        p=st.floats(0.3, 0.8),
        graph_seed=st.integers(0, 10**5),
        delay_seed=st.integers(0, 10**5),
        radius=st.integers(1, 3),
    )
    def test_any_delay_schedule(self, n, p, graph_seed, delay_seed, radius):
        g = random_graph(n, p, graph_seed)
        if not is_connected(g):
            return
        instance = Instance.build(g)
        views, _ = simulate_views_async(instance, radius, seed=delay_seed)
        assert views == extract_all_views(instance, radius)

    def test_anonymous_run(self):
        instance = Instance.build(spider_graph(3, 2))
        views, _ = simulate_views_async(instance, 2, seed=5, include_ids=False)
        assert views == extract_all_views(instance, 2, include_ids=False)
        assert all(v.is_anonymous for v in views.values())

    def test_decoder_over_async_network(self):
        lcp = EvenCycleLCP()
        instance = Instance.build(cycle_graph(8))
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        views, _ = simulate_views_async(labeled, 1, seed=3, include_ids=False)
        assert all(lcp.decoder.decide(view) for view in views.values())


class TestSynchronizer:
    def test_stats_accounting(self):
        instance = Instance.build(cycle_graph(6))
        _views, stats = simulate_views_async(instance, 3, seed=9)
        assert isinstance(stats, AsyncStats)
        assert stats.messages_sent == 3 * 2 * 6
        assert stats.events_processed == stats.messages_sent
        assert stats.virtual_time_span > 0

    def test_round_skew_observed(self):
        """With wild delays, some node runs ahead of a neighbor — the
        synchronizer's buffering is actually exercised."""
        instance = Instance.build(path_graph(10))
        _views, stats = simulate_views_async(instance, 3, seed=1)
        assert stats.max_round_skew >= 1

    def test_duplicate_delivery_detected(self):
        instance = Instance.build(path_graph(2))
        simulator = AsyncSimulator(instance, DelaySchedule(seed=0))
        simulator.run(1)
        rogue = _Event(
            time=99.0,
            sequence=999,
            target=1,
            arrival_port=1,
            sender_port=1,
            round_index=1,
            sender_record=NodeRecord(uid=0, ident=1, label=None),
            node_records=frozenset(),
            edge_records=frozenset(),
        )
        with pytest.raises(AsyncSimulationError):
            simulator._deliver(rogue, 1, [])

    def test_zero_rounds_noop(self):
        instance = Instance.build(path_graph(3))
        simulator = AsyncSimulator(instance, DelaySchedule(seed=0))
        simulator.run(0)
        assert simulator.stats.messages_sent == 0


class TestFaults:
    def test_erasure_visible_async(self):
        lcp = EvenCycleLCP()
        instance = Instance.build(cycle_graph(6))
        labeled = instance.with_labeling(lcp.prover.certify(instance))
        views, _ = simulate_views_async(
            labeled, 1, seed=2, include_ids=False, erased_nodes={0}
        )
        assert views[0].center_label == ERASED
        votes = {v: lcp.decoder.decide(view) for v, view in views.items()}
        assert not votes[0] and not votes[1] and not votes[5]


class TestDelaySchedule:
    def test_deterministic_per_seed(self):
        a = DelaySchedule(seed=5)
        b = DelaySchedule(seed=5)
        assert a.delay(0, 1, 0.0) == b.delay(0, 1, 0.0)

    def test_fifo_monotone_per_link(self):
        schedule = DelaySchedule(seed=2, fifo=True)
        arrivals = [schedule.delay(0, 1, now=float(t)) for t in range(20)]
        assert arrivals == sorted(arrivals)

    def test_non_fifo_can_reorder(self):
        schedule = DelaySchedule(seed=3, fifo=False, low=0.1, high=50.0)
        arrivals = [schedule.delay(0, 1, now=float(t)) for t in range(50)]
        assert arrivals != sorted(arrivals)
