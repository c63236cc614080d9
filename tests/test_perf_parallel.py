"""Parallel neighborhood-graph builder: exact parity with the serial one.

The acceptance bar of the perf subsystem is determinism: for any worker
count, `build_neighborhood_graph_parallel` must produce the *same object
content* as the serial builder — same view list in the same order, same
edge set, and same downstream verdicts (2-colorability, odd cycles).
"""

from __future__ import annotations

import pytest

from repro.core import DegreeOneLCP, EvenCycleLCP
from repro.kernel import clear_kernel_tables, kernel_available, numpy_or_none
from repro.kernel.tables import kernel_tables_snapshot, prime_kernel_tables
from repro.neighborhood import (
    build_neighborhood_graph,
    build_neighborhood_graph_auto,
    yes_instances_up_to,
)
from repro.perf import PerfStats, overridden
from repro.perf.parallel import build_neighborhood_graph_parallel


def _serial(lcp, n):
    return build_neighborhood_graph(lcp, yes_instances_up_to(lcp, n))


def _assert_identical(parallel, serial):
    assert parallel.views == serial.views
    assert parallel.edges == serial.edges
    assert parallel.index == serial.index
    assert parallel.instances_scanned == serial.instances_scanned
    assert parallel.is_k_colorable(2) == serial.is_k_colorable(2)
    s_cycle = serial.find_odd_cycle()
    p_cycle = parallel.find_odd_cycle()
    assert (p_cycle is None) == (s_cycle is None)
    if s_cycle is not None:
        assert p_cycle == s_cycle


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("lcp_cls,n", [(DegreeOneLCP, 4), (DegreeOneLCP, 5), (EvenCycleLCP, 5)])
def test_parallel_matches_serial(workers, lcp_cls, n):
    lcp = lcp_cls()
    serial = _serial(lcp, n)
    parallel = build_neighborhood_graph_parallel(
        lcp, yes_instances_up_to(lcp, n), workers=workers
    )
    _assert_identical(parallel, serial)


def test_parallel_parity_across_chunk_sizes():
    lcp = DegreeOneLCP()
    serial = _serial(lcp, 4)
    for chunk_size in (1, 3, 7, 1000):
        parallel = build_neighborhood_graph_parallel(
            lcp, yes_instances_up_to(lcp, 4), workers=2, chunk_size=chunk_size
        )
        _assert_identical(parallel, serial)


def test_parallel_witnesses_point_at_parent_instances():
    lcp = DegreeOneLCP()
    instances = list(yes_instances_up_to(lcp, 4))
    parallel = build_neighborhood_graph_parallel(lcp, iter(instances), workers=2)
    pool = set(map(id, instances))
    for instance, _node in parallel.view_witness.values():
        assert id(instance) in pool
    for instance, _edge in parallel.edge_witness.values():
        assert id(instance) in pool


def test_tiny_input_falls_back_to_serial():
    lcp = EvenCycleLCP()
    # The n=5 even-cycle sweep contains only C4: few instances, below the
    # parallel threshold — must still return the correct graph.
    stats = PerfStats()
    parallel = build_neighborhood_graph_parallel(
        lcp, yes_instances_up_to(lcp, 5), workers=4, stats=stats
    )
    _assert_identical(parallel, _serial(lcp, 5))


def test_unpicklable_lcp_falls_back_to_serial():
    lcp = DegreeOneLCP()
    lcp._poison = lambda: None  # lambdas don't pickle
    stats = PerfStats()
    result = build_neighborhood_graph_parallel(
        lcp, yes_instances_up_to(lcp, 4), workers=2, stats=stats
    )
    assert stats.get("parallel_fallbacks") == 1
    _assert_identical(result, _serial(DegreeOneLCP(), 4))


def test_auto_dispatches_on_config_workers():
    lcp = DegreeOneLCP()
    serial = _serial(lcp, 4)
    with overridden(workers=2):
        auto = build_neighborhood_graph_auto(lcp, yes_instances_up_to(lcp, 4))
    _assert_identical(auto, serial)


def test_parallel_with_caches_disabled_still_matches():
    lcp = DegreeOneLCP()
    with overridden(layout_cache=False, decision_memo=False):
        serial = _serial(lcp, 4)
        parallel = build_neighborhood_graph_parallel(
            lcp, yes_instances_up_to(lcp, 4), workers=2
        )
    _assert_identical(parallel, serial)


needs_numpy = pytest.mark.skipif(not kernel_available(), reason="numpy not importable")


def _warm_degree_one_tables(n=4):
    """Run one kernel sweep so the acceptance tables are partly filled."""
    clear_kernel_tables()
    with overridden(kernel="auto"):
        list(
            yes_instances_up_to(
                DegreeOneLCP(), n, include_all_accepted_labelings=True, symmetry="off"
            )
        )


def _live_tables():
    """``(decoder.name, template, alphabet) -> table`` of the cached tables."""
    from repro.kernel.tables import _TABLES

    return {
        (decoder.name, template, alphabet): table
        for (_, template, alphabet), (decoder, table) in _TABLES.items()
    }


@needs_numpy
def test_table_snapshot_carries_only_decided_entries():
    _warm_degree_one_tables()
    live = _live_tables()
    snapshot = kernel_tables_snapshot()
    assert snapshot
    assert set(snapshot) == {key for key, table in live.items() if table.known.any()}
    for key, (indices, values) in snapshot.items():
        table = live[key]
        assert indices.tolist() == table.known.nonzero()[0].tolist()
        assert values.tolist() == table.value[indices].tolist()
    # The join reads only the entries reachable from accepted prefixes.
    assert sum(len(indices) for indices, _ in snapshot.values()) < sum(
        len(live[key].known) for key in snapshot
    )
    clear_kernel_tables()


@needs_numpy
def test_priming_merges_without_overwriting_known_entries():
    from repro.kernel.tables import _SEED_TABLES

    _warm_degree_one_tables()
    live = _live_tables()
    snapshot = kernel_tables_snapshot()
    before = {key: (t.known.copy(), t.value.copy()) for key, t in live.items()}
    np = numpy_or_none()
    forged, adopted = {}, {}
    for key, (indices, values) in snapshot.items():
        # Flip every known verdict and add one entry nobody knows yet.
        unknown = np.flatnonzero(~live[key].known)[:1]
        adopted[key] = len(unknown)
        forged[key] = (
            np.concatenate([indices, unknown]),
            np.concatenate([~values, np.ones(len(unknown), dtype=bool)]),
        )
    prime_kernel_tables(forged)
    # A forked worker's inherited live tables become its seed tables.
    assert all(_SEED_TABLES[key] is live[key] for key in forged)
    for key, table in live.items():
        known, value = before[key]
        assert (table.value[known] == value[known]).all()
        assert table.known.sum() == known.sum() + adopted.get(key, 0)

    # Into a cold worker the same entries land in the seed store and the
    # next sweep decides nothing it was sent.
    snapshot = kernel_tables_snapshot()
    clear_kernel_tables()
    prime_kernel_tables(snapshot)
    stats = PerfStats()
    with overridden(kernel="auto"):
        list(
            yes_instances_up_to(
                DegreeOneLCP(), 4, include_all_accepted_labelings=True, symmetry="off",
                stats=stats,
            )
        )
    assert stats.get("kernel_table_seed_hits") == len(snapshot)
    assert stats.get("kernel_table_entries") == 0
    clear_kernel_tables()
