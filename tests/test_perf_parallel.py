"""Parallel sweeps: exact parity with the serial one.

The acceptance bar of the perf subsystem is determinism: for any worker
count, a full sweep on the shard pool must produce the *same object
content* as the serial sweep — same view list in the same order, same
edge set, same scan count, and same downstream verdicts
(2-colorability, odd cycles).  Sweeps the sharding rule does not route
to the pool run serially whatever the worker count.
"""

from __future__ import annotations

import os

import pytest

from repro.core import DegreeOneLCP, EvenCycleLCP
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.obs import Tracer
from repro.perf import overridden


def _full_sweep(lcp, n, workers=None, shard_depth=3, ctx=None):
    """A cold full sweep; ``workers=None`` defers to ``CONFIG.workers``."""
    clear_engine_state()
    plan = ExecutionPlan(
        workers=workers,
        early_exit=False,
        warm_start=False,
        memory_cache=False,
        disk_cache=False,
        shard_depth=shard_depth,
    )
    return decide_hiding(
        lcp, n, plan, ctx=ctx if ctx is not None else RunContext.isolated()
    )


def _serial(lcp, n):
    return _full_sweep(lcp, n, workers=0)


def _assert_identical(parallel, serial):
    p, s = parallel.ngraph, serial.ngraph
    assert p.views == s.views
    assert p.edges == s.edges
    assert p.index == s.index
    assert p.instances_scanned == s.instances_scanned
    assert p.is_k_colorable(2) == s.is_k_colorable(2)
    s_cycle = s.find_odd_cycle()
    p_cycle = p.find_odd_cycle()
    assert (p_cycle is None) == (s_cycle is None)
    if s_cycle is not None:
        assert p_cycle == s_cycle
    assert parallel.decision_fingerprint() == serial.decision_fingerprint()


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("lcp_cls,n", [(DegreeOneLCP, 4), (DegreeOneLCP, 5), (EvenCycleLCP, 5)])
def test_parallel_matches_serial(workers, lcp_cls, n):
    lcp = lcp_cls()
    parallel = _full_sweep(lcp, n, workers=workers)
    _assert_identical(parallel, _serial(lcp, n))
    # One worker is the serial route; more take the shard pool.
    assert bool(parallel.provenance.shard_count) == (workers > 1)


def test_tiny_input_falls_back_to_serial():
    # At n <= shard_depth there is no subtree to split: four workers
    # still run the serial sweep and return the correct graph.
    lcp = EvenCycleLCP()
    parallel = _full_sweep(lcp, 4, workers=4, shard_depth=4)
    assert parallel.provenance.shard_count is None
    _assert_identical(parallel, _serial(lcp, 4))


def test_unpicklable_lcp_falls_back_to_serial():
    lcp = DegreeOneLCP()
    lcp._poison = lambda: None  # lambdas don't pickle
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    result = _full_sweep(lcp, 4, workers=2, ctx=ctx)
    assert ctx.stats.get("parallel_fallbacks") == 1
    # The shards still ran, in this process.
    assert result.provenance.shard_count
    shard_spans = [r for r in tracer.finished_spans() if r["name"] == "worker:shard"]
    assert len(shard_spans) == result.provenance.shard_count
    assert {r["attributes"]["worker_pid"] for r in shard_spans} == {os.getpid()}
    _assert_identical(result, _serial(DegreeOneLCP(), 4))


def test_auto_dispatches_on_config_workers():
    lcp = DegreeOneLCP()
    serial = _serial(lcp, 4)
    with overridden(workers=2):
        auto = _full_sweep(lcp, 4)
    assert auto.provenance.workers == 2
    assert auto.provenance.shard_count
    _assert_identical(auto, serial)


def test_parallel_with_caches_disabled_still_matches():
    lcp = DegreeOneLCP()
    with overridden(layout_cache=False, decision_memo=False):
        serial = _serial(lcp, 4)
        parallel = _full_sweep(lcp, 4, workers=2)
    assert parallel.provenance.shard_count
    _assert_identical(parallel, serial)
