"""Resumable shards: checkpoint store, kill-and-resume, and the
file-based multi-host queue.

The checkpoint store persists each finished shard's result under the
content-addressed cache directory, keyed by the sweep identity plus the
shard's ``(generation_version, bipartite, depth, start, stop)``; a killed sweep
restarted against the same directory adopts every finished shard and
recomputes only the missing ones, landing on a byte-identical verdict.
The :class:`ShardQueue` layers claim/complete/lease-expiry files on a
shared directory so multiple hosts drain one sweep without a
coordinator.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core import make_lcp
from repro.engine import (
    ExecutionPlan,
    RunContext,
    clear_engine_state,
    decide_hiding,
)
from repro.engine.backends import _enumeration_bounds, disk_key
from repro.perf import PerfStats, overridden
from repro.shard import (
    ShardCheckpointStore,
    ShardQueue,
    plan_shards,
    run_sharded_sweep,
)
from repro.perf.persist import digest_for
from repro.shard import checkpoint as checkpoint_module
from repro.shard import executor as executor_module
from repro.shard.spec import Shard
from repro.symmetry import SymmetryAccount

N = 6
SCHEME = "even-cycle"

#: Account counters the engine folds the merged account into.
ACCOUNT_COUNTERS = (
    "instances_scanned",
    "symmetry_labelings_total",
    "symmetry_labelings_pruned",
    "symmetry_bases_pruned",
    "symmetry_instances_suppressed",
)


def _plan(disk_cache: bool) -> ExecutionPlan:
    return ExecutionPlan(
        backend="streaming",
        workers=0,
        early_exit=False,
        warm_start=False,
        memory_cache=False,
        disk_cache=disk_cache,
        symmetry="on",
        sharding="on",
        shard_depth=3,
    )


def _decide(disk_cache: bool):
    clear_engine_state()
    ctx = RunContext.isolated()
    verdict = decide_hiding(make_lcp(SCHEME), N, _plan(disk_cache), ctx=ctx)
    counters = {name: ctx.stats.get(name) for name in ACCOUNT_COUNTERS}
    return verdict, counters, ctx


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------


def test_checkpoint_store_roundtrip(tmp_path):
    store = ShardCheckpointStore({"scheme": SCHEME, "n": N}, directory=tmp_path)
    shard = plan_shards(N, 3, 2).shards[0]
    stats = PerfStats()
    assert store.load(shard, stats=stats) is None
    assert stats.get("shard_checkpoint_misses") == 1

    result = {
        "shard": {"index": 0},
        "sizes": {4: []},
        "stats": {},
        "spans": [{"name": "worker:shard"}],
        "pid": 1,
        "elapsed_s": 0.1,
        "global_stats": {},
    }
    assert store.store(shard, result, stats=stats)
    loaded = store.load(shard, stats=stats)
    assert loaded is not None
    assert loaded["sizes"] == {4: []}
    # Spans are stripped before persisting: a checkpoint adoption must
    # not replay another run's profile into this run's trace.
    assert loaded["spans"] == []
    assert stats.get("shard_checkpoint_hits") == 1


def test_checkpoint_store_keys_by_sweep_and_shard(tmp_path):
    shard = plan_shards(N, 3, 2).shards[0]
    other_shard = plan_shards(N, 3, 2).shards[1]
    a = ShardCheckpointStore({"scheme": "a"}, directory=tmp_path)
    b = ShardCheckpointStore({"scheme": "b"}, directory=tmp_path)
    result = {"sizes": {}, "spans": []}
    a.store(shard, result)
    assert a.load(shard) is not None
    assert a.load(other_shard) is None
    assert b.load(shard) is None


def test_corrupt_checkpoint_is_a_miss(tmp_path):
    store = ShardCheckpointStore({"scheme": SCHEME}, directory=tmp_path)
    shard = plan_shards(N, 3, 2).shards[0]
    store.store(shard, {"sizes": {}, "spans": []})
    path = next(store.directory.iterdir())
    path.write_bytes(b"not a pickle")
    stats = PerfStats()
    assert store.load(shard, stats=stats) is None
    assert stats.get("shard_checkpoint_corrupt") == 1


def test_full_tree_checkpoint_is_not_read_for_the_bipartite_tree(tmp_path):
    store = ShardCheckpointStore({"scheme": SCHEME}, directory=tmp_path)
    full = Shard(index=0, depth=3, start=0, stop=1)
    store.store(full, {"sizes": {}, "spans": []})
    assert store.load(full) is not None
    assert store.load(Shard(index=0, depth=3, start=0, stop=1, bipartite=True)) is None


def test_unpruned_tree_checkpoints_are_never_read(tmp_path, monkeypatch):
    """Checkpoints written before generation was pruned index the full
    tree's level; a k = 2 sweep must recompute every shard, not adopt
    them."""
    reference, ref_counters, _ = _decide(disk_cache=False)
    with overridden(disk_cache_dir=str(tmp_path / "cache")):
        plan = _plan(disk_cache=True).resolve()
        sweep_key = disk_key(make_lcp(SCHEME), N, plan)
        store = ShardCheckpointStore(sweep_key)
        store.directory.mkdir(parents=True)
        poisoned = {
            "sizes": {},
            "stats": {},
            "spans": [],
            "pid": 0,
            "elapsed_s": 0.0,
            "global_stats": {},
        }
        # The old key layout: generation version 1, no tree field, root
        # ranges over the full level 3 (4 classes).
        for shard in plan_shards(N, 3, 0).shards:
            old_key = dict(sweep_key)
            old_key["shard_format"] = checkpoint_module.SHARD_FORMAT
            old_key.update(
                generation_version=1,
                depth=shard.depth,
                start=shard.start,
                stop=shard.stop,
            )
            path = store.directory / f"{digest_for(old_key)}.pkl"
            path.write_bytes(pickle.dumps(poisoned))

        recomputed = []
        original_run = executor_module.run_shard

        def counting_run(payload):
            recomputed.append(payload["shard"].id)
            return original_run(payload)

        monkeypatch.setattr(executor_module, "run_shard", counting_run)
        resumed, counters, ctx = _decide(disk_cache=True)

    assert ctx.stats.get("shard_checkpoint_hits") == 0
    assert len(recomputed) == resumed.provenance.shard_count == 3
    assert resumed.decision_fingerprint() == reference.decision_fingerprint()
    assert counters == ref_counters


# ----------------------------------------------------------------------
# Kill-and-resume
# ----------------------------------------------------------------------


def test_killed_sweep_resumes_from_checkpoints(tmp_path, monkeypatch):
    reference, ref_counters, _ = _decide(disk_cache=False)

    with overridden(disk_cache_dir=str(tmp_path / "cache")):
        # Abort the sweep after two shards have been checkpointed —
        # the moral equivalent of kill -9 mid-campaign.
        original_store = checkpoint_module.ShardCheckpointStore.store
        stored = []

        def dying_store(self, shard, result, stats=None):
            ok = original_store(self, shard, result, stats=stats)
            stored.append(shard.id)
            if len(stored) == 2:
                raise RuntimeError("killed mid-sweep")
            return ok

        monkeypatch.setattr(
            checkpoint_module.ShardCheckpointStore, "store", dying_store
        )
        clear_engine_state()
        with pytest.raises(RuntimeError, match="killed mid-sweep"):
            decide_hiding(
                make_lcp(SCHEME), N, _plan(disk_cache=True),
                ctx=RunContext.isolated(),
            )
        assert len(stored) == 2
        monkeypatch.setattr(
            checkpoint_module.ShardCheckpointStore, "store", original_store
        )

        # Resume against the same cache directory: the two finished
        # shards are adopted, only the remaining ones are recomputed.
        recomputed = []
        original_run = executor_module.run_shard

        def counting_run(payload):
            recomputed.append(payload["shard"].id)
            return original_run(payload)

        monkeypatch.setattr(executor_module, "run_shard", counting_run)
        resumed, counters, ctx = _decide(disk_cache=True)

    total_shards = resumed.provenance.shard_count
    assert total_shards == len(stored) + len(recomputed)
    assert not set(stored) & set(recomputed)
    assert ctx.stats.get("shard_checkpoint_hits") == len(stored)
    assert resumed.decision_fingerprint() == reference.decision_fingerprint()
    assert resumed.hiding == reference.hiding
    assert resumed.witness == reference.witness
    assert (
        resumed.provenance.instances_scanned
        == reference.provenance.instances_scanned
    )
    assert counters == ref_counters


# ----------------------------------------------------------------------
# The file-based queue
# ----------------------------------------------------------------------


def test_queue_claim_is_exclusive_until_released(tmp_path):
    q1 = ShardQueue(tmp_path, owner="host-1")
    q2 = ShardQueue(tmp_path, owner="host-2")
    assert q1.claim("d3-000000-000001")
    assert not q2.claim("d3-000000-000001")
    assert q1.claim_record("d3-000000-000001")["owner"] == "host-1"
    q1.release("d3-000000-000001")
    assert q2.claim("d3-000000-000001")


def test_queue_complete_marks_done_for_everyone(tmp_path):
    q1 = ShardQueue(tmp_path, owner="host-1")
    q2 = ShardQueue(tmp_path, owner="host-2")
    assert q1.claim("s")
    q1.complete("s")
    assert q1.is_done("s")
    assert q2.is_done("s")
    assert q2.done_ids() == {"s"}
    assert not q2.claim("s")


def test_queue_expired_lease_is_stolen(tmp_path):
    q1 = ShardQueue(tmp_path, owner="host-1", lease_s=0.01)
    q2 = ShardQueue(tmp_path, owner="host-2", lease_s=60.0)
    assert q1.claim("s")
    assert not q2.claim("s")  # live lease
    time.sleep(0.05)
    assert q2.claim("s")  # expired: stolen
    assert q2.claim_record("s")["owner"] == "host-2"


def test_queue_manifest_first_writer_wins(tmp_path):
    q1 = ShardQueue(tmp_path, owner="host-1")
    q2 = ShardQueue(tmp_path, owner="host-2")
    manifest = {"scheme": SCHEME, "n": N, "shards": 4}
    assert q1.write_manifest(manifest) == manifest
    assert q2.write_manifest(manifest) == manifest  # same spec: fine
    with pytest.raises(ValueError):
        q2.write_manifest({"scheme": SCHEME, "n": N, "shards": 8})


def test_queue_requires_checkpoints(tmp_path):
    plan = _plan(disk_cache=False).resolve()
    with pytest.raises(ValueError, match="checkpoint"):
        run_sharded_sweep(
            make_lcp(SCHEME),
            N,
            plan,
            RunContext.isolated(),
            bounds=_enumeration_bounds(plan),
            symmetry="on",
            queue=ShardQueue(tmp_path),
        )


def _drain(tmp_path, queue):
    """One host's drain of the shared sweep directory."""
    plan = _plan(disk_cache=True).resolve()
    lcp = make_lcp(SCHEME)
    ctx = RunContext.isolated()
    account = SymmetryAccount()
    outcome = run_sharded_sweep(
        lcp,
        N,
        plan,
        ctx,
        bounds=_enumeration_bounds(plan),
        symmetry="on",
        account=account,
        sweep_key=disk_key(lcp, N, plan),
        queue=queue,
    )
    return outcome, account, ctx


def test_two_hosts_drain_one_sweep_directory(tmp_path):
    with overridden(disk_cache_dir=str(tmp_path / "cache")):
        queue_dir = tmp_path / "queue"
        # "Host 1" holds a live claim on the first shard but died: the
        # draining host computes everything else, polls the foreign
        # claim, and steals the unit once the lease expires mid-drain.
        spec = plan_shards(N, 3, 1, bipartite=True)  # even-cycle is k = 2
        dead = ShardQueue(queue_dir, owner="dead-host", lease_s=1.0)
        assert dead.claim(spec.shards[0].id)

        live = ShardQueue(queue_dir, owner="live-host", lease_s=60.0)
        outcome, account, ctx = _drain(tmp_path, live)
        assert outcome.shard_count == len(spec.shards)
        assert ctx.stats.get("shard_lease_steals") >= 1
        assert {shard.id for shard in spec.shards} <= live.done_ids()

        # A second host arriving after the fact adopts everything from
        # the checkpoints: no shard is recomputed.
        late = ShardQueue(queue_dir, owner="late-host", lease_s=60.0)
        late_outcome, late_account, late_ctx = _drain(tmp_path, late)
        assert late_outcome.checkpoint_hits == len(spec.shards)
        assert late_ctx.stats.get("shards_completed") == 0
        assert late_account.as_tuple() == account.as_tuple()
        assert len(late_outcome.ngraph.views) == len(outcome.ngraph.views)
        assert sorted(late_outcome.ngraph.edges) == sorted(outcome.ngraph.edges)
