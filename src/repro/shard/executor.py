"""Drain the shard stream, checkpoint, merge, replay — in serial order.

:func:`run_sharded_sweep` is the sharded equivalent of feeding the full
Lemma 3.1 instance stream through the neighborhood-graph builder:

1. **Serial prefix** — sizes up to the shard depth go through the exact
   serial enumeration (they are the tree being split; too small to
   shard, and the shard roots are their memoized final level);
2. **Shard stage** — one future per :class:`~repro.shard.spec.Shard`
   on a process pool.  The pool *is* the work-stealing queue: workers
   pull the next pending unit the moment one finishes, so skewed
   subtrees never straggle behind a static partition.  Each finished
   shard is checkpointed (:mod:`repro.shard.checkpoint`) the moment it
   arrives, so a killed sweep resumes from completed shards;
3. **Merge + replay** — per size, shard emission blocks merge by
   ascending minimal edge mask (classes have unique masks, and the
   serial walk emits each level mask-sorted, so the merged stream is
   byte-identical to the unsharded one) and replay through
   :func:`_replay_chunk` with exact per-instance account deltas —
   consumer events, early exits, accounts, and fingerprints all match
   the serial sweep.

An optional :class:`~repro.shard.queue.ShardQueue` coordinates multiple
hosts draining one sweep directory: this host computes only the shards
it claims and adopts foreign shards from their checkpoints (stealing
expired leases).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import as_completed
from dataclasses import dataclass

from ..neighborhood.aviews import bipartite_generation, labeled_yes_instances
from ..obs.logs import get_logger
from ..perf.config import CONFIG
from ..perf.stats import GLOBAL_STATS
from ..symmetry.orderly import level_entries
from .checkpoint import ShardCheckpointStore
from .spec import Shard, ShardSpec, plan_shards
from .worker import run_shard

log = get_logger("shard.executor")

#: Seconds between checkpoint polls while waiting on foreign shards.
_FOREIGN_POLL_S = 0.1


def sharding_effective(lcp, plan, n: int) -> bool:
    """Whether this sweep runs the sharded path: the plan routes sweeps
    to shards (:attr:`~repro.engine.plan.ExecutionPlan.uses_shards`) and
    there is a subtree to split (``n > shard_depth``)."""
    depth = plan.shard_depth if plan.shard_depth is not None else CONFIG.shard_depth
    return n > depth and plan.uses_shards


@dataclass
class ShardSweepOutcome:
    """What the sharded route reports up into ``Provenance``."""

    ngraph: object
    shard_count: int = 0
    steal_count: int = 0
    shards_per_sec: float | None = None
    checkpoint_hits: int = 0
    workers_effective: int = 1
    stopped: bool = False


def run_sharded_sweep(
    lcp,
    n: int,
    plan,
    ctx,
    *,
    bounds: dict,
    symmetry: str,
    consumer=None,
    into=None,
    account=None,
    lo: int = 0,
    sweep_key: dict | None = None,
    queue=None,
) -> ShardSweepOutcome:
    """Sharded drop-in for the serial sweep-and-build of sizes
    ``lo+1 .. n`` (``lo > 0`` is the streaming warm start's floor).

    *bounds* are the enumeration-bound kwargs of
    :func:`~repro.neighborhood.aviews.labeled_yes_instances`; *symmetry*
    is the already-pruning-resolved mode the backend would pass the
    serial sweep.  *sweep_key* (the backend's persistent identity dict)
    enables checkpoints; *queue* (a :class:`~repro.shard.queue.ShardQueue`)
    enables multi-host draining and requires checkpoints.
    """
    from ..graphs.families import all_graphs_exactly  # noqa: PLC0415
    from ..neighborhood.ngraph import NeighborhoodGraph, build_neighborhood_graph  # noqa: PLC0415

    depth = plan.shard_depth if plan.shard_depth is not None else CONFIG.shard_depth
    workers = plan.workers or 1
    ngraph = (
        into
        if into is not None
        else NeighborhoodGraph(radius=lcp.radius, include_ids=not lcp.anonymous)
    )
    store = None
    if CONFIG.shard_checkpoints and plan.disk_cache and sweep_key is not None:
        store = ShardCheckpointStore(sweep_key)
    if queue is not None and store is None:
        raise ValueError(
            "a ShardQueue needs checkpoints (disk_cache + shard_checkpoints "
            "+ sweep_key) — foreign shards are adopted from the store"
        )
    outcome = ShardSweepOutcome(ngraph=ngraph, workers_effective=max(1, workers))
    progress = _ScanProgress(lcp, n, ctx, ngraph)
    bipartite = bipartite_generation(lcp)
    with ctx.tracer.span(
        "shard:sweep", n=n, depth=depth, workers=workers, lo=lo
    ) as shard_span:
        # ---- 1. serial prefix: sizes lo+1 .. min(depth, n) --------------
        prefix_hi = min(depth, n)
        if lo < prefix_hi:

            def prefix_graphs():
                for size in range(lo + 1, prefix_hi + 1):
                    yield from all_graphs_exactly(
                        size, mutable=False, bipartite=bipartite
                    )

            with ctx.tracer.span("shard:prefix", hi=prefix_hi):
                build_neighborhood_graph(
                    lcp,
                    labeled_yes_instances(
                        lcp,
                        prefix_graphs(),
                        id_bound=n,
                        symmetry=symmetry,
                        account=account,
                        stats=ctx.stats,
                        **bounds,
                    ),
                    stats=ctx.stats,
                    consumer=consumer,
                    into=ngraph,
                    tracer=ctx.tracer,
                )
            outcome.stopped = consumer is not None and consumer.done
        if outcome.stopped or max(lo, depth) >= n:
            progress.report(flush=True)
            shard_span.set_attributes(shards=0, stopped=outcome.stopped)
            return outcome
        progress.report()

        # ---- 2. the shard stage ----------------------------------------
        spec = plan_shards(n, depth, workers, bipartite=bipartite)
        roots = level_entries(depth, bipartite)
        results = _drain_shards(
            lcp, n, plan, ctx, spec, roots, bounds, symmetry,
            lo, workers, store, queue, outcome, shard_span,
        )

        # ---- 3. merge + replay in serial emission order ----------------
        with ctx.stats.time_stage("shard_replay"), ctx.tracer.span("shard:replay"):
            for size in range(max(lo, depth) + 1, n + 1):
                blocks = []
                for shard in spec.shards:
                    blocks.extend(results[shard.index]["sizes"].get(size, []))
                blocks.sort(key=lambda block: block["mask"])
                for block in blocks:
                    stopped = _replay_chunk(
                        ngraph,
                        block["instances"],
                        block["results"],
                        ctx.stats,
                        consumer,
                        deltas=block["deltas"] if account is not None else None,
                        account=account,
                    )
                    progress.report()
                    if stopped:
                        outcome.stopped = True
                        break
                    if account is not None:
                        account.add_delta(block["trailing"])
                if outcome.stopped:
                    break
            progress.report(flush=True)
        shard_span.set_attributes(
            shards=outcome.shard_count,
            checkpoint_hits=outcome.checkpoint_hits,
            steals=outcome.steal_count,
            stopped=outcome.stopped,
        )
    _record_gauges(ctx, outcome)
    return outcome


class _ScanProgress:
    """``instances_scanned`` progress deltas of a sharded sweep, batched
    like the serial route's :func:`repro.obs.progress.counting_instances`
    and counted off the graph the parent replays into."""

    def __init__(self, lcp, n: int, ctx, ngraph, every: int = 256) -> None:
        self.bus = ctx.progress
        self.ngraph = ngraph
        self.start = ngraph.instances_scanned
        self.every = every
        self.reported = 0
        self.fields = {
            "scheme": lcp.name,
            "n": n,
            "trace_id": ctx.tracer.trace_id if ctx.tracer.active else None,
        }

    def report(self, flush: bool = False) -> None:
        if not self.bus.active:
            return
        total = self.ngraph.instances_scanned - self.start
        pending = total - self.reported
        if pending >= self.every or (flush and pending):
            self.bus.emit("instances_scanned", delta=pending, total=total, **self.fields)
            self.reported = total


def _drain_shards(
    lcp, n, plan, ctx, spec: ShardSpec, roots, bounds, symmetry,
    lo, workers, store, queue, outcome: ShardSweepOutcome, shard_span,
) -> dict[int, dict]:
    """Compute/adopt every shard of *spec*; returns ``{index: result}``."""
    bus = ctx.progress
    traced = ctx.tracer.active
    stage_start = time.perf_counter()
    results: dict[int, dict] = {}
    executed_by_pid: dict[int, int] = {}

    def payload_for(shard: Shard) -> dict:
        return {
            "lcp": lcp,
            "n": n,
            "lo": lo,
            "shard": shard,
            "roots": roots[shard.start : shard.stop],
            "bounds": bounds,
            "symmetry": symmetry,
            "kernel": plan.kernel or CONFIG.kernel,
            "traced": traced,
        }

    def adopt(shard: Shard, result: dict, computed_here: bool, in_process: bool):
        results[shard.index] = result
        if computed_here:
            ctx.stats.merge(result["stats"])
            ctx.tracer.adopt(result["spans"], parent=shard_span)
            if not in_process:
                # In-process shards already landed their generation work
                # on this process's GLOBAL_STATS; pool shards report it
                # as deltas the parent folds back in.
                for name, delta in result["global_stats"].items():
                    GLOBAL_STATS.incr(name, delta)
            if store is not None:
                store.store(shard, result, stats=ctx.stats)
            if queue is not None:
                queue.complete(shard.id)
            bus.emit(
                "shard_finished",
                shard=shard.id,
                index=shard.index,
                n=n,
                elapsed_s=result["elapsed_s"],
                pid=result["pid"],
            )
            executed_by_pid[result["pid"]] = executed_by_pid.get(result["pid"], 0) + 1

    # -- partition: checkpointed / ours to compute / foreign claims ------
    owned: list[Shard] = []
    foreign: list[Shard] = []
    for shard in spec.shards:
        cached = store.load(shard, stats=ctx.stats) if store is not None else None
        if cached is not None:
            outcome.checkpoint_hits += 1
            bus.emit("shard_checkpoint_hit", shard=shard.id, index=shard.index, n=n)
            if queue is not None:
                queue.complete(shard.id)
            adopt(shard, cached, computed_here=False, in_process=False)
        elif queue is None or queue.claim(shard.id):
            owned.append(shard)
        else:
            foreign.append(shard)

    # -- compute owned shards: pool (work-stealing) or in-process --------
    use_pool = workers > 1 and len(owned) > 1 and _picklable(lcp, ctx.stats)
    if use_pool:
        from ..perf.pool import active_pool, make_pool  # noqa: PLC0415

        pool = active_pool(workers)
        own_pool = pool is None
        if own_pool:
            pool = make_pool(workers)
        else:
            ctx.stats.incr("shared_pool_hits")
        try:
            futures = {}
            for shard in owned:
                bus.emit("shard_started", shard=shard.id, index=shard.index, n=n)
                futures[pool.submit(run_shard, payload_for(shard))] = shard
            for future in as_completed(futures):
                adopt(futures[future], future.result(), True, in_process=False)
        finally:
            if own_pool:
                pool.shutdown()
    else:
        for shard in owned:
            bus.emit("shard_started", shard=shard.id, index=shard.index, n=n)
            adopt(shard, run_shard(payload_for(shard)), True, in_process=True)

    # -- adopt foreign shards from their checkpoints (steal on expiry) ---
    while foreign:
        remaining = []
        for shard in foreign:
            cached = store.load(shard, stats=ctx.stats)
            if cached is not None:
                outcome.checkpoint_hits += 1
                bus.emit(
                    "shard_checkpoint_hit", shard=shard.id, index=shard.index, n=n
                )
                adopt(shard, cached, computed_here=False, in_process=False)
            elif queue.claim(shard.id):  # expired lease stolen
                ctx.stats.incr("shard_lease_steals")
                bus.emit("shard_started", shard=shard.id, index=shard.index, n=n)
                adopt(shard, run_shard(payload_for(shard)), True, in_process=True)
            else:
                remaining.append(shard)
        if remaining:
            time.sleep(_FOREIGN_POLL_S)
        foreign = remaining

    # -- steal accounting ------------------------------------------------
    outcome.shard_count = len(spec.shards)
    executed = sum(executed_by_pid.values())
    if use_pool and executed:
        fair_share = -(-executed // max(1, workers))  # ceil
        outcome.steal_count = sum(
            max(0, count - fair_share) for count in executed_by_pid.values()
        )
    elapsed = time.perf_counter() - stage_start
    if elapsed > 0.0:
        outcome.shards_per_sec = len(spec.shards) / elapsed
    ctx.stats.incr("shards_completed", executed)
    return results


def _replay_chunk(
    ngraph, chunk, chunk_results, stats, consumer, deltas=None, account=None
) -> bool:
    """Replay one block of worker scans into the parent graph, in serial
    order.

    Returns True when the consumer signalled ``done`` mid-replay; the
    replay stops at that exact event, so the assembled graph matches the
    serial builder's early-exit prefix byte for byte.  *deltas* (one
    :meth:`SymmetryAccount.as_tuple`-format tuple per instance) are
    folded into *account* immediately before their instance replays, so
    an early exit leaves the account exactly where the serial sweep's
    abandoned generator would have.
    """
    for index, (instance, (accepting, edges)) in enumerate(zip(chunk, chunk_results)):
        if deltas is not None and account is not None:
            account.add_delta(deltas[index])
        ngraph.instances_scanned += 1
        stats.incr("instances_scanned")
        indices = {}
        for v, view in accepting:
            idx, created = ngraph.add_view_tracked(view, instance, v)
            indices[v] = idx
            if created and consumer is not None:
                consumer.on_view(idx, view)
                if consumer.done:
                    return True
        for u, v in edges:
            created = ngraph.add_edge_tracked(indices[u], indices[v], instance, (u, v))
            if created and consumer is not None:
                consumer.on_edge(indices[u], indices[v])
                if consumer.done:
                    return True
    return False


def _picklable(lcp, stats) -> bool:
    try:
        pickle.dumps(lcp)
    except Exception:
        stats.incr("parallel_fallbacks")
        log.warning(
            "%s is not picklable; running shards in-process",
            getattr(lcp, "name", type(lcp).__name__),
        )
        return False
    return True


def _record_gauges(ctx, outcome: ShardSweepOutcome) -> None:
    metrics = ctx.stats.metrics
    if metrics is None or not outcome.shard_count:
        return
    metrics.set_gauge("shard_count", outcome.shard_count)
    metrics.set_gauge("steal_count", outcome.steal_count)
    if outcome.shards_per_sec is not None:
        metrics.set_gauge("shards_per_sec", outcome.shards_per_sec)
