"""One shard's work: expand its subtree, sweep it, report exact deltas.

:func:`run_shard` runs inside a pool worker (top-level, so it pickles).
It rebuilds the levels ``depth+1 .. n`` under its root slice with the
memo-free :func:`repro.symmetry.orderly.build_level`, emits each size's
classes in ascending-mask order, and sweeps every emitted graph through
the same :func:`~repro.neighborhood.aviews.labeled_yes_instances` loop
the serial engine runs — one graph at a time, with a fresh
:class:`~repro.symmetry.prune.SymmetryAccount` whose per-yield deltas
let the parent replay the account exactly (including the serial
abandoned-generator semantics of an early exit; see
:func:`repro.shard.executor._replay_chunk`).

The result is a plain picklable dict::

    {"shard": {...}, "pid", "elapsed_s", "sizes": {size: [block, ...]},
     "stats", "global_stats", "spans"}

where each *block* covers one emitted graph: its mask, the labeled
instances it yielded with their ``(accepting, edges)`` scans and
account deltas, and the trailing delta the generator records after the
graph's last yield.
"""

from __future__ import annotations

import dataclasses
import os
import time

from ..neighborhood.aviews import labeled_yes_instances
from ..obs.trace import worker_span
from ..perf.cache import DecisionMemo, ViewLayoutCache
from ..perf.config import CONFIG
from ..perf.stats import GLOBAL_STATS, PerfStats
from ..symmetry.orderly import build_level, emit_entries
from ..symmetry.prune import SymmetryAccount

#: GLOBAL_STATS counters the worker reports back as deltas — generation
#: work that the serial sweep would have recorded in the parent process.
_GLOBAL_COUNTERS = ("canonicalizations", "orderly_generations")


class InstanceScanner:
    """Per-worker scan state: one layout cache, one decision memo, and
    the last-graph edge shortcut, shared across every instance a shard
    worker scans."""

    __slots__ = ("lcp", "stats", "layout_cache", "memo", "_last_graph", "_last_edges")

    def __init__(self, lcp, stats: PerfStats) -> None:
        self.lcp = lcp
        self.stats = stats
        self.layout_cache = ViewLayoutCache()
        self.memo = DecisionMemo(lcp.decoder)
        self._last_graph = None
        self._last_edges: list = []

    def scan(self, instance) -> tuple[list, list]:
        """``(accepting (node, view) pairs, accepted edges)`` for one
        labeled instance, in the serial builder's visit order."""
        lcp, memo, stats = self.lcp, self.memo, self.stats
        views = self.layout_cache.labeled_views(
            instance, lcp.radius, not lcp.anonymous, stats=stats
        )
        votes = {v: memo.decide(view, stats=stats) for v, view in views.items()}
        accepting = [(v, views[v]) for v, accepted in votes.items() if accepted]
        if instance.graph is not self._last_graph:
            self._last_graph = instance.graph
            self._last_edges = instance.graph.edges
        edges = [
            (u, v) for u, v in self._last_edges if votes.get(u) and votes.get(v)
        ]
        return accepting, edges


def run_shard(payload: dict) -> dict:
    """Expand and sweep one shard (pool-worker entry point).

    *payload* keys: ``lcp``, ``n``, ``lo`` (warm-start floor — sizes at
    or below it are skipped), ``shard`` (:class:`~repro.shard.spec.Shard`;
    its ``bipartite`` flag picks the augmentation tree), ``roots`` (the
    shard's level-``depth`` entry slice), ``bounds``
    (enumeration-bound kwargs), ``symmetry``, ``kernel`` (the plan's
    kernel mode), ``traced``.
    """
    lcp = payload["lcp"]
    n = payload["n"]
    lo = payload["lo"]
    shard = payload["shard"]
    start = time.perf_counter()
    stats = PerfStats()
    spans: list[dict] = []
    global_before = {name: GLOBAL_STATS.get(name) for name in _GLOBAL_COUNTERS}
    scanner = InstanceScanner(lcp, stats)
    sizes: dict[int, list] = {}
    with CONFIG.overridden(kernel=payload["kernel"]):
        with worker_span(
            "worker:shard",
            spans if payload["traced"] else None,
            worker_pid=os.getpid(),
            shard_index=shard.index,
            roots=len(payload["roots"]),
        ):
            entries = payload["roots"]
            for size in range(shard.depth + 1, n + 1):
                entries = build_level(size, entries, shard.bipartite)
                if size <= lo:
                    continue
                blocks = []
                for mask, graph in emit_entries(entries, size):
                    blocks.append(
                        _sweep_graph(lcp, graph, mask, n, payload, scanner, stats)
                    )
                sizes[size] = blocks
    global_stats = {
        name: GLOBAL_STATS.get(name) - global_before[name]
        for name in _GLOBAL_COUNTERS
        if GLOBAL_STATS.get(name) != global_before[name]
    }
    return {
        "shard": dataclasses.asdict(shard),
        "pid": os.getpid(),
        "elapsed_s": time.perf_counter() - start,
        "sizes": sizes,
        "stats": stats.as_dict(),
        "global_stats": global_stats,
        "spans": spans,
    }


def _sweep_graph(
    lcp, graph, mask: int, n: int, payload: dict, scanner, stats: PerfStats
) -> dict:
    """Sweep one emitted graph; capture instances, scans, and deltas.

    The account is fresh per graph — sound because the serial sweep's
    account mutations are per-graph independent (``base_counts`` resets
    per graph and every counter is purely additive) — so summing the
    deltas across graphs in replay order reproduces the serial totals.
    """
    account = SymmetryAccount()
    previous = account.as_tuple()
    instances: list = []
    results: list = []
    deltas: list = []
    for instance in labeled_yes_instances(
        lcp,
        [graph],
        id_bound=n,
        symmetry=payload["symmetry"],
        account=account,
        stats=stats,
        **payload["bounds"],
    ):
        current = account.as_tuple()
        deltas.append(tuple(c - p for c, p in zip(current, previous)))
        previous = current
        instances.append(instance)
        results.append(scanner.scan(instance))
    final = account.as_tuple()
    return {
        "mask": mask,
        "instances": instances,
        "results": results,
        "deltas": deltas,
        "trailing": tuple(f - p for f, p in zip(final, previous)),
    }
