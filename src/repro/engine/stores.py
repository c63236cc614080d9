"""Verdict cache tiers behind one :class:`VerdictStore` protocol.

Two tiers ship with the engine:

* :class:`MemoryVerdictStore` — an in-process dict keyed by the resolved
  sweep identity.  Exact object round trip: a hit returns the very
  :class:`~repro.engine.verdict.Verdict` that was stored, so repeated
  identical sweeps share one immutable envelope (and ``is``-level memo
  semantics survive the refactor).
* :class:`DiskVerdictStore` — the persistent content-addressed JSON-lines
  store of :mod:`repro.perf.persist`, lifted to the ``Verdict`` level.
  Lossy round trip: instance provenance does not survive
  (``ngraph.has_provenance`` is ``False`` on reload) and the returned
  envelope's :class:`~repro.engine.verdict.Provenance` records the disk
  hit.  The on-disk key layout is byte-compatible with the pre-engine
  cache, so existing ``.repro_cache/`` entries keep serving.

New tiers (remote stores, sharded stores) implement the same two
methods and plug into :class:`~repro.engine.context.RunContext`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..neighborhood.hiding import HidingVerdict
from ..neighborhood.ngraph import NeighborhoodGraph
from ..perf.stats import GLOBAL_STATS, PerfStats
from .verdict import Provenance, Verdict


@runtime_checkable
class VerdictStore(Protocol):
    """One cache tier: load/store engine verdicts by sweep identity.

    *key* is tier-specific — the memory tier hashes a tuple, the disk
    tier digests a readable dict — and always produced by the engine's
    key builders, never by callers.
    """

    def load(self, key, stats: PerfStats | None = None) -> Verdict | None: ...

    def store(self, key, verdict: Verdict, stats: PerfStats | None = None) -> bool: ...


class MemoryVerdictStore:
    """In-process verdict memo.

    Hits bump the ``stream_memo_hits`` counter, which keeps its
    pre-engine name so existing dashboards and tests read unchanged.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, Verdict] = {}

    def load(self, key, stats: PerfStats | None = None) -> Verdict | None:
        stats = stats or GLOBAL_STATS
        verdict = self._entries.get(key)
        if verdict is not None:
            stats.incr("stream_memo_hits")
        return verdict

    def store(self, key, verdict: Verdict, stats: PerfStats | None = None) -> bool:
        self._entries[key] = verdict
        return True

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class DiskVerdictStore:
    """The persistent tier: ``Verdict`` ↔ the JSON-lines body format of
    :class:`repro.perf.persist.PersistentVerdictCache`.

    The underlying cache is re-resolved per operation (it is one
    ``Path``), so ``CONFIG.disk_cache_dir`` / ``$REPRO_CACHE_DIR``
    changes take effect immediately — the pre-engine behavior.
    """

    def load(self, key: dict, stats: PerfStats | None = None) -> Verdict | None:
        from ..perf.persist import default_verdict_cache  # noqa: PLC0415

        stats = stats or GLOBAL_STATS
        body = default_verdict_cache().load(key, stats=stats)
        if body is None:
            return None
        with stats.time_stage("disk_cache_load"):
            return _verdict_from_body(key, body)

    def store(self, key: dict, verdict: Verdict, stats: PerfStats | None = None) -> bool:
        from ..perf.persist import default_verdict_cache  # noqa: PLC0415

        stats = stats or GLOBAL_STATS
        with stats.time_stage("disk_cache_store"):
            return default_verdict_cache().store(
                key, _body_from_verdict(verdict), stats=stats
            )


# ----------------------------------------------------------------------
# Serialization between Verdict envelopes and persisted bodies
# ----------------------------------------------------------------------


def _body_from_verdict(verdict: Verdict) -> dict:
    from ..perf import persist  # noqa: PLC0415

    g = verdict.ngraph
    legacy = verdict.legacy
    body = {
        "hiding": verdict.hiding,
        "k": verdict.k,
        "radius": g.radius,
        "include_ids": g.include_ids,
        "early_exit": verdict.provenance.early_exit,
        "instances_scanned": g.instances_scanned,
        "views": [persist.encode_view(view) for view in g.views],
        "edges": [list(edge) for edge in sorted(g.edges)],
        "odd_cycle": (
            None
            if legacy.odd_cycle is None
            else [g.index[view] for view in legacy.odd_cycle]
        ),
        "coloring": (
            None
            if legacy.coloring is None
            else {str(i): c for i, c in legacy.coloring.items()}
        ),
    }
    return body


def _verdict_from_body(key: dict, body: dict) -> Verdict:
    from ..perf import persist  # noqa: PLC0415

    views = [persist.decode_view(payload) for payload in body["views"]]
    ngraph = NeighborhoodGraph(radius=body["radius"], include_ids=body["include_ids"])
    ngraph.views = views
    ngraph.index = {view: i for i, view in enumerate(views)}
    for i, j in body["edges"]:
        ngraph.edges.add((i, j))
        ngraph.adjacency.setdefault(i, []).append(j)
        if j != i:
            ngraph.adjacency.setdefault(j, []).append(i)
    ngraph.instances_scanned = body["instances_scanned"]
    # Instance witnesses per view/edge do not survive the round trip;
    # consumers that trace views back to instances must run fresh.
    ngraph.has_provenance = False
    odd_cycle = (
        None
        if body["odd_cycle"] is None
        else tuple(views[i] for i in body["odd_cycle"])
    )
    coloring = (
        None
        if body["coloring"] is None
        else {int(i): c for i, c in body["coloring"].items()}
    )
    legacy = HidingVerdict(
        k=body["k"],
        hiding=body["hiding"],
        ngraph=ngraph,
        odd_cycle=odd_cycle,
        coloring=coloring,
    )
    provenance = Provenance(
        backend="streaming",
        n=key.get("n", -1),
        workers=0,
        early_exit=bool(body.get("early_exit", True)),
        instances_scanned=body["instances_scanned"],
        views=len(views),
        edges=len(ngraph.edges),
        disk_cache_hit=True,
        symmetry_pruned=key.get("symmetry") == "on",
    )
    return Verdict(
        k=body["k"],
        hiding=body["hiding"],
        witness=odd_cycle,
        coloring=coloring,
        ngraph=ngraph,
        provenance=provenance,
        legacy=legacy,
    )
