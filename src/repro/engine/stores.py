"""The engine's two verdict cache tiers.

Both have ``load(key, stats)`` and ``store(key, verdict, stats)``; *key*
is tier-specific — the memory tier hashes a tuple, the disk tier digests
a readable dict — and always produced by the engine's key builders,
never by callers.

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
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import lt

from ..graphs.properties import is_odd_closed_walk, proper_coloring_ok
from ..neighborhood.ngraph import NeighborhoodGraph
from ..obs.logs import get_logger
from ..perf.stats import GLOBAL_STATS, PerfStats
from .verdict import Provenance, Verdict, fingerprint_bytes, fingerprint_digest

log = get_logger("engine.stores")


class MemoryVerdictStore:
    """In-process verdict memo.

    Hits bump the ``stream_memo_hits`` counter, which keeps its
    pre-engine name so existing dashboards and tests read unchanged.
    ``warm`` holds the streaming backend's warm-start states next to the
    memo: the last finished sweep per family key (without ``n``) as
    ``(n, engine)``.  Both go with :meth:`clear`.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, Verdict] = {}
        self.warm: dict[tuple, tuple] = {}

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
        self.warm.clear()

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
        with stats.time_stage("disk_cache_load"):
            return default_verdict_cache().load(
                key, stats=stats, decode=partial(_verdict_from_body, key)
            )

    def store(self, key: dict, verdict: Verdict, stats: PerfStats | None = None) -> bool:
        """Persist *verdict*; also caches its :meth:`~Verdict.digest`,
        computed from the body payload about to be written."""
        from ..perf.persist import default_verdict_cache  # noqa: PLC0415

        stats = stats or GLOBAL_STATS
        with stats.time_stage("disk_cache_store"):
            try:
                body = _body_from_verdict(verdict)
                verdict._remember_digest(_payload_digest(body))
            except TypeError as exc:  # a label the codec cannot encode
                stats.incr("persist_skips")
                log.warning(
                    "skipping persist for %s: %s", key.get("lcp_name", "?"), exc
                )
                return False
            return default_verdict_cache().store(key, body, stats=stats)


# ----------------------------------------------------------------------
# Serialization between Verdict envelopes and persisted bodies
# ----------------------------------------------------------------------

_BODY_KEYS = frozenset(
    (
        "hiding",
        "k",
        "radius",
        "include_ids",
        "early_exit",
        "instances_scanned",
        "labels",
        "shapes",
        "view_shapes",
        "views",
        "edges",
        "odd_cycle",
        "coloring",
    )
)


def _body_from_verdict(verdict: Verdict) -> dict:
    from ..perf import persist  # noqa: PLC0415

    g = verdict.ngraph
    labels, shapes, view_shapes, view_labels = persist.encode_views(g.views)
    return {
        "hiding": verdict.hiding,
        "k": verdict.k,
        "radius": g.radius,
        "include_ids": g.include_ids,
        "early_exit": verdict.provenance.early_exit,
        "instances_scanned": g.instances_scanned,
        "labels": labels,
        "shapes": shapes,
        "view_shapes": view_shapes,
        "views": view_labels,
        "edges": [list(edge) for edge in sorted(g.edges)],
        "odd_cycle": (
            None if verdict.witness is None else [g.index[v] for v in verdict.witness]
        ),
        "coloring": (
            None
            if verdict.coloring is None
            else [list(item) for item in sorted(verdict.coloring.items())]
        ),
    }


def _payload_digest(body: dict) -> str:
    """:meth:`Verdict.digest` of the verdict *body* encodes, read off the
    payload: its views are already encoded."""
    encoded = (body["labels"], body["shapes"], body["view_shapes"], body["views"])
    return fingerprint_digest(
        fingerprint_bytes(
            body["k"],
            body["hiding"],
            encoded,
            body["odd_cycle"],
            body["edges"],
            body["coloring"],
        )
    )


def _check_certificate(k: int, hiding, ngraph, odd_cycle, coloring) -> None:
    """Raise :class:`~repro.perf.persist.MalformedEntry` unless the body
    serves the certificate its decision needs (Lemma 3.2): a non-hiding
    verdict a proper coloring with at most *k* colors (the caller checked
    that it covers every view once), a ``k = 2`` hiding verdict an odd
    closed walk, a hiding verdict no coloring."""
    from ..perf.persist import MalformedEntry  # noqa: PLC0415

    if hiding is True and coloring is not None:
        raise MalformedEntry("hiding verdict with a coloring")
    if hiding is False and coloring is None:
        raise MalformedEntry("non-hiding verdict without a coloring")
    if hiding is True and k == 2 and odd_cycle is None:
        raise MalformedEntry("k = 2 hiding verdict without an odd closed walk")
    if odd_cycle is not None and not is_odd_closed_walk(ngraph.to_graph(), odd_cycle):
        raise MalformedEntry("odd_cycle is not an odd closed walk of the body's edges")
    if coloring is not None:
        if len(set(coloring.values())) > k:
            raise MalformedEntry(f"coloring uses more than {k} colors")
        # proper_coloring_ok reads only ``edges``: the body's own pairs,
        # without building a Graph of them.
        if not proper_coloring_ok(ngraph, coloring):
            raise MalformedEntry("coloring is not proper over the body's edges")


def _verdict_from_body(key: dict, body) -> Verdict:
    """Strict decoder: the :class:`Verdict` that :func:`_body_from_verdict`
    encoded, with its digest read off the payload.  Raises
    :class:`~repro.perf.persist.MalformedEntry` on any body the encoder
    does not produce, and on one whose certificate does not hold."""
    from ..perf import persist  # noqa: PLC0415

    if type(body) is not dict or body.keys() != _BODY_KEYS:
        raise persist.MalformedEntry("body keys differ from the encoder's")
    hiding, k = body["hiding"], body["k"]
    if (
        type(hiding) not in (bool, type(None))
        or type(k) is not int
        or type(body["radius"]) is not int
        or type(body["include_ids"]) is not bool
        or type(body["early_exit"]) is not bool
        or type(body["instances_scanned"]) is not int
    ):
        raise persist.MalformedEntry("malformed decision fields")
    views = persist.decode_views(
        body["labels"], body["shapes"], body["view_shapes"], body["views"]
    )
    order = len(views)
    edges = persist.check_pairs(body["edges"], "edges")
    persist.check_indices(list(chain.from_iterable(edges)), order, "edge view")
    edges = list(map(tuple, edges))
    if not all(map(lt, edges, edges[1:])):
        raise persist.MalformedEntry("edges not sorted and distinct")
    odd_cycle = body["odd_cycle"]
    if odd_cycle is not None:
        persist.check_indices(odd_cycle, order, "odd-cycle view")
    coloring = body["coloring"]
    if coloring is not None:
        persist.check_pairs(coloring, "coloring")
        if [i for i, _ in coloring] != list(range(order)):
            raise persist.MalformedEntry("coloring does not cover every view exactly once")
        coloring = dict(coloring)

    ngraph = NeighborhoodGraph(radius=body["radius"], include_ids=body["include_ids"])
    ngraph.views = views
    ngraph.index = {view: i for i, view in enumerate(views)}
    if len(ngraph.index) != order:
        raise persist.MalformedEntry("duplicate views")
    ngraph.edges = set(edges)
    adjacency = ngraph.adjacency
    for i, j in edges:
        adjacency.setdefault(i, []).append(j)
        if j != i:
            adjacency.setdefault(j, []).append(i)
    _check_certificate(k, hiding, ngraph, odd_cycle, coloring)
    ngraph.instances_scanned = body["instances_scanned"]
    # Instance witnesses per view/edge do not survive the round trip;
    # consumers that trace views back to instances must run fresh.
    ngraph.has_provenance = False
    witness = None if odd_cycle is None else tuple(views[i] for i in odd_cycle)
    provenance = Provenance(
        backend="streaming",
        n=key.get("n", -1),
        early_exit=body["early_exit"],
        instances_scanned=body["instances_scanned"],
        views=order,
        edges=len(ngraph.edges),
        disk_cache_hit=True,
        symmetry_pruned=key.get("symmetry") == "on",
    )
    verdict = Verdict(
        k=k,
        hiding=hiding,
        witness=witness,
        coloring=coloring,
        ngraph=ngraph,
        provenance=provenance,
    )
    verdict._remember_digest(_payload_digest(body))
    return verdict
