"""The engine's two verdict cache tiers, and the disk tier's format.

Both tiers have ``load(key, stats)`` and ``store(key, verdict, stats)``;
*key* is tier-specific — the memory tier hashes a tuple, the disk tier
digests a readable dict — and always produced by the engine's key
builders, never by callers.

* :class:`MemoryVerdictStore` — an in-process dict keyed by the resolved
  sweep identity.  Exact object round trip: a hit returns the very
  :class:`~repro.engine.verdict.Verdict` that was stored, so repeated
  identical sweeps share one immutable envelope (and ``is``-level memo
  semantics survive the refactor).
* :class:`DiskVerdictStore` — the persistent tier.  The full Lemma 3.1
  sweep is deterministic per ``(scheme, decoder, parameters)``, so its
  verdict can outlive the process.  Lossy round trip: instance
  provenance does not survive (``ngraph.has_provenance`` is ``False`` on
  reload) and the returned envelope's
  :class:`~repro.engine.verdict.Provenance` records the disk hit.

The disk tier stores one JSON-lines file per sweep under
``<dir>/hiding/`` (:func:`cache_dir` names ``<dir>``):

* the file name is content-addressed — :func:`digest_for`, a SHA-256 of
  the canonical identity key (LCP type/name, decoder name, ``k``,
  radius, anonymity, ``n``, and every enumeration bound) plus
  :data:`CACHE_VERSION`;
* line 1 is the **header** record (version, the readable key, counts,
  and ``body_sha256``, the SHA-256 of line 2) — readable with
  ``head -1``, and enough for ``repro cache stats``;
* line 2 is the **body** record: the scanned views, edges, the witness
  walk / coloring, and scan counters.  Views are shape- and
  label-interned: a per-entry ``shapes`` table holds each distinct view
  shape (every field but the labels) once, a ``labels`` table each
  distinct certificate label's :func:`encode_label` once, and each view
  is a shape index plus one label index per node
  (:func:`encode_views` / :func:`decode_views`).

A read is a hit only when the header carries the current version, the
body matches its checksum, the strict decoder accepts it, and the body
carries the certificate of its decision (Lemma 3.2): a proper
``k``-coloring of every view for a non-hiding verdict, an odd closed
walk for a ``k = 2`` hiding one.  Anything else is a miss (a rejected
body is logged as a warning naming the file), and the next store
overwrites the entry; a version bump thus invalidates every old entry.
Each write goes to a temp file of the writer's own and is renamed into
place, so concurrent writers of one key never tear each other's entry.
A verdict whose certificate labels cannot be represented in JSON is
skipped rather than corrupted (counted as ``persist_skips``).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from itertools import chain
from operator import lt
from pathlib import Path
from typing import Any

from ..graphs.properties import is_odd_closed_walk, proper_coloring_ok
from ..local.views import View
from ..neighborhood.ngraph import NeighborhoodGraph
from ..obs.logs import get_logger
from ..perf.config import CONFIG
from ..perf.stats import GLOBAL_STATS, PerfStats
from .verdict import Provenance, Verdict, fingerprint_bytes, fingerprint_digest

log = get_logger("engine.stores")

#: Format version; bump whenever the payload layout or the semantics of
#: the sweep change in a way that stale entries must not survive.
#: Version 2: label-interned view bodies and the header's ``body_sha256``.
#: Version 3: shape-interned view bodies (the ``shapes`` table).
CACHE_VERSION = 3

_SUBDIR = "hiding"


def cache_dir() -> Path:
    """The active cache directory (config > environment > ``./.repro_cache``)."""
    if CONFIG.disk_cache_dir:
        return Path(CONFIG.disk_cache_dir)
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".repro_cache")


def digest_for(key: dict) -> str:
    """Content address: SHA-256 over the canonical key + format version."""
    canonical = json.dumps(
        {"version": CACHE_VERSION, "key": key}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class MalformedEntry(ValueError):
    """A persisted body that the strict codec or the certificate check
    rejects; the disk tier reads it as a miss."""


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
    """The persistent tier: ``Verdict`` ↔ ``<dir>/hiding/<digest>.jsonl``.

    *directory* defaults to :func:`cache_dir`, resolved again on every
    operation, so ``CONFIG.disk_cache_dir`` / ``$REPRO_CACHE_DIR``
    changes take effect immediately.
    """

    def __init__(self, directory: Path | str | None = None) -> None:
        self.directory = directory

    @property
    def root(self) -> Path:
        return Path(self.directory) if self.directory is not None else cache_dir()

    @property
    def _dir(self) -> Path:
        return self.root / _SUBDIR

    def _path(self, key: dict) -> Path:
        return self._dir / f"{digest_for(key)}.jsonl"

    def load(self, key: dict, stats: PerfStats | None = None) -> Verdict | None:
        """The verdict stored under *key*, or ``None`` on a miss: no
        entry, a stale version, a checksum mismatch, or a body the strict
        decoder or the certificate check rejects."""
        stats = stats or GLOBAL_STATS
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                header = json.loads(fh.readline())
                if type(header) is not dict or header.get("version") != CACHE_VERSION:
                    stats.incr("disk_misses")
                    log.debug("stale-version entry at %s", path.name)
                    return None
                line = fh.read()
        except (OSError, ValueError):
            stats.incr("disk_misses")
            log.debug("disk miss for %s", path.name)
            return None
        line = line.removesuffix(b"\n")
        try:
            if hashlib.sha256(line).hexdigest() != header.get("body_sha256"):
                raise MalformedEntry("body checksum mismatch")
            verdict = _verdict_from_body(key, json.loads(line))
        except (ValueError, TypeError) as exc:
            stats.incr("disk_misses")
            log.warning("rejecting cache entry %s: %s", path.name, exc)
            return None
        stats.incr("disk_hits")
        log.debug("disk hit for %s", path.name)
        return verdict

    def store(self, key: dict, verdict: Verdict, stats: PerfStats | None = None) -> bool:
        """Write *verdict* under *key* atomically; also caches its
        :meth:`~Verdict.digest`, computed from the body about to be
        written.  Returns ``False`` (counting ``persist_skips``) when a
        certificate label cannot be encoded or the file cannot be
        written."""
        stats = stats or GLOBAL_STATS
        try:
            body = _body_from_verdict(verdict)
            verdict._remember_digest(_payload_digest(body))
            # Bodies are trees: skip the encoder's per-container cycle check.
            line = json.dumps(
                body, ensure_ascii=False, separators=(",", ":"), check_circular=False
            ).encode()
        except (TypeError, ValueError, RecursionError) as exc:
            stats.incr("persist_skips")
            log.warning("skipping persist for %s: %s", key.get("lcp_name", "?"), exc)
            return False
        header = {
            "version": CACHE_VERSION,
            "key": key,
            "views": len(body["views"]),
            "edges": len(body["edges"]),
            "body_sha256": hashlib.sha256(line).hexdigest(),
        }
        blob = json.dumps(header, ensure_ascii=False).encode() + b"\n" + line + b"\n"
        path = self._path(key)
        # A temp file of this writer's own (created exclusively, with the
        # umask's mode): two processes storing one key must not replace
        # each other's half-written inode.
        tmp = path.with_name(f"{path.stem}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("xb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            with suppress(OSError):
                tmp.unlink()
            stats.incr("persist_skips")
            log.warning("skipping persist to %s: %s", path, exc)
            return False
        stats.incr("persist_writes")
        log.debug("stored verdict at %s", path.name)
        return True

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` CLI)
    # ------------------------------------------------------------------

    def entries(self) -> list[dict]:
        """Header records of every entry (stale-version ones included)."""
        out = []
        if not self._dir.is_dir():
            return out
        for path in sorted(self._dir.glob("*.jsonl")):
            try:
                with path.open("r", encoding="utf-8") as fh:
                    header = json.loads(fh.readline())
            except (OSError, ValueError):
                header = None
            # A header that is not an object, or whose key is not one, is
            # as unreadable as one that does not parse (load() misses it).
            if type(header) is not dict or type(header.get("key")) is not dict:
                header = {"version": None, "key": {"corrupt": path.name}}
            header["file"] = path.name
            header["bytes"] = path.stat().st_size if path.exists() else 0
            out.append(header)
        return out

    def stats_summary(self) -> dict:
        entries = self.entries()
        return {
            "directory": str(self._dir),
            "entries": len(entries),
            "bytes": sum(e["bytes"] for e in entries),
            "current_version": CACHE_VERSION,
            "stale_entries": sum(
                1 for e in entries if e.get("version") != CACHE_VERSION
            ),
        }

    def clear(self) -> int:
        """Delete every entry, and the temp files of writes that never
        finished; returns how many entries were removed."""
        directory = self._dir
        removed = 0
        if directory.is_dir():
            for path in chain(directory.glob("*.tmp"), directory.glob("*.jsonl")):
                with suppress(OSError):
                    path.unlink()
                    removed += path.suffix == ".jsonl"
        return removed


# ----------------------------------------------------------------------
# Label / view codecs
# ----------------------------------------------------------------------

_PRIMITIVES = (str, int, float, bool, type(None))


def encode_label(label: Any) -> Any:
    """JSON-safe encoding of a certificate label.

    Primitives pass through; tuples/lists are tagged so the distinction
    survives the round trip (certificates are hashable, hence tuples).
    Unsupported types raise ``TypeError`` — callers skip persistence.
    """
    if isinstance(label, bool) or label is None or isinstance(label, (int, float, str)):
        return label
    if isinstance(label, tuple):
        return {"t": [encode_label(x) for x in label]}
    if isinstance(label, list):
        return {"l": [encode_label(x) for x in label]}
    if isinstance(label, frozenset):
        return {"fs": sorted((encode_label(x) for x in label), key=repr)}
    raise TypeError(f"cannot persist certificate label of type {type(label).__name__}")


_LABEL_TAGS = {"t": tuple, "l": list, "fs": frozenset}


def decode_label(payload: Any) -> Any:
    """Strict inverse of :func:`encode_label`: accepts exactly its
    outputs, so ``encode_label(decode_label(p)) == p`` holds for every
    accepted *p*; anything else raises :class:`MalformedEntry`."""
    if isinstance(payload, dict):
        if len(payload) != 1:
            raise MalformedEntry(f"label encoding needs one tag: {payload!r}")
        ((tag, items),) = payload.items()
        kind = _LABEL_TAGS.get(tag)
        if kind is None or type(items) is not list:
            raise MalformedEntry(f"unknown label encoding {payload!r}")
        try:
            label = kind(decode_label(x) for x in items)
        except TypeError:  # an unhashable (list) element of a frozenset
            raise MalformedEntry(f"unhashable frozenset element in {payload!r}") from None
        if kind is frozenset:
            keys = [repr(x) for x in items]
            # Sorted, and no two items that collapse into one element
            # (``1`` and ``true``): re-encoding must give *payload* back.
            if len(label) != len(items) or any(a >= b for a, b in zip(keys, keys[1:])):
                raise MalformedEntry(f"non-canonical frozenset encoding {payload!r}")
        return label
    if isinstance(payload, _PRIMITIVES):
        return payload
    raise MalformedEntry(f"unknown label encoding {payload!r}")


def _label_key(label: Any) -> tuple:
    """Type-exact interning key.  ``1``, ``True`` and ``1.0`` (and tuples
    of them) compare equal but encode differently, so they must not
    share a label-table slot; floats key by ``repr`` so ``0.0`` and
    ``-0.0`` stay apart too."""
    kind = type(label)
    if kind is tuple or kind is list:
        return (kind, tuple(map(_label_key, label)))
    if kind is frozenset:
        return (kind, frozenset(map(_label_key, label)))
    if kind is float:
        return (kind, repr(label))
    return (kind, label)


#: The fields of a view other than its labels: one ``shapes`` entry.
SHAPE_FIELDS = ("radius", "dist", "edges", "ports", "ids", "id_bound")
_SHAPE_KEYS = frozenset(SHAPE_FIELDS)


def _shape_payload(view) -> dict:
    return {
        "radius": view.radius,
        "dist": list(view.dist),
        "edges": [list(e) for e in view.edges],
        "ports": [list(p) for p in view.ports],
        "ids": None if view.ids is None else list(view.ids),
        "id_bound": view.id_bound,
    }


def encode_views(views) -> tuple[list, list[dict], list[int], list[list[int]]]:
    """Shape- and label-interned encoding of *views*:
    ``(labels, shapes, view_shapes, view_labels)``.

    *labels* holds the :func:`encode_label` of each distinct label once
    and *shapes* each distinct ``SHAPE_FIELDS`` payload once, both in
    first-use order; view ``i`` is shape ``view_shapes[i]`` carrying the
    labels ``view_labels[i]`` (indices into *labels*, one per node).
    """
    labels: list = []
    label_slots: dict[tuple, int] = {}
    shapes: list[dict] = []
    shape_slots: dict[tuple, int] = {}
    # Views share label objects and, through their layout templates,
    # shape tuples, so most lookups hit by identity and skip building
    # the value key (the views keep every id alive).
    label_by_id: dict[int, int] = {}
    shape_by_id: dict[tuple, int] = {}
    view_shapes = []
    view_labels = []
    for view in views:
        ident = (
            view.radius,
            view.id_bound,
            id(view.dist),
            id(view.edges),
            id(view.ports),
            id(view.ids),
        )
        shape = shape_by_id.get(ident)
        if shape is None:
            key = (view.radius, view.dist, view.edges, view.ports, view.ids, view.id_bound)
            shape = shape_slots.get(key)
            if shape is None:
                shape = shape_slots[key] = len(shapes)
                shapes.append(_shape_payload(view))
            shape_by_id[ident] = shape
        view_shapes.append(shape)
        indices = []
        for label in view.labels:
            slot = label_by_id.get(id(label))
            if slot is None:
                key = _label_key(label)
                slot = label_slots.get(key)
                if slot is None:
                    slot = label_slots[key] = len(labels)
                    labels.append(encode_label(label))
                label_by_id[id(label)] = slot
            indices.append(slot)
        view_labels.append(indices)
    return labels, shapes, view_shapes, view_labels


# Type sets for the strict checks below; ``issuperset(map(type, xs))``
# runs in C, and ``type(x) is int`` keeps ``true`` out of index lists.
_INT = frozenset((int,))
_BOUND = frozenset((int, type(None)))
_LIST = frozenset((list,))
_PAIR = frozenset((2,))


def check_indices(values: Any, bound: int, what: str) -> list:
    """*values* when it is a list of ints in ``range(bound)``; raises
    :class:`MalformedEntry` otherwise."""
    if (
        type(values) is not list
        or not _INT.issuperset(map(type, values))
        or (values and (min(values) < 0 or max(values) >= bound))
    ):
        raise MalformedEntry(f"{what} index out of range")
    return values


def check_pairs(values: Any, what: str) -> list:
    """*values* when it is a list of ``[int, int]`` pairs; raises
    :class:`MalformedEntry` otherwise."""
    if not (
        type(values) is list
        and _LIST.issuperset(map(type, values))
        and _PAIR.issuperset(map(len, values))
        and _INT.issuperset(map(type, chain.from_iterable(values)))
    ):
        raise MalformedEntry(f"malformed {what}")
    return values


def _check_first_use(indices: list, count: int, what: str) -> None:
    """Raise :class:`MalformedEntry` unless *indices* (already range
    checked) use ``0 .. count - 1`` and first use them in that order —
    the order in which :func:`encode_views` fills its tables."""
    if list(dict.fromkeys(indices)) != list(range(count)):
        raise MalformedEntry(f"{what} table is not in first-use order")


def _shape_templates(payloads: list) -> list[dict]:
    """The ``View`` fields (all but ``labels``) of each validated
    ``shapes`` entry.  Validation runs column-wise over the whole table,
    so its cost is a few C-level passes rather than a dozen calls per
    shape."""
    if any(type(p) is not dict or p.keys() != _SHAPE_KEYS for p in payloads):
        raise MalformedEntry("shape keys differ from the encoder's")
    radii, dists, edges, ports, ids, bounds = (
        [p[name] for p in payloads] for name in SHAPE_FIELDS
    )
    named = [i for i in ids if i is not None]
    if not (
        _INT.issuperset(map(type, radii))
        and _BOUND.issuperset(map(type, bounds))
        and _LIST.issuperset(map(type, chain(dists, edges, ports, named)))
        and _INT.issuperset(map(type, chain.from_iterable(chain(dists, named))))
    ):
        raise MalformedEntry("malformed view shape")
    check_pairs(list(chain.from_iterable(chain(edges, ports))), "view edges or ports")
    sizes = list(map(len, dists))
    if list(map(len, edges)) != list(map(len, ports)) or any(
        view_ids is not None and len(view_ids) != size for view_ids, size in zip(ids, sizes)
    ):
        raise MalformedEntry("shape ports or ids do not match its edges or nodes")
    if any(
        a < 0 or b < 0 or a >= size or b >= size
        for pairs, size in zip(edges, sizes)
        for a, b in pairs
    ):
        raise MalformedEntry("view node index out of range")
    return [
        {
            "radius": radius,
            "dist": tuple(dist),
            "edges": tuple(map(tuple, pairs)),
            "ports": tuple(map(tuple, port_pairs)),
            "ids": None if view_ids is None else tuple(view_ids),
            "id_bound": bound,
        }
        for radius, dist, pairs, port_pairs, view_ids, bound in zip(
            radii, dists, edges, ports, ids, bounds
        )
    ]


def decode_views(
    labels_payload: Any, shapes_payload: Any, view_shapes: Any, view_labels: Any
) -> list:
    """Strict inverse of :func:`encode_views`: each distinct label and
    shape is validated and decoded once, and every view is a fast clone
    of its shape's template (as :func:`~repro.local.views.relabel_view`
    makes them), so views share their shape tuples and label objects.
    Raises :class:`MalformedEntry` on anything the encoder does not
    produce (missing or extra keys, bad label tags, non-int or
    out-of-range entries, label counts that differ from a shape's node
    count, duplicate or out-of-order table entries).
    """
    if not _LIST.issuperset(map(type, (labels_payload, shapes_payload, view_shapes, view_labels))):
        raise MalformedEntry("tables and views must be lists")
    table = [decode_label(p) for p in labels_payload]
    if len(set(map(_label_key, table))) != len(table):
        raise MalformedEntry("duplicate label in the table")
    templates = _shape_templates(shapes_payload)
    if len({tuple(t.values()) for t in templates}) != len(templates):
        raise MalformedEntry("duplicate shape in the table")
    _check_first_use(check_indices(view_shapes, len(templates), "shape"), len(templates), "shape")
    sizes = [len(t["dist"]) for t in templates]
    if not (
        len(view_labels) == len(view_shapes)
        and _LIST.issuperset(map(type, view_labels))
        and list(map(len, view_labels)) == list(map(sizes.__getitem__, view_shapes))
    ):
        raise MalformedEntry("view label counts differ from their shapes' node counts")
    used = check_indices(list(chain.from_iterable(view_labels)), len(table), "label")
    _check_first_use(used, len(table), "label")
    label = table.__getitem__
    new = View.__new__
    views = []
    for shape, indices in zip(view_shapes, view_labels):
        view = new(View)
        state = view.__dict__
        state.update(templates[shape])
        state["labels"] = tuple(map(label, indices))
        views.append(view)
    return views


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
    g = verdict.ngraph
    labels, shapes, view_shapes, view_labels = encode_views(g.views)
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
    """Raise :class:`MalformedEntry` unless the body
    serves the certificate its decision needs (Lemma 3.2): a non-hiding
    verdict a proper coloring with at most *k* colors (the caller checked
    that it covers every view once), a ``k = 2`` hiding verdict an odd
    closed walk, a hiding verdict no coloring."""
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
    :class:`MalformedEntry` on any body the encoder
    does not produce, and on one whose certificate does not hold."""
    if type(body) is not dict or body.keys() != _BODY_KEYS:
        raise MalformedEntry("body keys differ from the encoder's")
    hiding, k = body["hiding"], body["k"]
    if (
        type(hiding) not in (bool, type(None))
        or type(k) is not int
        or type(body["radius"]) is not int
        or type(body["include_ids"]) is not bool
        or type(body["early_exit"]) is not bool
        or type(body["instances_scanned"]) is not int
    ):
        raise MalformedEntry("malformed decision fields")
    views = decode_views(
        body["labels"], body["shapes"], body["view_shapes"], body["views"]
    )
    order = len(views)
    edges = check_pairs(body["edges"], "edges")
    check_indices(list(chain.from_iterable(edges)), order, "edge view")
    edges = list(map(tuple, edges))
    if not all(map(lt, edges, edges[1:])):
        raise MalformedEntry("edges not sorted and distinct")
    odd_cycle = body["odd_cycle"]
    if odd_cycle is not None:
        check_indices(odd_cycle, order, "odd-cycle view")
    coloring = body["coloring"]
    if coloring is not None:
        check_pairs(coloring, "coloring")
        if [i for i, _ in coloring] != list(range(order)):
            raise MalformedEntry("coloring does not cover every view exactly once")
        coloring = dict(coloring)

    ngraph = NeighborhoodGraph(radius=body["radius"], include_ids=body["include_ids"])
    ngraph.views = views
    ngraph.index = {view: i for i, view in enumerate(views)}
    if len(ngraph.index) != order:
        raise MalformedEntry("duplicate views")
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
