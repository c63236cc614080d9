"""Persistent on-disk cache for streaming hiding sweeps.

The full Lemma 3.1 sweep is deterministic per ``(scheme, decoder,
parameters)``, so its verdict can outlive the process.  This module
stores one JSON-lines file per sweep under ``.repro_cache/hiding/``:

* the file name is content-addressed — a SHA-256 digest of the canonical
  identity key (LCP type/name, decoder name, ``k``, radius, anonymity,
  ``n``, and every enumeration bound) plus the cache format version;
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

Each write goes to a temp file of the writer's own and is renamed into
place, so concurrent writers of one key never tear each other's entry.
Version bumps (:data:`CACHE_VERSION`) invalidate every old entry: a
reader that finds a different version treats the entry as a miss and
overwrites it on the next store.  A body whose checksum does not match,
or that a caller's strict decoder rejects, is a miss too (logged as a
warning naming the file).  Entries whose certificate labels cannot be
represented in JSON are skipped rather than corrupted (counted as
``persist_skips``).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from itertools import chain
from pathlib import Path
from typing import Any

from ..obs.logs import get_logger
from .config import CONFIG
from .stats import GLOBAL_STATS, PerfStats

log = get_logger("perf.persist")

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


class MalformedEntry(ValueError):
    """A persisted body that the strict codec rejects; the disk tier
    reads it as a miss."""


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
    from ..local.views import View  # noqa: PLC0415

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
# The cache proper
# ----------------------------------------------------------------------


def digest_for(key: dict) -> str:
    """Content address: SHA-256 over the canonical key + format version."""
    canonical = json.dumps(
        {"version": CACHE_VERSION, "key": key}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class PersistentVerdictCache:
    """JSON-lines verdict store under ``<dir>/hiding/<digest>.jsonl``."""

    def __init__(self, directory: Path | str | None = None) -> None:
        self.root = Path(directory) if directory is not None else cache_dir()

    @property
    def _dir(self) -> Path:
        return self.root / _SUBDIR

    def _path(self, key: dict) -> Path:
        return self._dir / f"{digest_for(key)}.jsonl"

    def load(self, key: dict, stats: PerfStats | None = None, decode=None):
        """The body record for *key* — passed through *decode* when given
        — or ``None`` on miss, stale version, checksum mismatch, or a
        body *decode* rejects with ``ValueError``/``TypeError``."""
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
            body = json.loads(line)
            if decode is not None:
                body = decode(body)
        except (ValueError, TypeError) as exc:
            stats.incr("disk_misses")
            log.warning("rejecting cache entry %s: %s", path.name, exc)
            return None
        stats.incr("disk_hits")
        log.debug("disk hit for %s", path.name)
        return body

    def store(self, key: dict, body: dict, stats: PerfStats | None = None) -> bool:
        """Write header+body atomically; returns False when the payload
        cannot be serialized (unsupported label types)."""
        stats = stats or GLOBAL_STATS
        try:
            # Bodies are trees: skip the encoder's per-container cycle check.
            line = json.dumps(
                body, ensure_ascii=False, separators=(",", ":"), check_circular=False
            ).encode()
            header = {
                "version": CACHE_VERSION,
                "key": key,
                "views": len(body.get("views", ())),
                "edges": len(body.get("edges", ())),
                "body_sha256": hashlib.sha256(line).hexdigest(),
            }
            blob = json.dumps(header, ensure_ascii=False).encode() + b"\n" + line + b"\n"
        except (TypeError, ValueError, RecursionError):
            stats.incr("persist_skips")
            log.warning(
                "skipping persist for %s: payload not JSON-serializable",
                key.get("lcp_name", "?"),
            )
            return False
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
        _unlink_all(self._dir, "*.tmp")
        return _unlink_all(self._dir, "*.jsonl")

    def clear_shard_checkpoints(self) -> int:
        """Delete the ``shards/*.pkl`` checkpoints that the retired
        process pool left under the cache root, without opening them, and
        the directory once it is empty; returns how many files were
        removed.  Nothing reads these files any more."""
        directory = self.root / "shards"
        removed = _unlink_all(directory, "*.pkl")
        try:
            directory.rmdir()
        except OSError:
            pass  # missing, or something else lives there
        return removed


def _unlink_all(directory: Path, pattern: str) -> int:
    """Delete the files of *directory* matching *pattern*; returns how
    many were removed (a missing directory removes none)."""
    removed = 0
    if not directory.is_dir():
        return removed
    for path in directory.glob(pattern):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def default_verdict_cache() -> PersistentVerdictCache:
    """A cache bound to the *currently configured* directory.

    Constructed per call (cheap: one Path) so config/env changes made by
    tests and the CLI take effect immediately.
    """
    return PersistentVerdictCache()
