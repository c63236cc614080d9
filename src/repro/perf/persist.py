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
  walk / coloring, and scan counters.  Views are label-interned: a
  per-entry ``labels`` table holds each distinct certificate label's
  :func:`encode_label` once, and each view's ``labels`` are indices into
  it (:func:`encode_views` / :func:`decode_views`).

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
CACHE_VERSION = 2

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
    share a label-table slot."""
    kind = type(label)
    if kind is tuple or kind is list:
        return (kind, tuple(map(_label_key, label)))
    if kind is frozenset:
        return (kind, frozenset(map(_label_key, label)))
    return (kind, label)


def encode_view(view) -> dict:
    """One view with its labels encoded inline — the form
    :meth:`~repro.engine.verdict.Verdict.decision_fingerprint` digests."""
    payload = _view_fields(view)
    payload["labels"] = [encode_label(label) for label in view.labels]
    return payload


def _view_fields(view) -> dict:
    return {
        "radius": view.radius,
        "dist": list(view.dist),
        "edges": [list(e) for e in view.edges],
        "ports": [list(p) for p in view.ports],
        "ids": None if view.ids is None else list(view.ids),
        "id_bound": view.id_bound,
    }


def encode_views(views) -> tuple[list, list[dict]]:
    """Label-interned encoding: ``(table, payloads)``.

    *table* holds the :func:`encode_label` of each distinct label once,
    in first-use order; each payload is :func:`encode_view` with
    ``labels`` replaced by indices into *table*.
    """
    table: list = []
    slots: dict[tuple, int] = {}
    # Views share label objects, so most lookups hit by identity and
    # skip building the interning key (the views keep every id alive).
    by_id: dict[int, int] = {}
    payloads = []
    for view in views:
        indices = []
        for label in view.labels:
            slot = by_id.get(id(label))
            if slot is None:
                key = _label_key(label)
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(table)
                    table.append(encode_label(label))
                by_id[id(label)] = slot
            indices.append(slot)
        payload = _view_fields(view)
        payload["labels"] = indices
        payloads.append(payload)
    return table, payloads


def expand_view(payload: dict, table: list) -> dict:
    """The :func:`encode_view` form of an interned view payload (the
    labels are the table's own encoded objects, not copies)."""
    expanded = dict(payload)
    expanded["labels"] = [table[i] for i in payload["labels"]]
    return expanded


_VIEW_KEYS = frozenset(("radius", "dist", "edges", "ports", "ids", "id_bound", "labels"))
# Type sets for the strict checks below; ``issuperset(map(type, xs))``
# runs in C, and ``type(x) is int`` keeps ``true`` out of index lists.
_INT = frozenset((int,))
_OPTIONAL_INT = frozenset((int, type(None)))
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


def decode_views(table_payload: Any, payloads: Any) -> list:
    """Strict inverse of :func:`encode_views`: each distinct label is
    decoded once and shared by every view that uses it.  Raises
    :class:`MalformedEntry` on anything the encoder does not produce
    (missing or extra keys, bad label tags, out-of-range indices).

    Validation runs column-wise over all views at once, so its cost is
    a few C-level passes rather than a dozen calls per view.
    """
    from ..local.views import View  # noqa: PLC0415

    if type(table_payload) is not list or type(payloads) is not list:
        raise MalformedEntry("label table and views must be lists")
    table = [decode_label(p) for p in table_payload]
    if any(type(p) is not dict or p.keys() != _VIEW_KEYS for p in payloads):
        raise MalformedEntry("view keys differ from the encoder's")
    radii, dists, edges, ports, ids, bounds, labels = (
        [p[name] for p in payloads]
        for name in ("radius", "dist", "edges", "ports", "ids", "id_bound", "labels")
    )
    # Every container the encoder writes is a list; that (with the
    # index checks) is what makes re-encoding give the payload back.
    containers = chain(
        dists,
        edges,
        ports,
        labels,
        (i for i in ids if i is not None),
        chain.from_iterable(edges),
        chain.from_iterable(ports),
    )
    if not (
        _INT.issuperset(map(type, radii))
        and _OPTIONAL_INT.issuperset(map(type, bounds))
        and _LIST.issuperset(map(type, containers))
    ):
        raise MalformedEntry("malformed view")
    check_indices(list(chain.from_iterable(labels)), len(table), "label")
    label = table.__getitem__
    # Positional View(radius, dist, edges, ports, ids, id_bound, labels).
    return [
        View(
            radius,
            tuple(dist),
            tuple(map(tuple, view_edges)),
            tuple(map(tuple, view_ports)),
            None if view_ids is None else tuple(view_ids),
            bound,
            tuple(map(label, indices)),
        )
        for radius, dist, view_edges, view_ports, view_ids, bound, indices in zip(
            radii, dists, edges, ports, ids, bounds, labels
        )
    ]


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
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
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
        """Delete every entry; returns how many files were removed."""
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
