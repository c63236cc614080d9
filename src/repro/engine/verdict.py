"""The unified verdict envelope returned by :func:`repro.engine.decide_hiding`.

A :class:`Verdict` carries the decision (*is the scheme hiding up to
``n``?*), the canonical witness, the scanned (sub-)graph of ``V(D, n)``,
and a :class:`Provenance` record saying how the answer was produced —
which backend ran, how much was scanned, which cache tier served it, and
how long it took.

Canonical witness
-----------------
``Verdict.witness`` (for ``k = 2`` hiding verdicts) is always the
*stream-order first* odd closed walk: the walk closed by the first edge
of ``V(D, n)``, in the builders' deterministic event order, that creates
an odd cycle.  Every decision runs one route — the incremental engine
of :mod:`repro.neighborhood.streaming` — which finds this walk by
construction and keeps it when a full sweep (``early_exit=False``) scans
on.  Its coloring is the engine's own too (the union-find parity
classes for ``k = 2``), so witness and coloring are byte-identical
across every plan (early exit × cache tiers).

Decision digest
---------------
:meth:`Verdict.digest` is the 32-hex-digit SHA-256 of
:meth:`Verdict.decision_fingerprint`, cached on the envelope.  There is
one way to compute it: :func:`fingerprint_bytes` over the shape- and
label-interned encoding of the disk body
(:func:`~repro.engine.stores.encode_views`).  A fresh verdict runs that
encoder first; the disk tier fills the cache from the body payload it
just wrote or parsed, so a write or reload never re-encodes a view.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..local.views import View
from ..neighborhood.hiding import verdict_summary
from ..neighborhood.ngraph import NeighborhoodGraph
from ..obs.trace import format_seconds


#: ``json.dumps(value, sort_keys=True, ensure_ascii=False)``, without
#: building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _shape_fragments(shape: dict) -> tuple[str, str]:
    """The text of one view object of *shape* before and after its
    label list: ``{"dist": …, "labels": [`` and ``], "ports": …}``."""
    head, _, tail = _dumps({**shape, "labels": []}).partition('"labels": []')
    return head + '"labels": [', "]" + tail


def _render_views(encoded: tuple, which) -> str:
    """JSON list of the views at indices *which* of an
    :func:`~repro.engine.stores.encode_views` result, assembled from one
    fragment pair per shape and one text per label."""
    labels, shapes, view_shapes, view_labels = encoded
    texts = list(map(_dumps, labels))
    fragments = {
        shape: _shape_fragments(shapes[shape]) for shape in {view_shapes[i] for i in which}
    }
    text = texts.__getitem__
    parts = []
    for i in which:
        head, tail = fragments[view_shapes[i]]
        parts.append(head + ", ".join(map(text, view_labels[i])) + tail)
    return "[" + ", ".join(parts) + "]"


def fingerprint_bytes(
    k: int,
    hiding: bool | None,
    encoded: tuple,
    witness: list[int] | None,
    edges: list | None = None,
    coloring: list | None = None,
) -> bytes:
    """Canonical bytes of a decision, from encoded content.

    *encoded* is an :func:`~repro.engine.stores.encode_views` result (the
    ``labels``/``shapes``/``view_shapes``/``views`` columns of a disk
    body), *witness* the walk as view indices into it, *edges* the
    sorted view-index pairs and *coloring* the sorted ``(view, color)``
    pairs (or ``None``).  The graph content is read only for conclusive
    non-hiding verdicts (see :meth:`Verdict.decision_fingerprint`).

    The bytes are ``json.dumps(payload, sort_keys=True,
    ensure_ascii=False)`` of ``{"k", "hiding", "witness"}`` (plus
    ``"views"``, ``"edges"``, ``"coloring"`` when ``hiding is False``),
    each view an object with its labels inline; they are assembled from
    fragments so a view is never re-serialized field by field.
    """
    walk = "null" if witness is None else _render_views(encoded, witness)
    head = f'"hiding": {_dumps(hiding)}, "k": {_dumps(k)}'
    if hiding is False:
        views = _render_views(encoded, range(len(encoded[2])))
        text = (
            f'{{"coloring": {_dumps(coloring)}, "edges": {_dumps(edges)}, {head}, '
            f'"views": {views}, "witness": {walk}}}'
        )
    else:
        text = f'{{{head}, "witness": {walk}}}'
    return text.encode("utf-8")


def fingerprint_digest(fingerprint: bytes) -> str:
    """The 32-hex-digit digest of a :func:`fingerprint_bytes` value."""
    return hashlib.sha256(fingerprint).hexdigest()[:32]


@dataclass(frozen=True)
class Provenance:
    """How a verdict was produced (per fresh compute or disk reload; a
    memory-tier hit returns the originally produced envelope as-is, so
    identity — not provenance — tells you about memo hits).

    ``trace_id`` links the verdict to the run report / span tree of the
    traced run that produced it (``None`` for untraced runs).
    """

    backend: str
    n: int
    early_exit: bool
    instances_scanned: int
    views: int
    edges: int
    disk_cache_hit: bool = False
    warm_started: bool = False
    warm_witness_hit: bool = False
    #: True when automorphism-orbit pruning ran: ``instances_scanned``
    #: then includes the suppressed orbit mates (multiplied back in), not
    #: only the instances physically decided.
    symmetry_pruned: bool = False
    wall_time_s: float = 0.0
    trace_id: str | None = None

    def summary(self) -> str:
        source = "computed"
        if self.disk_cache_hit:
            source = "disk cache"
        elif self.warm_witness_hit:
            source = "warm-start witness"
        elif self.warm_started:
            source = "warm-started sweep"
        # Instant answers (warm-witness shortcut, sub-clock reloads) used
        # to render as a misleading "0.0 ms"; format_seconds drops to µs
        # for sub-millisecond times and prints an honest "0 s" for zero.
        text = (
            f"{self.backend} backend ({source}), "
            f"{self.instances_scanned} instances scanned, "
            f"{self.views} views / {self.edges} edges, "
            f"{format_seconds(self.wall_time_s)}"
        )
        if self.trace_id is not None:
            text += f", trace {self.trace_id}"
        return text


@dataclass(frozen=True, eq=False)
class Verdict:
    """Unified hiding verdict: decision + witness + graph + provenance.

    Equality is identity (``eq=False``): the memo tier returns the same
    object for repeated identical sweeps, and content comparison is done
    explicitly via :meth:`decision_fingerprint`.
    """

    k: int
    hiding: bool | None
    #: Canonical stream-order odd closed walk (``k = 2`` hiding verdicts).
    witness: tuple[View, ...] | None
    coloring: dict[int, int] | None
    ngraph: NeighborhoodGraph
    provenance: Provenance
    #: Cached :meth:`digest`.  Not an init field, so ``replace`` never
    #: carries it silently onto changed content.
    _digest: str | None = field(default=None, init=False, repr=False)

    def summary(self) -> str:
        return verdict_summary(self.k, self.hiding, self.witness)

    def decision_fingerprint(self) -> bytes:
        """Canonical bytes of the *decision content* — identical across
        every plan that answers the same question.

        Covers the flag, the canonical witness walk, and (for conclusive
        non-hiding sweeps, which always scan the complete graph) the full
        view/edge/coloring content.  Excludes provenance
        and, on hiding verdicts, graph coverage — an early-exit sweep
        soundly stops at a prefix of ``V(D, n)``.
        """
        from .stores import encode_views  # noqa: PLC0415

        if self.hiding is False:
            g = self.ngraph
            views = g.views
            witness = None if self.witness is None else [g.index[v] for v in self.witness]
            edges = sorted(g.edges)
            coloring = None if self.coloring is None else sorted(self.coloring.items())
        else:
            # Only the walk is digested: encode just its views, in order.
            views = self.witness or ()
            witness = None if self.witness is None else list(range(len(views)))
            edges = coloring = None
        return fingerprint_bytes(
            self.k, self.hiding, encode_views(views), witness, edges, coloring
        )

    def digest(self) -> str:
        """``sha256(decision_fingerprint()).hexdigest()[:32]``, cached.

        The campaign driver's cell fingerprint and the run report's
        verdict fingerprint.  Disk-tier writes and reloads set it from
        the body payload, so those verdicts never re-encode their views.
        """
        if self._digest is None:
            self._remember_digest(fingerprint_digest(self.decision_fingerprint()))
        return self._digest

    def _remember_digest(self, digest: str) -> None:
        object.__setattr__(self, "_digest", digest)
