"""Hierarchical tracing for the hiding-decision pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one span per
pipeline stage (``decide_hiding`` → plan resolution → backend → sweep →
cache tiers) — with wall-clock timing and free-form attributes (scheme,
``n``, which tier served the decision).  Design constraints, in order:

1. **Zero cost when off.**  Every instrumented call site holds a tracer
   reference; the default is the process-wide :data:`NULL_TRACER`, whose
   ``span()`` is a no-op context manager yielding a shared dummy span.
   Hot loops are never instrumented per event — spans are per stage
   or sweep, so a traced run carries a few dozen spans, not
   thousands.
2. **Thread-safe.**  Span stacks are thread-local (each thread nests
   independently under the tracer's root); the finished-span list is
   lock-guarded.
3. **Plain-dict export.**  A finished span serializes to a flat dict
   (see :data:`SPAN_FIELDS`); :meth:`Tracer.export_jsonl` writes one span
   per line.  :func:`span_tree` rebuilds the hierarchy from the flat
   list, and :func:`tree_coverage` measures how much of a root span's
   wall time its children account for.
4. **Counts live in one place.**  A tracer bound to the run's
   :class:`~repro.perf.stats.PerfStats` stores under each span's
   ``counters`` attribute the counter increments made while that span
   was innermost — its own, not its child spans'.  The ``counters`` of
   a run's spans therefore sum exactly to its stats record, the way
   self times sum to the root's wall time; no span copies a count by
   hand.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

#: Every exported span record carries exactly these keys.
SPAN_FIELDS = (
    "name",
    "span_id",
    "parent_id",
    "trace_id",
    "start_time",
    "duration_s",
    "status",
    "attributes",
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed stage of a run.  Mutable while open; finished spans are
    exported as dicts and never touched again."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start_time",
        "duration_s",
        "status",
        "attributes",
        "_t0",
        "_counters_at_open",
        "_nested",
    )

    def __init__(self, name: str, trace_id: str, parent_id: str | None) -> None:
        self.name = name
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_time = time.time()
        self.duration_s: float | None = None
        self.status = "ok"
        self.attributes: dict = {}
        self._t0 = time.perf_counter()
        #: The bound stats' counters when the span opened (``None`` when
        #: the tracer records no counters), and the increments its
        #: finished child spans made in total.
        self._counters_at_open: dict | None = None
        self._nested: dict[str, int] = {}

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes) -> None:
        self.attributes.update(attributes)

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_time": self.start_time,
            "duration_s": self.duration_s if self.duration_s is not None else 0.0,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Shared do-nothing span handed out by the null tracer."""

    __slots__ = ()
    span_id = None
    attributes: dict = {}

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_attributes(self, **attributes) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a span tree for one run (``active`` is True).

    *stats* is the run's :class:`~repro.perf.stats.PerfStats`; while it
    is bound (``RunContext`` binds its own), every span records its
    exclusive counter increments under the ``counters`` attribute.
    """

    active = True

    def __init__(self, trace_id: str | None = None, stats=None) -> None:
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self.stats = stats
        self._lock = threading.Lock()
        self._finished: list[dict] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a child span of the current one (root if none is open)."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(name, self.trace_id, parent)
        if attributes:
            span.attributes.update(attributes)
        stats = self.stats
        if stats is not None:
            span._counters_at_open = dict(stats.counters)
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            stack.pop()
            # Inside the span's own duration, so its parent's self time
            # does not grow with the bookkeeping.
            if span._counters_at_open is not None:
                self._record_counters(span, stack[-1] if stack else None)
            span.finish()
            with self._lock:
                self._finished.append(span.to_dict())

    def _record_counters(self, span: Span, parent: Span | None) -> None:
        """Store *span*'s own increments and hand its inclusive ones to
        *parent*, which subtracts them from its own in turn.  A counter
        first created by an increment of zero is listed (as 0) by the
        span that created it, so the spans' counters sum to the stats
        record key for key."""
        before = span._counters_at_open
        inclusive = {
            name: value - before.get(name, 0)
            for name, value in self.stats.counters.items()
            if name not in before or value != before[name]
        }
        nested = span._nested
        span.attributes["counters"] = {
            name: own
            for name, value in inclusive.items()
            if (own := value - nested.get(name, 0)) or name not in nested
        }
        if parent is not None:
            for name, value in inclusive.items():
                parent._nested[name] = parent._nested.get(name, 0) + value

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def finished_spans(self) -> list[dict]:
        """Finished span records, in completion order."""
        with self._lock:
            return [dict(record) for record in self._finished]

    def export_jsonl(self, path: str | Path) -> Path:
        """Write one span record per line; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(record, sort_keys=True, ensure_ascii=False)
            for record in self.finished_spans()
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path


class _NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op."""

    active = False

    def __init__(self) -> None:  # no lock, no storage, no stats
        self.trace_id = None
        self.stats = None

    @contextmanager
    def span(self, name: str, **attributes):
        yield NULL_SPAN

    def current_span(self) -> None:
        return None

    def finished_spans(self) -> list[dict]:
        return []


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# Tree reconstruction and analysis (pure functions over span records)
# ----------------------------------------------------------------------


def span_tree(records: list[dict]) -> list[dict]:
    """Nest flat span records into a tree: each node gains a ``children``
    list; returns the roots (spans whose parent is absent)."""
    by_id = {record["span_id"]: {**record, "children": []} for record in records}
    roots = []
    for node in by_id.values():
        parent = by_id.get(node["parent_id"])
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda child: child["start_time"])
    roots.sort(key=lambda node: node["start_time"])
    return roots


def tree_coverage(records: list[dict]) -> float:
    """Fraction of the first root span's wall time accounted for by its
    direct children (1.0 when there is nothing to cover)."""
    roots = span_tree(records)
    if not roots:
        return 1.0
    root = roots[0]
    total = root["duration_s"] or 0.0
    if total <= 0.0:
        return 1.0
    covered = sum(child["duration_s"] or 0.0 for child in root["children"])
    return min(1.0, covered / total)


def render_span_tree(records: list[dict], indent: str = "  ") -> str:
    """Human-readable span tree (the CLI's ``--trace`` output)."""
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        duration = node["duration_s"] or 0.0
        attributes = dict(node["attributes"])
        counters = attributes.pop("counters", {})
        pairs = [*sorted(attributes.items()), *sorted(counters.items())]
        attrs = ", ".join(f"{k}={v}" for k, v in pairs)
        suffix = f"  [{attrs}]" if attrs else ""
        marker = "" if node["status"] == "ok" else f"  !{node['status']}"
        lines.append(
            f"{indent * depth}{node['name']}  {format_seconds(duration)}{suffix}{marker}"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in span_tree(records):
        walk(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def format_seconds(seconds: float) -> str:
    """Honest wall-time formatting across six orders of magnitude: never
    prints ``0.0 ms`` for a sub-millisecond or unrecorded duration."""
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    if seconds > 0.0:
        return f"{seconds * 1e6:.0f} µs"
    return "0 s"


def validate_span(record: dict) -> list[str]:
    """Schema check for one span record; returns human-readable errors."""
    errors = []
    for field in SPAN_FIELDS:
        if field not in record:
            errors.append(f"span missing field {field!r}")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        errors.append("span name must be a non-empty string")
    duration = record.get("duration_s")
    if not isinstance(duration, (int, float)) or duration < 0:
        errors.append(f"span duration_s must be a non-negative number, got {duration!r}")
    if not isinstance(record.get("attributes"), dict):
        errors.append("span attributes must be a dict")
    return errors
