"""Observability for the hiding-decision engine: tracing, logging,
progress events, and run reports — stdlib-only, zero-cost when off.

The counters of a run have one record, the run's
:class:`~repro.perf.stats.PerfStats`, and its times another, the spans.  A run report embeds its dump and
checks the verdict's provenance counts against it; a span's
``counters`` attribute is its own share of that record, and progress
events carry the instance count the neighborhood-graph builder feeds it.

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: the
  hierarchical span tree of a run (``decide_hiding`` → plan resolution →
  backend → sweep → cache spans), thread-safe, with a JSONL exporter;
  bound to the run's stats, each span records its exclusive counter
  increments.  :data:`NULL_TRACER` is the free disabled default.
* :mod:`repro.obs.report` — :class:`RunReport`: span tree + stats
  counters + provenance + plan fingerprint, content-addressed under
  ``.repro_runs/``, with :func:`diff_reports` (decision drift vs perf
  deltas) and :func:`validate_report` (the CI schema gate).
* :mod:`repro.obs.logs` — the ``repro.*`` logger hierarchy
  (:func:`get_logger`, :func:`setup_logging`).
* :mod:`repro.obs.progress` — :class:`ProgressBus`: the live-telemetry
  pub/sub bus (``cell_started`` / ``instances_scanned`` deltas /
  ``cell_finished`` / ETA), with the :class:`TTYRenderer` and
  :class:`JSONLSink` stock subscribers.  Every emitter announces on the
  one process-wide bus, :data:`GLOBAL_PROGRESS`.
* :mod:`repro.obs.profile` — span self-time profiling over
  :meth:`Tracer.finished_spans`: exclusive time per span name
  (:func:`self_times`), flamegraph-compatible folded stacks
  (:func:`folded_stacks` / :func:`write_folded`), and the
  :func:`render_profile` table behind ``repro report profile``.
"""

from .logs import ROOT_LOGGER_NAME, get_logger, parse_level, setup_logging
from .profile import (
    folded_stacks,
    render_profile,
    root_duration,
    self_times,
    total_self_time,
    write_folded,
)
from .progress import (
    EVENT_KINDS,
    GLOBAL_PROGRESS,
    NO_PROGRESS_ENV,
    JSONLSink,
    ProgressBus,
    TTYRenderer,
    progress_enabled,
)
from .report import (
    REPORT_SCHEMA,
    RunReport,
    diff_reports,
    plan_fingerprint,
    render_diff,
    runs_dir,
    validate_report,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    SPAN_FIELDS,
    Span,
    Tracer,
    format_seconds,
    render_span_tree,
    span_tree,
    tree_coverage,
    validate_span,
)

__all__ = [
    "EVENT_KINDS",
    "GLOBAL_PROGRESS",
    "NO_PROGRESS_ENV",
    "NULL_SPAN",
    "NULL_TRACER",
    "REPORT_SCHEMA",
    "ROOT_LOGGER_NAME",
    "SPAN_FIELDS",
    "JSONLSink",
    "ProgressBus",
    "RunReport",
    "Span",
    "TTYRenderer",
    "Tracer",
    "diff_reports",
    "folded_stacks",
    "format_seconds",
    "get_logger",
    "parse_level",
    "plan_fingerprint",
    "progress_enabled",
    "render_diff",
    "render_profile",
    "render_span_tree",
    "root_duration",
    "runs_dir",
    "self_times",
    "setup_logging",
    "span_tree",
    "total_self_time",
    "tree_coverage",
    "validate_report",
    "validate_span",
]
