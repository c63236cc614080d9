"""Observability for the hiding-decision engine: tracing, metrics,
logging, and run reports — stdlib-only, zero-cost when off.

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: the
  hierarchical span tree of a run (``decide_hiding`` → plan resolution →
  backend → sweep → shard/cache spans), thread-safe, with process-pool
  worker spans merged via :meth:`Tracer.adopt` and a JSONL exporter.
  :data:`NULL_TRACER` is the free disabled default.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`: counters, gauges,
  and fixed-bucket histograms.  Backs :class:`~repro.perf.stats.PerfStats`
  via :meth:`PerfStats.bind_metrics`, so the existing counter vocabulary
  feeds the registry without touching call sites.
* :mod:`repro.obs.report` — :class:`RunReport`: span tree + metrics +
  provenance + plan fingerprint, content-addressed under
  ``.repro_runs/``, with :func:`diff_reports` (decision drift vs perf
  deltas) and :func:`validate_report` (the CI schema gate).
* :mod:`repro.obs.logs` — the ``repro.*`` logger hierarchy
  (:func:`get_logger`, :func:`setup_logging`).
* :mod:`repro.obs.progress` — :class:`ProgressBus`: the live-telemetry
  pub/sub bus (``cell_started`` / ``instances_scanned`` deltas /
  ``cell_finished`` / ETA), with the :class:`TTYRenderer` and
  :class:`JSONLSink` stock subscribers.  :data:`NULL_PROGRESS` is the
  free disabled default; :data:`GLOBAL_PROGRESS` the process-wide bus.
* :mod:`repro.obs.profile` — span self-time profiling over
  :meth:`Tracer.finished_spans`: exclusive time per span name
  (:func:`self_times`), flamegraph-compatible folded stacks
  (:func:`folded_stacks` / :func:`write_folded`), and the
  :func:`render_profile` table behind ``repro report profile``.
* :mod:`repro.obs.export` — metrics exposition: a registry as
  Prometheus text (:func:`to_prometheus`, with :func:`parse_prometheus`
  as the round-trip gate) or flat JSON (:func:`to_flat_json`).
* :mod:`repro.obs.sentinel` — the benchmark-regression sentinel:
  append-only timing history under ``.repro_runs/`` and the
  trailing-median check behind ``repro bench check``.
"""

from .export import metric_name, parse_prometheus, to_flat_json, to_prometheus
from .logs import ROOT_LOGGER_NAME, get_logger, parse_level, setup_logging
from .metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    GLOBAL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import (
    folded_stacks,
    render_profile,
    self_times,
    total_self_time,
    write_folded,
)
from .progress import (
    EVENT_KINDS,
    GLOBAL_PROGRESS,
    NO_PROGRESS_ENV,
    NULL_PROGRESS,
    JSONLSink,
    ProgressBus,
    TTYRenderer,
    counting_instances,
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
from .sentinel import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    SENTINEL_SCHEMA,
    append_history,
    check_regressions,
    extract_rows,
    history_path,
    load_history,
    render_verdicts,
    verdict_block,
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
    worker_span,
)

__all__ = [
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_THRESHOLD",
    "DEFAULT_TIME_BUCKETS",
    "EVENT_KINDS",
    "GLOBAL_METRICS",
    "GLOBAL_PROGRESS",
    "NO_PROGRESS_ENV",
    "NULL_PROGRESS",
    "NULL_SPAN",
    "NULL_TRACER",
    "REPORT_SCHEMA",
    "ROOT_LOGGER_NAME",
    "SENTINEL_SCHEMA",
    "SPAN_FIELDS",
    "Counter",
    "Gauge",
    "Histogram",
    "JSONLSink",
    "MetricsRegistry",
    "ProgressBus",
    "RunReport",
    "Span",
    "TTYRenderer",
    "Tracer",
    "append_history",
    "check_regressions",
    "counting_instances",
    "diff_reports",
    "extract_rows",
    "folded_stacks",
    "format_seconds",
    "get_logger",
    "history_path",
    "load_history",
    "metric_name",
    "parse_level",
    "parse_prometheus",
    "plan_fingerprint",
    "progress_enabled",
    "render_diff",
    "render_profile",
    "render_span_tree",
    "render_verdicts",
    "runs_dir",
    "self_times",
    "setup_logging",
    "span_tree",
    "to_flat_json",
    "to_prometheus",
    "total_self_time",
    "tree_coverage",
    "validate_report",
    "validate_span",
    "verdict_block",
    "worker_span",
]
