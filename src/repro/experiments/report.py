"""Rendering experiment results as monospace reports."""

from __future__ import annotations

from .._util import format_table
from .registry import ExperimentResult


def render_result(result: ExperimentResult) -> str:
    """A human-readable report for one experiment."""
    status = "OK" if result.ok else "MISMATCH"
    lines = [
        f"== {result.exp_id}: {result.title} [{status}]",
        f"   paper claim: {result.paper_claim}",
    ]
    if result.rows:
        headers = list(result.rows[0].keys())
        table_rows = [[row.get(h, "") for h in headers] for row in result.rows]
        lines.append("")
        lines.append(_indent(format_table(headers, table_rows), "   "))
    for note in result.notes:
        lines.append(f"   note: {note}")
    return "\n".join(lines)


def render_results(results: list[ExperimentResult]) -> str:
    """A full report plus a verdict summary block."""
    sections = [render_result(r) for r in results]
    summary_rows = [
        [r.exp_id, "OK" if r.ok else "MISMATCH", r.title] for r in results
    ]
    sections.append(
        "== summary\n" + _indent(format_table(["experiment", "status", "title"], summary_rows), "   ")
    )
    return "\n\n".join(sections)


def render_perf_stats(stats) -> str:
    """The performance-layer counters as a report section.

    *stats* is a :class:`repro.perf.PerfStats` (usually the process-wide
    ``GLOBAL_STATS``); the section shows the counter totals and cache hit
    rates accumulated across the rendered experiments.
    """
    return "== performance\n" + _indent(stats.render(), "   ")


def _indent(text: str, prefix: str) -> str:
    return "\n".join(prefix + line for line in text.splitlines())
