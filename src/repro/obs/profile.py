"""Span self-time profiling: where a traced run's wall time actually
went.

A span tree records *inclusive* durations — ``decide_hiding`` covers
everything beneath it — which answers "how long did the run take" but
not "which stage should I optimize".  This module post-processes
:meth:`Tracer.finished_spans` records into:

* **Exclusive self time per span name** (:func:`self_times`): a span's
  duration minus the duration of its direct children, aggregated by
  name with call counts.  Summed over all names, self time reconciles
  with the root spans' inclusive total (up to clock jitter — children
  are clamped so a child that outlasts its parent never produces
  negative self time).
* **Folded stacks** (:func:`folded_stacks` / :func:`write_folded`):
  ``root;child;grandchild <usec>`` lines, the interchange format every
  flamegraph renderer (Brendan Gregg's ``flamegraph.pl``, speedscope,
  inferno) consumes directly.
* **A rendered table** (:func:`render_profile`): the CLI surface behind
  ``repro report profile <run>`` and ``repro hiding --profile``.

All pure functions over plain span dicts — usable on a live tracer, an
exported JSONL file, or the ``spans`` section of a persisted run report.
"""

from __future__ import annotations

from pathlib import Path

from .trace import format_seconds, span_tree


def _walk(node: dict, path: tuple, out: list) -> None:
    duration = node["duration_s"] or 0.0
    child_total = 0.0
    stack = path + (node["name"],)
    for child in node["children"]:
        child_total += child["duration_s"] or 0.0
        _walk(child, stack, out)
    # Clock jitter can make children sum past the parent; clamp so the
    # reconciliation invariant (self times sum to inclusive root time)
    # survives instead of going negative.
    self_s = max(0.0, duration - child_total)
    out.append((stack, node["name"], self_s, duration))


def _flatten(records: list[dict]) -> list[tuple]:
    """(stack, name, self_s, duration_s) per span, via the span tree."""
    out: list[tuple] = []
    for root in span_tree(records):
        _walk(root, (), out)
    return out


def self_times(records: list[dict]) -> dict[str, dict]:
    """Aggregate exclusive self time by span name.

    Returns ``{name: {"calls": int, "total_s": float, "self_s": float}}``
    where ``total_s`` is the summed inclusive duration of every span
    with that name and ``self_s`` excludes time covered by children.
    """
    agg: dict[str, dict] = {}
    for _stack, name, self_s, duration in _flatten(records):
        entry = agg.get(name)
        if entry is None:
            entry = agg[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += self_s
    return agg


def total_self_time(records: list[dict]) -> float:
    """Sum of exclusive self time over every span — equals the summed
    inclusive duration of the root spans (children are carved out, never
    double-counted)."""
    return sum(self_s for _stack, _name, self_s, _dur in _flatten(records))


def folded_stacks(records: list[dict]) -> list[str]:
    """Flamegraph-compatible folded-stack lines, sorted for determinism.

    One line per distinct root-to-span path: ``a;b;c <usec>`` where the
    count is the path's aggregated *self* time in integer microseconds.
    Zero-self-time paths (pure containers) are omitted — they still
    appear in the graph as the prefix of their children.
    """
    by_stack: dict[str, int] = {}
    for stack, _name, self_s, _dur in _flatten(records):
        usec = int(round(self_s * 1e6))
        if usec <= 0:
            continue
        key = ";".join(stack)
        by_stack[key] = by_stack.get(key, 0) + usec
    return [f"{stack} {usec}" for stack, usec in sorted(by_stack.items())]


def write_folded(records: list[dict], path: str | Path) -> Path:
    """Write the folded-stack export to *path*; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = folded_stacks(records)
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def root_duration(records: list[dict]) -> float | None:
    """Inclusive duration of the root ``decide_hiding`` spans (summed),
    or ``None`` when there is none.

    This is the wall time a decision's self times reconcile against: the
    root ``decide_hiding`` span covers plan resolution, the cache tiers,
    the sweep and the write-back, while ``Provenance.wall_time_s`` times
    the backend sweep alone."""
    durations = [
        root["duration_s"] or 0.0
        for root in span_tree(records)
        if root["name"] == "decide_hiding"
    ]
    return sum(durations) if durations else None


def render_profile(records: list[dict], wall_time_s: float | None = None) -> str:
    """The self-time table, hottest span name first.

    With *wall_time_s* (e.g. :func:`root_duration`), a footer reconciles
    the span total against that wall time — the acceptance check that
    the profiler accounts for the run it claims to explain.
    """
    agg = self_times(records)
    if not agg:
        return "(no spans recorded)"
    rows = sorted(agg.items(), key=lambda item: -item[1]["self_s"])
    grand_self = sum(entry["self_s"] for _name, entry in rows)
    name_w = max(len("span"), max(len(name) for name, _ in rows))
    lines = [
        f"{'span':<{name_w}}  {'calls':>6}  {'self':>10}  {'total':>10}  {'self%':>6}"
    ]
    for name, entry in rows:
        share = (entry["self_s"] / grand_self * 100.0) if grand_self else 0.0
        lines.append(
            f"{name:<{name_w}}  {entry['calls']:>6}  "
            f"{format_seconds(entry['self_s']):>10}  "
            f"{format_seconds(entry['total_s']):>10}  "
            f"{share:>5.1f}%"
        )
    lines.append(f"{'':<{name_w}}  {'':>6}  {format_seconds(grand_self):>10}  (span total)")
    if wall_time_s is not None and wall_time_s > 0:
        # Uncapped on purpose: a ratio far from 100% (either side) means
        # the span tree and the external wall measurement disagree.
        covered = grand_self / wall_time_s
        lines.append(
            f"reconciliation: span total {format_seconds(grand_self)} vs "
            f"{format_seconds(wall_time_s)} measured wall time "
            f"({covered:.1%})"
        )
    return "\n".join(lines)
