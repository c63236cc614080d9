"""Run reports: one content-addressed JSON file per observed run.

A :class:`RunReport` freezes everything observable about one hiding
decision (or one benchmark/runner batch) into a single payload:

* the **span tree** recorded by the run's :class:`~repro.obs.trace.Tracer`
  (flat records; rebuild with :func:`~repro.obs.trace.span_tree`),
* the run's :class:`~repro.perf.stats.PerfStats` dump (its counters —
  the run's one counter record),
* the decision itself — ``hiding`` flag, canonical-witness length, and a
  digest of :meth:`~repro.engine.verdict.Verdict.decision_fingerprint` —
  plus the full :class:`~repro.engine.verdict.Provenance` record,
* the resolved :class:`~repro.engine.plan.ExecutionPlan` and its
  fingerprint, so two reports can be compared plan-for-plan,
* a **consistency** block cross-checking the stats counters against
  the provenance counts (they must agree exactly on a fresh sweep).

Reports are written under ``.repro_runs/`` (or ``$REPRO_RUNS_DIR``) with
the content digest as the file name (:class:`StoredReport`, which the
campaign's frontier reports share); :func:`diff_reports` compares two
reports and separates *decision drift* (different answer, witness, plan,
or scan counts — a correctness signal) from informational perf deltas
(wall time, cache-tier traffic).  :func:`validate_report` is the schema
gate CI runs against freshly emitted reports.

:func:`diff_reports` and ``repro report list`` read only keys that
schema v1 reports carry too, so those still diff and list;
:func:`validate_report` accepts the current schema alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any

from .logs import get_logger
from .trace import Tracer, format_seconds, render_span_tree, span_tree, tree_coverage, validate_span

log = get_logger("obs.report")

#: Schema identifier embedded in (and required of) every report.
REPORT_SCHEMA = "repro.run-report/v2"

#: Top-level keys every report must carry.
REQUIRED_KEYS = (
    "schema",
    "created",
    "trace_id",
    "plan",
    "plan_fingerprint",
    "decision",
    "provenance",
    "stats",
    "spans",
    "wall_time_s",
    "span_coverage",
)

#: provenance field → stats counter expected to agree exactly.
_CONSISTENCY_MAP = (
    ("instances_scanned", "instances_scanned"),
    ("views", "stream_views"),
    ("edges", "stream_edges"),
)


def runs_dir() -> Path:
    """Where reports land: ``$REPRO_RUNS_DIR`` or ``./.repro_runs``."""
    env = os.environ.get("REPRO_RUNS_DIR")
    return Path(env) if env else Path(".repro_runs")


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def plan_fingerprint(plan: Any) -> str | None:
    """Digest of a (resolved) plan's content — every field included, so
    "identical plan" means identical execution recipe."""
    if plan is None:
        return None
    payload = dataclasses.asdict(plan) if dataclasses.is_dataclass(plan) else dict(plan)
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class StoredReport:
    """An immutable-by-convention JSON payload stored under its content
    digest in the runs directory.  Subclasses name their *kind* for log
    and error messages."""

    kind = "report"

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    @property
    def digest(self) -> str:
        return _digest(self.payload)

    def write(
        self, path: str | Path | None = None, directory: str | Path | None = None
    ) -> Path:
        """Write the content-addressed canonical file (and, when *path*
        is given, an identical copy there).  Returns the canonical path."""
        blob = json.dumps(self.payload, indent=2, sort_keys=True, ensure_ascii=False)
        root = Path(directory) if directory is not None else runs_dir()
        root.mkdir(parents=True, exist_ok=True)
        canonical = root / f"{self.digest}.json"
        canonical.write_text(blob + "\n", encoding="utf-8")
        if path is not None:
            out = Path(path)
            if out.parent != Path(""):
                out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(blob + "\n", encoding="utf-8")
        log.info("%s %s written to %s", self.kind, self.digest, canonical)
        return canonical

    @classmethod
    def load(
        cls, ref: str | Path, directory: str | Path | None = None
    ) -> "StoredReport":
        """Load a report by path, or by digest under the runs dir."""
        path = Path(ref)
        if not path.is_file():
            root = Path(directory) if directory is not None else runs_dir()
            candidate = root / f"{ref}.json"
            if not candidate.is_file():
                raise FileNotFoundError(f"no {cls.kind} at {ref!r} or {candidate}")
            path = candidate
        return cls(json.loads(path.read_text(encoding="utf-8")))


class RunReport(StoredReport):
    """One observed run's report."""

    kind = "run report"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        *,
        tracer: Tracer,
        stats=None,
        verdict=None,
        plan=None,
        scheme: str | None = None,
        n: int | None = None,
        meta: dict | None = None,
    ) -> "RunReport":
        """Assemble a report from one run's observability objects.

        *verdict*/*plan* are the engine's ``Verdict``/``ExecutionPlan``
        (duck-typed so batch reports without a single decision can omit
        them); *meta* carries free-form extras (regime name, benchmark
        row, experiment ids).
        """
        spans = tracer.finished_spans()
        roots = span_tree(spans)
        wall = roots[0]["duration_s"] if roots else 0.0
        decision = provenance = None
        if verdict is not None:
            provenance = dataclasses.asdict(verdict.provenance)
            decision = {
                "hiding": verdict.hiding,
                "k": verdict.k,
                "witness_length": (
                    None if verdict.witness is None else len(verdict.witness)
                ),
                "fingerprint": verdict.digest(),
            }
        stats_dump = stats.as_dict() if stats is not None else {"counters": {}}
        payload = {
            "schema": REPORT_SCHEMA,
            "created": time.time(),
            "trace_id": tracer.trace_id,
            "scheme": scheme,
            "n": n,
            "plan": (
                dataclasses.asdict(plan) if dataclasses.is_dataclass(plan) else plan
            ),
            "plan_fingerprint": plan_fingerprint(plan),
            "decision": decision,
            "provenance": provenance,
            "stats": stats_dump,
            "spans": spans,
            "wall_time_s": wall,
            "span_coverage": round(tree_coverage(spans), 4),
            "consistency": _consistency(provenance, stats_dump["counters"]),
        }
        if meta:
            payload["meta"] = meta
        return cls(payload)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Human summary: header, consistency, stats counters, spans."""
        p = self.payload
        lines = [
            f"run report {self.digest}",
            f"  schema:        {p['schema']}",
            f"  trace id:      {p['trace_id']}",
            f"  scheme / n:    {p.get('scheme')} / {p.get('n')}",
            f"  wall time:     {format_seconds(p['wall_time_s'])}",
            f"  span coverage: {p['span_coverage']:.1%}",
        ]
        if p.get("decision"):
            d = p["decision"]
            lines.append(
                f"  decision:      hiding={d['hiding']} k={d['k']} "
                f"witness_length={d['witness_length']} fp={d['fingerprint'][:12]}"
            )
        plan = p.get("plan")
        if plan:
            pruned = (p.get("provenance") or {}).get("symmetry_pruned", False)
            lines.append(
                f"  plan:          backend={plan.get('backend')}"
                f"{' (orbit-pruned)' if pruned else ''}"
            )
        if p.get("plan_fingerprint"):
            lines.append(f"  plan fp:       {p['plan_fingerprint']}")
        consistency = p.get("consistency")
        if consistency:
            verdict = "OK" if consistency["ok"] else "MISMATCH"
            lines.append(f"  consistency:   {verdict}")
            for name, check in sorted(consistency["checks"].items()):
                lines.append(
                    f"    {name}: metric={check['metric']} "
                    f"provenance={check['provenance']}"
                )
        counters = p["stats"].get("counters", {})
        if counters:
            lines.append("  counters:")
            for name in sorted(counters):
                lines.append(f"    {name:<28s} {counters[name]}")
        lines.append("  spans:")
        for line in render_span_tree(p["spans"]).splitlines():
            lines.append(f"    {line}")
        return "\n".join(lines)


def _consistency(provenance: dict | None, counters: dict) -> dict | None:
    """Cross-check provenance counts against the run's stats counters.

    Only counters the run actually recorded participate (a disk reload
    scans nothing), so a passing block means every comparable pair
    agreed exactly.
    """
    if provenance is None:
        return None
    checks = {}
    for provenance_field, counter_name in _CONSISTENCY_MAP:
        if counter_name not in counters:
            continue
        checks[provenance_field] = {
            "metric": counters[counter_name],
            "provenance": provenance[provenance_field],
        }
    return {
        "ok": all(c["metric"] == c["provenance"] for c in checks.values()),
        "checks": checks,
    }


# ----------------------------------------------------------------------
# Validation (the CI schema gate)
# ----------------------------------------------------------------------


def validate_report(payload: dict) -> list[str]:
    """Schema + integrity check; returns a list of problems ([] = valid).

    Beyond key presence, this verifies the span records themselves and
    the tree invariants: every ``parent_id`` resolves inside the report,
    and a non-empty span set has at least one root.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["report payload must be a JSON object"]
    if payload.get("schema") != REPORT_SCHEMA:
        errors.append(
            f"schema must be {REPORT_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in REQUIRED_KEYS:
        if key not in payload:
            errors.append(f"missing required key {key!r}")
    spans = payload.get("spans", [])
    if not isinstance(spans, list):
        errors.append("spans must be a list")
        spans = []
    ids = set()
    for i, record in enumerate(spans):
        if not isinstance(record, dict):
            errors.append(f"span {i} is not an object")
            continue
        for problem in validate_span(record):
            errors.append(f"span {i}: {problem}")
        ids.add(record.get("span_id"))
    roots = 0
    for i, record in enumerate(spans):
        if not isinstance(record, dict):
            continue
        parent = record.get("parent_id")
        if parent is None:
            roots += 1
        elif parent not in ids:
            errors.append(
                f"span {i} ({record.get('name')!r}) has dangling parent {parent!r}"
            )
    if spans and roots == 0:
        errors.append("span set has no root span")
    coverage = payload.get("span_coverage")
    if coverage is not None and not (
        isinstance(coverage, (int, float)) and 0.0 <= coverage <= 1.0
    ):
        errors.append(f"span_coverage must be in [0, 1], got {coverage!r}")
    stats = payload.get("stats")
    if stats is not None:
        if not isinstance(stats, dict):
            errors.append("stats must be an object")
        elif "counters" not in stats:
            errors.append("stats missing 'counters'")
    decision = payload.get("decision")
    if decision is not None:
        for key in ("hiding", "k", "fingerprint"):
            if key not in decision:
                errors.append(f"decision missing {key!r}")
    consistency = payload.get("consistency")
    if consistency is not None and not isinstance(consistency.get("ok"), bool):
        errors.append("consistency.ok must be a boolean")
    return errors


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


def diff_reports(a: "RunReport | dict", b: "RunReport | dict") -> dict:
    """Compare two reports; separates decision drift from perf deltas.

    *Decision drift* — the two runs answered differently: scheme/n,
    hiding flag, decision fingerprint, witness length, or the provenance
    scan counts disagree.  Everything else (the plan fingerprint, wall
    time, cache-tier traffic, span counts) is reported as information
    only: a plan field added or retired between versions changes the
    plan fingerprint without changing the answer, and when the answer
    does change the decision fields say so.
    """
    pa = a.payload if isinstance(a, RunReport) else a
    pb = b.payload if isinstance(b, RunReport) else b
    drift: list[str] = []
    info: list[str] = []

    def check(label: str, va, vb) -> None:
        if va != vb:
            drift.append(f"{label}: {va!r} != {vb!r}")

    check("scheme", pa.get("scheme"), pb.get("scheme"))
    check("n", pa.get("n"), pb.get("n"))
    plan_a, plan_b = pa.get("plan_fingerprint"), pb.get("plan_fingerprint")
    if plan_a != plan_b:
        info.append(f"plan fingerprint: {plan_a} vs {plan_b}")
    da, db = pa.get("decision"), pb.get("decision")
    if (da is None) != (db is None):
        drift.append("decision: present in one report only")
    elif da is not None:
        check("decision.hiding", da.get("hiding"), db.get("hiding"))
        check("decision.fingerprint", da.get("fingerprint"), db.get("fingerprint"))
        check(
            "decision.witness_length",
            da.get("witness_length"),
            db.get("witness_length"),
        )
    va, vb = pa.get("provenance"), pb.get("provenance")
    if va is not None and vb is not None:
        for field in ("instances_scanned", "views", "edges"):
            check(f"provenance.{field}", va.get(field), vb.get(field))
        if va.get("backend") != vb.get("backend"):
            info.append(f"backend: {va.get('backend')} vs {vb.get('backend')}")
    wall_a, wall_b = pa.get("wall_time_s", 0.0), pb.get("wall_time_s", 0.0)
    info.append(
        f"wall time: {format_seconds(wall_a)} vs {format_seconds(wall_b)}"
    )
    ca = pa.get("stats", {}).get("counters", {})
    cb = pb.get("stats", {}).get("counters", {})
    for name in sorted(set(ca) | set(cb)):
        if ca.get(name, 0) != cb.get(name, 0):
            info.append(f"counter {name}: {ca.get(name, 0)} vs {cb.get(name, 0)}")
    return {"decision_drift": bool(drift), "drift": drift, "info": info}


def render_diff(diff: dict) -> str:
    lines = []
    if diff["decision_drift"]:
        lines.append("DECISION DRIFT:")
        lines.extend(f"  {item}" for item in diff["drift"])
    else:
        lines.append("no decision drift")
    if diff["info"]:
        lines.append("perf / traffic deltas (informational):")
        lines.extend(f"  {item}" for item in diff["info"])
    return "\n".join(lines)
