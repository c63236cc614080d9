"""The observability layer: tracer, metrics, run reports, logging, and
their wiring through the hiding-decision engine.

The span-tree integrity tests under ``workers > 1`` pin the process-pool
merge contract: every worker span ends up with a parent in the merged
tree, and the traced parallel decision is byte-identical to the serial
one.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.engine.verdict import Provenance
from repro.obs import (
    NULL_TRACER,
    SPAN_FIELDS,
    MetricsRegistry,
    RunReport,
    Tracer,
    diff_reports,
    format_seconds,
    render_diff,
    render_span_tree,
    setup_logging,
    span_tree,
    tree_coverage,
    validate_report,
    worker_span,
)
from repro.perf import PerfStats


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


@pytest.fixture()
def runs_dir(tmp_path, monkeypatch):
    target = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(target))
    return target


def _plan(**overrides) -> ExecutionPlan:
    base = dict(
        backend="streaming", warm_start=False, disk_cache=False, memory_cache=False
    )
    base.update(overrides)
    return ExecutionPlan(**base)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_spans_nest_and_record_attributes():
    tracer = Tracer()
    with tracer.span("root", kind="test") as root:
        with tracer.span("child") as child:
            child.set_attribute("x", 1)
        root.set_attributes(y=2)
    records = tracer.finished_spans()
    assert [r["name"] for r in records] == ["child", "root"]
    by_name = {r["name"]: r for r in records}
    assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
    assert by_name["root"]["parent_id"] is None
    assert by_name["root"]["attributes"] == {"kind": "test", "y": 2}
    assert by_name["child"]["attributes"] == {"x": 1}
    assert all(r["trace_id"] == tracer.trace_id for r in records)
    assert all(set(SPAN_FIELDS) <= set(r) for r in records)


def test_span_error_status_propagates():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    (record,) = tracer.finished_spans()
    assert record["status"] == "error"
    assert record["duration_s"] >= 0.0


def test_span_tree_and_coverage():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    roots = span_tree(tracer.finished_spans())
    assert len(roots) == 1
    assert [c["name"] for c in roots[0]["children"]] == ["a", "b"]
    assert 0.0 <= tree_coverage(tracer.finished_spans()) <= 1.0
    rendered = render_span_tree(tracer.finished_spans())
    assert "root" in rendered and "  a" in rendered


def test_jsonl_export_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.span("root", n=3):
        pass
    path = tracer.export_jsonl(tmp_path / "spans.jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "root"
    assert record["attributes"] == {"n": 3}


def test_null_tracer_records_nothing():
    assert NULL_TRACER.active is False
    with NULL_TRACER.span("anything", x=1) as span:
        span.set_attribute("y", 2)
        span.set_attributes(z=3)
    NULL_TRACER.adopt([{"span_id": "x", "parent_id": None}])
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.trace_id is None


def test_adopt_reparents_worker_records():
    tracer = Tracer()
    records: list = []
    with worker_span("worker:shard", records, worker_pid=123, shard_index=0):
        pass
    with tracer.span("build") as build:
        tracer.adopt(records, parent=build)
    spans = tracer.finished_spans()
    by_name = {r["name"]: r for r in spans}
    worker = by_name["worker:shard"]
    assert worker["parent_id"] == by_name["build"]["span_id"]
    assert worker["trace_id"] == tracer.trace_id
    assert worker["attributes"]["worker_pid"] == 123


def test_worker_span_none_records_is_a_noop():
    with worker_span("w", None, x=1) as span:
        span.set_attribute("y", 2)  # NULL_SPAN: silently dropped


# ----------------------------------------------------------------------
# Metrics + the PerfStats bridge
# ----------------------------------------------------------------------


def test_metrics_registry_instruments():
    registry = MetricsRegistry()
    registry.incr("hits")
    registry.incr("hits", 4)
    registry.set_gauge("views", 17)
    registry.observe("latency_seconds", 0.004)
    registry.observe("latency_seconds", 0.004)
    dump = registry.as_dict()
    assert dump["counters"] == {"hits": 5}
    assert dump["gauges"] == {"views": 17}
    hist = dump["histograms"]["latency_seconds"]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(0.008)
    assert sum(hist["counts"]) == 2


def test_metrics_merge_accumulates():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.incr("x", 2)
    b.incr("x", 3)
    b.set_gauge("g", 9)
    b.observe("h", 0.01)
    a.merge(b)
    dump = a.as_dict()
    assert dump["counters"]["x"] == 5
    assert dump["gauges"]["g"] == 9
    assert dump["histograms"]["h"]["count"] == 1


def test_metrics_merge_same_buckets_adds_positionally():
    a, b = MetricsRegistry(), MetricsRegistry()
    buckets = (0.01, 0.1, 1.0)
    for value in (0.005, 0.05):
        a.observe("h", value, buckets=buckets)
    for value in (0.05, 5.0):
        b.observe("h", value, buckets=buckets)
    a.merge(b)
    hist = a.as_dict()["histograms"]["h"]
    # Per-bucket counts add positionally: [<=0.01, <=0.1, <=1.0, overflow]
    assert hist["counts"] == [1, 2, 0, 1]
    assert hist["count"] == 4 == sum(hist["counts"])
    assert hist["sum"] == pytest.approx(0.005 + 0.05 + 0.05 + 5.0)


def test_metrics_merge_mismatched_buckets_replays_mean():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.observe("h", 0.05, buckets=(0.01, 0.1, 1.0))
    b.observe("h", 0.2, buckets=(0.5,))  # different boundaries
    b.observe("h", 0.4)
    a.merge(b)
    hist = a.as_dict()["histograms"]["h"]
    # Foreign observations are replayed at their mean (0.3), NOT added
    # positionally — boundaries differ, so position has no meaning.
    assert hist["buckets"] == [0.01, 0.1, 1.0]  # mine win
    assert hist["count"] == 3
    assert hist["counts"] == [0, 1, 2, 0]  # 0.05 then 0.3 twice
    # sum reflects the replayed mean, preserving the total exactly.
    assert hist["sum"] == pytest.approx(0.05 + 0.2 + 0.4)
    assert sum(hist["counts"]) == hist["count"]


def test_metrics_merge_empty_mismatched_histogram_is_noop():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.observe("h", 0.05, buckets=(0.01, 0.1))
    b.histogram("h", buckets=(9.9,))  # created but never observed
    a.merge(b)
    hist = a.as_dict()["histograms"]["h"]
    assert hist["count"] == 1
    assert hist["buckets"] == [0.01, 0.1]


def test_perfstats_bind_metrics_mirrors_counters_and_timers():
    registry = MetricsRegistry()
    stats = PerfStats().bind_metrics(registry)
    stats.incr("instances_scanned", 7)
    with stats.time_stage("sweep"):
        pass
    assert registry.as_dict()["counters"]["instances_scanned"] == 7
    assert registry.as_dict()["histograms"]["sweep_seconds"]["count"] == 1
    # merge() goes through incr/add_time, so worker-local dicts mirror too
    stats.merge({"counters": {"instances_scanned": 3}, "timers": {"sweep": 0.1}})
    assert stats.get("instances_scanned") == 10
    assert registry.as_dict()["counters"]["instances_scanned"] == 10
    assert registry.as_dict()["histograms"]["sweep_seconds"]["count"] == 2


# ----------------------------------------------------------------------
# Honest wall-time formatting
# ----------------------------------------------------------------------


def test_format_seconds_across_magnitudes():
    assert format_seconds(2.5) == "2.50 s"
    assert format_seconds(0.0123) == "12.3 ms"
    assert format_seconds(0.0005) == "500 µs"
    assert format_seconds(0.0) == "0 s"


def test_provenance_summary_never_says_zero_point_zero_ms():
    base = dict(
        backend="streaming",
        n=4,
        workers=0,
        early_exit=True,
        instances_scanned=0,
        views=0,
        edges=0,
    )
    instant = Provenance(**base, warm_witness_hit=True, wall_time_s=0.0)
    assert "0.0 ms" not in instant.summary()
    assert "0 s" in instant.summary()
    sub_ms = Provenance(**base, wall_time_s=0.0004)
    assert "0.0 ms" not in sub_ms.summary()
    assert "µs" in sub_ms.summary()


def test_provenance_summary_includes_trace_id():
    p = Provenance(
        backend="streaming",
        n=4,
        workers=0,
        early_exit=True,
        instances_scanned=1,
        views=1,
        edges=0,
        wall_time_s=0.01,
        trace_id="abc123",
    )
    assert "trace abc123" in p.summary()


# ----------------------------------------------------------------------
# Engine wiring: trace_id stamping and span trees
# ----------------------------------------------------------------------


def test_untraced_decision_has_no_trace_id():
    verdict = decide_hiding(DegreeOneLCP(), 3, _plan(), ctx=RunContext.isolated())
    assert verdict.provenance.trace_id is None


def test_traced_decision_is_stamped_and_covered():
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    verdict = decide_hiding(DegreeOneLCP(), 4, _plan(), ctx=ctx)
    assert verdict.provenance.trace_id == tracer.trace_id
    records = tracer.finished_spans()
    roots = span_tree(records)
    assert len(roots) == 1
    assert roots[0]["name"] == "decide_hiding"
    assert roots[0]["attributes"]["served_by"] == "sweep"
    child_names = {c["name"] for c in roots[0]["children"]}
    assert "backend:streaming" in child_names
    assert tree_coverage(records) >= 0.95
    # the decision landed in the metrics too
    dump = ctx.metrics.as_dict()
    assert dump["counters"]["decisions_total"] == 1
    assert dump["histograms"]["decision_latency_seconds"]["count"] == 1


def test_memo_hit_keeps_original_trace_id():
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    plan = _plan(memory_cache=True)
    first = decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
    again = decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
    assert again is first  # identity semantics of the memo tier
    assert again.provenance.trace_id == tracer.trace_id


def test_parallel_span_tree_integrity_and_parity():
    """workers=2 full sweep: the shard pool's worker spans all have a
    parent in the merged tree, and the traced parallel decision matches
    the serial one exactly."""
    lcp = DegreeOneLCP()
    plan = _plan(workers=2, early_exit=False)
    serial = decide_hiding(
        lcp, 5, _plan(workers=0, early_exit=False), ctx=RunContext.isolated()
    )

    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    parallel = decide_hiding(lcp, 5, plan, ctx=ctx)

    assert parallel.decision_fingerprint() == serial.decision_fingerprint()
    assert parallel.witness == serial.witness
    assert parallel.provenance.shard_count

    records = tracer.finished_spans()
    ids = {r["span_id"] for r in records}
    workers = [r for r in records if r["name"] == "worker:shard"]
    assert workers, "parallel sweep recorded no worker spans"
    for record in workers:
        assert record["parent_id"] in ids, "worker span left dangling"
        assert record["trace_id"] == tracer.trace_id
        assert record["attributes"]["worker_pid"]
    # every shard ran exactly once
    indices = sorted(r["attributes"]["shard_index"] for r in workers)
    assert indices == list(range(parallel.provenance.shard_count))
    assert any(r["name"] == "shard:replay" for r in records)
    # the whole tree remains single-rooted and valid per the report gate
    assert len(span_tree(records)) == 1
    report = RunReport.from_run(
        tracer=tracer, metrics=ctx.metrics, stats=ctx.stats,
        verdict=parallel, plan=plan, scheme=lcp.name, n=5,
    )
    assert validate_report(report.payload) == []


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------


def _traced_run(n: int = 4, **plan_overrides):
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    plan = _plan(**plan_overrides)
    verdict = decide_hiding(DegreeOneLCP(), n, plan, ctx=ctx)
    return RunReport.from_run(
        tracer=tracer,
        metrics=ctx.metrics,
        stats=ctx.stats,
        verdict=verdict,
        plan=plan,
        scheme="DegreeOneLCP",
        n=n,
    )


def test_run_report_validates_and_is_consistent():
    report = _traced_run()
    assert validate_report(report.payload) == []
    assert report.payload["span_coverage"] >= 0.95
    consistency = report.payload["consistency"]
    assert consistency["ok"] is True
    # the metrics counters match provenance exactly on a fresh sweep
    checks = consistency["checks"]
    assert checks["instances_scanned"]["metric"] == checks["instances_scanned"]["provenance"]
    assert checks["views"]["metric"] == checks["views"]["provenance"]
    assert checks["edges"]["metric"] == checks["edges"]["provenance"]
    assert "run report" in report.render()


def test_run_report_write_load_round_trip(runs_dir):
    report = _traced_run()
    canonical = report.write()
    assert canonical.parent == runs_dir
    assert canonical.name == f"{report.digest}.json"
    loaded = RunReport.load(report.digest)
    assert loaded.payload == report.payload
    by_path = RunReport.load(canonical)
    assert by_path.payload == report.payload


def test_identical_plan_runs_diff_clean():
    a = _traced_run()
    clear_engine_state()
    b = _traced_run()
    diff = diff_reports(a, b)
    assert diff["decision_drift"] is False
    assert diff["drift"] == []
    assert "no decision drift" in render_diff(diff)


def test_diff_flags_decision_drift():
    a = _traced_run(n=3)
    b = _traced_run(n=4)
    diff = diff_reports(a, b)
    assert diff["decision_drift"] is True
    assert any("n:" in item for item in diff["drift"])
    assert "DECISION DRIFT" in render_diff(diff)


def test_validate_report_rejects_broken_payloads():
    assert validate_report([]) == ["report payload must be a JSON object"]
    errors = validate_report({"schema": "nope"})
    assert any("schema" in e for e in errors)
    assert any("missing required key" in e for e in errors)
    report = _traced_run()
    payload = json.loads(json.dumps(report.payload))
    payload["spans"][0]["parent_id"] = "bogus"
    assert any("dangling parent" in e for e in validate_report(payload))


# ----------------------------------------------------------------------
# CLI surfacing
# ----------------------------------------------------------------------


def test_cli_hiding_trace_out_end_to_end(tmp_path, runs_dir, capsys):
    from repro.cli import main

    out = tmp_path / "run.json"
    code = main(
        [
            "hiding",
            "--scheme",
            "degree-one",
            "--n",
            "4",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--trace-out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "report:" in printed and "trace " in printed
    payload = json.loads(out.read_text())
    assert validate_report(payload) == []
    assert payload["span_coverage"] >= 0.95
    assert payload["consistency"]["ok"] is True
    # metrics counters match provenance exactly
    counters = payload["metrics"]["counters"]
    provenance = payload["provenance"]
    assert counters["instances_scanned"] == provenance["instances_scanned"]
    assert counters["stream_views"] == provenance["views"]
    assert counters["stream_edges"] == provenance["edges"]


def test_cli_positional_and_option_scheme_conflict(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(
            [
                "hiding",
                "degree-one",
                "--scheme",
                "even-cycle",
                "--n",
                "3",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )


def test_cli_report_show_and_diff(tmp_path, runs_dir, capsys):
    from repro.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        clear_engine_state()
        assert (
            main(
                [
                    "hiding",
                    "degree-one",
                    "--n",
                    "4",
                    "--no-disk-cache",
                    "--trace-out",
                    str(out),
                ]
            )
            == 0
        )
    capsys.readouterr()
    assert main(["report", "show", str(a)]) == 0
    assert "run report" in capsys.readouterr().out
    assert main(["report", "validate", str(a)]) == 0
    capsys.readouterr()
    assert main(["report", "diff", str(a), str(b)]) == 0
    assert "no decision drift" in capsys.readouterr().out


def test_cli_report_validate_rejects_garbage(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "wrong"}')
    assert main(["report", "validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------


def test_setup_logging_is_idempotent():
    root = setup_logging("info")
    handlers_after_first = list(root.handlers)
    root_again = setup_logging("debug")
    assert root_again is root
    assert list(root.handlers) == handlers_after_first
    assert root.level == logging.DEBUG
    child = logging.getLogger("repro.engine")
    assert child.getEffectiveLevel() == logging.DEBUG
    setup_logging("warning")


def test_get_logger_namespaces_under_repro():
    from repro.obs.logs import get_logger

    assert get_logger("engine").name == "repro.engine"
    assert get_logger("repro.engine").name == "repro.engine"
    assert get_logger("").name == "repro"
