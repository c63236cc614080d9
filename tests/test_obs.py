"""The observability layer: tracer, the stats record, run reports,
logging, and their wiring through the hiding-decision engine.
"""

from __future__ import annotations

import json
import logging
from dataclasses import fields, replace

import pytest

from repro.core import DegreeOneLCP
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.engine.verdict import Provenance
from repro.obs import (
    NULL_TRACER,
    SPAN_FIELDS,
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
)
from repro.perf import GLOBAL_STATS


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
    base = dict(backend="streaming", disk_cache=False, memory_cache=False)
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
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.trace_id is None


# ----------------------------------------------------------------------
# The run context's one counter record
# ----------------------------------------------------------------------


def test_run_context_fields_are_pinned():
    assert [f.name for f in fields(RunContext)] == [
        "config",
        "stats",
        "tracer",
        "progress",
        "memory",
        "disk",
    ]


#: Counters of the process-wide graph generation and its caches, which
#: serve every run and so always count on ``GLOBAL_STATS``.
PROCESS_WIDE_COUNTERS = {
    "family_cache_hits",
    "family_cache_misses",
    "orderly_generations",
    "orderly_levels_vectorized",
    "generation_batches",
    "canonicalizations",
    "automorphism_groups",
}


def test_isolated_counters_stay_out_of_global_stats():
    before = dict(GLOBAL_STATS.counters)
    ctx = RunContext.isolated()
    verdict = decide_hiding(DegreeOneLCP(), 4, _plan(early_exit=False), ctx=ctx)
    recorded = ctx.stats.counters
    assert recorded["instances_scanned"] == verdict.provenance.instances_scanned
    assert recorded["kernel_labelings"] > 0
    grown = {
        name for name, value in GLOBAL_STATS.counters.items()
        if value != before.get(name, 0)
    }
    assert grown <= PROCESS_WIDE_COUNTERS
    assert not grown & set(recorded)


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
    # the sweep's counters landed on the context's stats
    assert ctx.stats.get("instances_scanned") == verdict.provenance.instances_scanned


def test_memo_hit_keeps_original_trace_id():
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    plan = _plan(memory_cache=True)
    first = decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
    again = decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
    assert again is first  # identity semantics of the memo tier
    assert again.provenance.trace_id == tracer.trace_id


def test_traced_full_sweep_is_one_valid_tree_with_the_untraced_decision():
    """A traced full sweep records one single-rooted span tree whose run
    report passes the schema gate, and tracing leaves the decision
    byte-identical to the untraced one."""
    lcp = DegreeOneLCP()
    plan = _plan(early_exit=False)
    untraced = decide_hiding(lcp, 5, plan, ctx=RunContext.isolated())

    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    traced = decide_hiding(lcp, 5, plan, ctx=ctx)

    assert traced.decision_fingerprint() == untraced.decision_fingerprint()
    assert traced.witness == untraced.witness
    records = tracer.finished_spans()
    assert all(r["trace_id"] == tracer.trace_id for r in records)
    assert len(span_tree(records)) == 1
    report = RunReport.from_run(
        tracer=tracer, stats=ctx.stats,
        verdict=traced, plan=plan, scheme=lcp.name, n=5,
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
    # the stats counters match provenance exactly on a fresh sweep
    checks = consistency["checks"]
    assert checks["instances_scanned"]["metric"] == checks["instances_scanned"]["provenance"]
    assert checks["views"]["metric"] == checks["views"]["provenance"]
    assert checks["edges"]["metric"] == checks["edges"]["provenance"]
    assert "run report" in report.render()
    assert report.payload["schema"] == "repro.run-report/v2"
    assert "metrics" not in report.payload


def test_drifted_provenance_is_a_consistency_mismatch():
    """A report whose provenance disagrees with the stats counters fails
    the consistency block and renders as a mismatch."""
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    plan = _plan()
    verdict = decide_hiding(DegreeOneLCP(), 4, plan, ctx=ctx)
    views = ctx.stats.get("stream_views")
    assert verdict.provenance.views == views
    drifted = replace(verdict, provenance=replace(verdict.provenance, views=views + 1))
    report = RunReport.from_run(
        tracer=tracer, stats=ctx.stats, verdict=drifted, plan=plan, n=4
    )
    consistency = report.payload["consistency"]
    assert consistency["ok"] is False
    assert consistency["checks"]["views"] == {"metric": views, "provenance": views + 1}
    edges = consistency["checks"]["edges"]
    assert edges["metric"] == edges["provenance"]
    assert "consistency:   MISMATCH" in report.render()
    assert validate_report(report.payload) == []


def _as_v1(payload: dict) -> dict:
    """*payload* as schema v1 wrote it: a ``metrics`` registry dump and
    the throughput fields in provenance."""
    old = json.loads(json.dumps(payload))
    old["schema"] = "repro.run-report/v1"
    old["metrics"] = {"counters": old["stats"]["counters"], "gauges": {}, "histograms": {}}
    old["provenance"].update(labelings_per_sec=1.0, canonicalizations_per_sec=None)
    return old


def test_validate_report_rejects_a_v1_payload():
    old = _as_v1(_traced_run().payload)
    assert validate_report(old) == [
        "schema must be 'repro.run-report/v2', got 'repro.run-report/v1'"
    ]


def test_v1_reports_still_diff_and_list(tmp_path, capsys):
    from repro.cli import main

    report = _traced_run()
    old = RunReport(_as_v1(report.payload))
    diff = diff_reports(old, report)
    assert diff["decision_drift"] is False
    old.write(directory=tmp_path)
    report.write(directory=tmp_path)
    capsys.readouterr()
    assert main(["report", "list", "--runs-dir", str(tmp_path)]) == 0
    listing = capsys.readouterr().out
    assert old.digest in listing and "repro.run-report/v1" in listing
    assert report.digest in listing and "repro.run-report/v2" in listing


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


def test_diff_reports_a_plan_change_as_information(tmp_path, capsys):
    from repro.cli import main

    a = _traced_run()
    payload = json.loads(json.dumps(a.payload))
    payload["plan_fingerprint"] = "0" * len(payload["plan_fingerprint"])
    diff = diff_reports(a, payload)
    assert diff["decision_drift"] is False
    assert diff["drift"] == []
    assert any(item.startswith("plan fingerprint:") for item in diff["info"])
    assert "no decision drift" in render_diff(diff)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(a.payload))
    paths[1].write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "diff", *map(str, paths)]) == 0
    assert "plan fingerprint:" in capsys.readouterr().out


def test_diff_still_flags_a_decision_fingerprint_change(tmp_path, capsys):
    from repro.cli import main

    a = _traced_run()
    payload = json.loads(json.dumps(a.payload))
    payload["decision"]["fingerprint"] = "0" * len(payload["decision"]["fingerprint"])
    diff = diff_reports(a, payload)
    assert diff["decision_drift"] is True
    assert any(item.startswith("decision.fingerprint:") for item in diff["drift"])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(a.payload))
    paths[1].write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "diff", *map(str, paths)]) == 1
    assert "DECISION DRIFT" in capsys.readouterr().out


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
    # stats counters match provenance exactly
    counters = payload["stats"]["counters"]
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


def test_cli_report_show_renders_retired_plan_fields(tmp_path, runs_dir, capsys):
    """A v2 run report whose plan still has the retired ``symmetry`` and
    ``warm_start`` keys renders; "orbit-pruned" comes from the verdict's
    provenance alone."""
    from repro.cli import main

    out = tmp_path / "old.json"
    assert (
        main(["hiding", "degree-one", "--n", "3", "--no-disk-cache", "--trace-out", str(out)])
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro.run-report/v2"
    assert payload["provenance"]["symmetry_pruned"] is True
    payload["plan"] = {**payload["plan"], "warm_start": True, "symmetry": "off"}
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "show", str(out)]) == 0
    plan_line = next(
        line for line in capsys.readouterr().out.splitlines() if "plan:" in line
    )
    assert plan_line.split() == ["plan:", "backend=streaming", "(orbit-pruned)"]


def test_cli_report_validate_rejects_garbage(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "wrong"}')
    assert main(["report", "validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------


@pytest.fixture()
def _restore_repro_logger(monkeypatch):
    """Put the ``repro`` logger back as it was: ``setup_logging`` turns
    its propagation off, which would hide later records from
    ``caplog`` (it listens on the stdlib root)."""
    from repro.obs import logs

    root = logging.getLogger(logs.ROOT_LOGGER_NAME)
    saved = (root.propagate, root.level, list(root.handlers))
    monkeypatch.setattr(logs, "_HANDLER", logs._HANDLER)
    yield
    root.propagate, level, handlers = saved
    root.setLevel(level)
    root.handlers[:] = handlers


def test_setup_logging_is_idempotent(_restore_repro_logger):
    root = setup_logging("info")
    handlers_after_first = list(root.handlers)
    root_again = setup_logging("debug")
    assert root_again is root
    assert list(root.handlers) == handlers_after_first
    assert root.level == logging.DEBUG
    child = logging.getLogger("repro.engine")
    assert child.getEffectiveLevel() == logging.DEBUG


def test_get_logger_namespaces_under_repro():
    from repro.obs.logs import get_logger

    assert get_logger("engine").name == "repro.engine"
    assert get_logger("repro.engine").name == "repro.engine"
    assert get_logger("").name == "repro"
