"""The progress event bus and its engine/campaign wiring.

Pins the live-telemetry contract: bus semantics (in-line fan-out in
subscription order, raising subscribers counted but never fatal), the
builder's `instances_scanned` deltas on the process-wide bus, the TTY
renderer's EMA-based ETA, the JSONL sink's joinability via
``trace_id``, event ordering of a full sweep, and — the acceptance
invariant — byte-identical decision fingerprints whether anyone is
watching or not.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.core import DegreeOneLCP, EvenCycleLCP
from repro.engine import (
    ExecutionPlan,
    RunContext,
    clear_engine_state,
    decide_hiding,
)
from repro.obs import (
    EVENT_KINDS,
    GLOBAL_PROGRESS,
    JSONLSink,
    ProgressBus,
    TTYRenderer,
    progress_enabled,
)
from repro.obs.progress import _format_eta


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


@pytest.fixture()
def recorded():
    """Every event on the process-wide bus while the test runs."""
    records: list[dict] = []
    subscriber = GLOBAL_PROGRESS.subscribe(records.append)
    yield records
    GLOBAL_PROGRESS.unsubscribe(subscriber)


def _plan(**overrides) -> ExecutionPlan:
    base = dict(backend="streaming", disk_cache=False, memory_cache=False)
    base.update(overrides)
    return ExecutionPlan(**base)


# ----------------------------------------------------------------------
# Bus semantics
# ----------------------------------------------------------------------


def test_emit_without_subscribers_is_inert():
    bus = ProgressBus()
    assert not bus.active
    bus.emit("cell_started", label="x")  # must not raise or allocate state
    assert bus.errors == 0


def test_subscribers_see_events_in_subscription_order():
    bus = ProgressBus()
    seen: list[tuple[str, str]] = []
    bus.subscribe(lambda record: seen.append(("a", record["event"])))
    bus.subscribe(lambda record: seen.append(("b", record["event"])))
    assert bus.active
    bus.emit("cell_started", label="x")
    bus.emit("cell_finished", label="x")
    assert seen == [
        ("a", "cell_started"),
        ("b", "cell_started"),
        ("a", "cell_finished"),
        ("b", "cell_finished"),
    ]


def test_event_record_carries_kind_ts_and_payload():
    bus = ProgressBus()
    records: list[dict] = []
    bus.subscribe(records.append)
    bus.emit("instances_scanned", delta=7, total=7, scheme="even-cycle")
    (record,) = records
    assert record["event"] == "instances_scanned"
    assert isinstance(record["ts"], float)
    assert record["delta"] == 7
    assert record["scheme"] == "even-cycle"


def test_raising_subscriber_is_counted_not_fatal():
    bus = ProgressBus()
    seen = []

    def bad(record):
        raise RuntimeError("boom")

    bus.subscribe(bad)
    bus.subscribe(seen.append)
    bus.emit("cell_started")
    bus.emit("cell_finished")
    # Later subscribers still saw every event; failures were tallied.
    assert [r["event"] for r in seen] == ["cell_started", "cell_finished"]
    assert bus.errors == 2


def test_unsubscribe_is_idempotent():
    bus = ProgressBus()
    sub = bus.subscribe(lambda record: None)
    bus.unsubscribe(sub)
    bus.unsubscribe(sub)
    assert not bus.active


def test_event_kinds_vocabulary_is_stable():
    assert "instances_scanned" in EVENT_KINDS
    assert "campaign_started" in EVENT_KINDS
    assert "generation_level" in EVENT_KINDS


# ----------------------------------------------------------------------
# progress_enabled
# ----------------------------------------------------------------------


def test_progress_enabled_requires_tty(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PROGRESS", raising=False)
    assert not progress_enabled(io.StringIO())  # StringIO.isatty() is False

    class FakeTTY(io.StringIO):
        def isatty(self):
            return True

    assert progress_enabled(FakeTTY())
    monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
    assert not progress_enabled(FakeTTY())


# ----------------------------------------------------------------------
# TTYRenderer
# ----------------------------------------------------------------------


class _FakeTTY(io.StringIO):
    def isatty(self):
        return True


def test_renderer_tracks_campaign_and_eta():
    stream = _FakeTTY()
    renderer = TTYRenderer(stream=stream, min_interval=0.0)
    renderer({"event": "campaign_started", "total_cells": 4})
    assert renderer.eta_seconds() is None  # no cell has finished yet
    renderer({"event": "cell_started", "label": "even-cycle n<=5"})
    renderer({"event": "cell_finished", "label": "even-cycle n<=5", "wall_time_s": 2.0})
    # First sample seeds the EMA directly.
    assert renderer.ema_cell_s == pytest.approx(2.0)
    assert renderer.eta_seconds() == pytest.approx(3 * 2.0)
    renderer({"event": "cell_finished", "wall_time_s": 4.0})
    # EMA with alpha=0.3: 2.0 + 0.3 * (4.0 - 2.0) = 2.6
    assert renderer.ema_cell_s == pytest.approx(2.6)
    assert renderer.eta_seconds() == pytest.approx(2 * 2.6)
    out = stream.getvalue()
    assert "\r" in out
    assert "[2/4]" in out
    assert "ETA" in out


def test_renderer_campaign_finished_clears_line():
    stream = _FakeTTY()
    renderer = TTYRenderer(stream=stream, min_interval=0.0)
    renderer({"event": "campaign_started", "total_cells": 1})
    renderer({"event": "cell_started", "label": "x"})
    renderer({"event": "campaign_finished"})
    # The final write blanks the status line and returns the cursor.
    assert stream.getvalue().endswith("\r")
    assert renderer._line_len == 0


def test_renderer_instances_counter_resets_per_cell():
    stream = _FakeTTY()
    renderer = TTYRenderer(stream=stream, min_interval=0.0)
    renderer({"event": "cell_started", "label": "a"})
    renderer({"event": "instances_scanned", "delta": 256, "total": 256})
    assert renderer._instances == 256
    renderer({"event": "cell_started", "label": "b"})
    assert renderer._instances == 0


def test_format_eta_buckets():
    assert _format_eta(42) == "0:42"
    assert _format_eta(61) == "1:01"
    assert _format_eta(3723) == "1:02:03"


# ----------------------------------------------------------------------
# JSONLSink
# ----------------------------------------------------------------------


def test_jsonl_sink_appends_one_line_per_event(tmp_path):
    target = tmp_path / "events" / "stream.jsonl"
    sink = JSONLSink(target)
    bus = ProgressBus()
    bus.subscribe(sink)
    bus.emit("cell_started", label="x", trace_id="abc123")
    bus.emit("cell_finished", label="x", hiding=True)
    sink.close()
    lines = target.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["event"] == "cell_started"
    assert first["trace_id"] == "abc123"
    assert second["hiding"] is True


def test_jsonl_sink_accepts_open_stream():
    buffer = io.StringIO()
    sink = JSONLSink(buffer)
    sink({"event": "decision_started", "ts": 0.0})
    sink.close()  # must not close a caller-owned stream
    assert json.loads(buffer.getvalue()) == {"event": "decision_started", "ts": 0.0}


# ----------------------------------------------------------------------
# Engine wiring: decision events + ordering
# ----------------------------------------------------------------------


def _decide(plan: ExecutionPlan, n: int = 6):
    ctx = RunContext.observed()
    verdict = decide_hiding(EvenCycleLCP(), n=n, plan=plan, ctx=ctx)
    return verdict, ctx


def test_decision_emits_started_and_finished(recorded):
    verdict, _ = _decide(_plan())
    kinds = [r["event"] for r in recorded]
    assert kinds[0] == "decision_started"
    assert kinds[-1] == "decision_finished"
    done = recorded[-1]
    assert done["hiding"] == verdict.hiding
    assert done["wall_time_s"] > 0
    assert done["trace_id"] is not None


def test_instance_deltas_sum_to_provenance_count(recorded):
    # The builder announces the instances it physically scanned;
    # provenance also counts the orbit mates pruning suppressed
    # (even-cycle is anonymous).
    verdict, ctx = _decide(_plan(early_exit=False), n=6)
    kinds = [r["event"] for r in recorded]
    assert kinds[0] == "decision_started"
    assert kinds[-1] == "decision_finished"
    assert set(kinds[1:-1]) == {"instances_scanned"}
    scanned = [r for r in recorded if r["event"] == "instances_scanned"]
    suppressed = ctx.stats.get("symmetry_instances_suppressed")
    assert suppressed > 0
    assert (
        sum(r["delta"] for r in scanned) + suppressed
        == verdict.provenance.instances_scanned
    )
    totals = [r["total"] for r in scanned]
    assert totals == sorted(totals)  # monotone running totals
    assert all(r["delta"] <= 256 for r in scanned)
    # ``n`` travels on decision_started only.
    assert {(r["scheme"], r["trace_id"], "n" in r) for r in scanned} == {
        (EvenCycleLCP().name, ctx.tracer.trace_id, False)
    }


def test_unobserved_run_skips_instance_announcements():
    assert not GLOBAL_PROGRESS.active
    errors = GLOBAL_PROGRESS.errors
    verdict, _ = _decide(_plan(), n=5)
    assert verdict.provenance.instances_scanned > 0
    assert GLOBAL_PROGRESS.errors == errors


# ----------------------------------------------------------------------
# The acceptance invariant: observation never changes the decision
# ----------------------------------------------------------------------


def test_fingerprints_identical_with_and_without_observers(monkeypatch):
    def run(observed: bool) -> bytes:
        clear_engine_state()
        ctx = RunContext.observed()
        subscriber = None
        if observed:
            monkeypatch.delenv("REPRO_NO_PROGRESS", raising=False)
            subscriber = GLOBAL_PROGRESS.subscribe(lambda record: None)
        else:
            monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        try:
            verdict = decide_hiding(DegreeOneLCP(), n=6, plan=_plan(), ctx=ctx)
        finally:
            GLOBAL_PROGRESS.unsubscribe(subscriber)
        return verdict.decision_fingerprint()

    assert run(observed=True) == run(observed=False)


# ----------------------------------------------------------------------
# Campaign wiring
# ----------------------------------------------------------------------


def test_campaign_emits_cell_lifecycle_events(recorded):
    spec = CampaignSpec(schemes=("even-cycle",), n_values=(4, 5, 6), k_values=(2,))
    run = run_campaign(spec, ctx=RunContext.observed())
    records = recorded
    kinds = [r["event"] for r in records]
    assert kinds[0] == "campaign_started"
    assert kinds[-1] == "campaign_finished"
    assert records[0]["total_cells"] == len(run.results)
    starts = [r for r in records if r["event"] == "cell_started"]
    finishes = [r for r in records if r["event"] == "cell_finished"]
    assert len(starts) == len(finishes) == len(run.results)
    # Every finish carries the wall time the renderer's EMA feeds on,
    # and the trace id that joins it to the run report.
    for record in finishes:
        assert record["wall_time_s"] >= 0
        assert "trace_id" in record
    done = records[-1]
    assert done["cells"] == len(run.results)
    assert done["errors"] == 0


def test_campaign_cell_results_carry_trace_id():
    spec = CampaignSpec(schemes=("even-cycle",), n_values=(4, 5), k_values=(2,))
    ctx = RunContext.observed()
    run = run_campaign(spec, ctx=ctx)
    for cell in run.results:
        assert cell.trace_id == ctx.tracer.trace_id
        assert cell.as_dict()["trace_id"] == ctx.tracer.trace_id
