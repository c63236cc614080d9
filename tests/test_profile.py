"""Span self-time profiling: exclusive-time math, folded-stack export,
and the rendered table's reconciliation against measured wall time.
"""

from __future__ import annotations

import pytest

from repro.core import EvenCycleLCP
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.obs import (
    folded_stacks,
    render_profile,
    self_times,
    total_self_time,
    write_folded,
)


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


def _span(name, span_id, parent_id, duration_s, trace_id="t"):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "start_time": 0.0,
        "duration_s": duration_s,
        "attributes": {},
    }


def _toy_records():
    # root (10s) -> child-a (4s) -> leaf (1s); root -> child-b (3s)
    return [
        _span("root", "1", None, 10.0),
        _span("child-a", "2", "1", 4.0),
        _span("leaf", "3", "2", 1.0),
        _span("child-b", "4", "1", 3.0),
    ]


# ----------------------------------------------------------------------
# self_times
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    agg = self_times(_toy_records())
    assert agg["root"]["self_s"] == pytest.approx(3.0)  # 10 - 4 - 3
    assert agg["child-a"]["self_s"] == pytest.approx(3.0)  # 4 - 1
    assert agg["child-b"]["self_s"] == pytest.approx(3.0)
    assert agg["leaf"]["self_s"] == pytest.approx(1.0)
    assert agg["root"]["total_s"] == pytest.approx(10.0)
    assert all(entry["calls"] == 1 for entry in agg.values())


def test_self_times_reconcile_with_root_inclusive_total():
    records = _toy_records()
    assert total_self_time(records) == pytest.approx(10.0)


def test_child_outlasting_parent_clamps_to_zero():
    # Clock jitter: children sum past the parent's inclusive duration.
    records = [
        _span("root", "1", None, 1.0),
        _span("child", "2", "1", 1.5),
    ]
    agg = self_times(records)
    assert agg["root"]["self_s"] == 0.0  # clamped, not negative
    assert agg["child"]["self_s"] == pytest.approx(1.5)


def test_repeated_names_aggregate_calls():
    records = [
        _span("root", "1", None, 5.0),
        _span("step", "2", "1", 2.0),
        _span("step", "3", "1", 1.0),
    ]
    agg = self_times(records)
    assert agg["step"]["calls"] == 2
    assert agg["step"]["self_s"] == pytest.approx(3.0)
    assert agg["root"]["self_s"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Folded stacks
# ----------------------------------------------------------------------


def test_folded_stacks_paths_and_microseconds():
    lines = folded_stacks(_toy_records())
    assert lines == sorted(lines)  # deterministic output order
    as_map = dict(line.rsplit(" ", 1) for line in lines)
    assert as_map["root"] == str(3_000_000)
    assert as_map["root;child-a"] == str(3_000_000)
    assert as_map["root;child-a;leaf"] == str(1_000_000)
    assert as_map["root;child-b"] == str(3_000_000)


def test_folded_stacks_omit_zero_self_paths():
    records = [
        _span("root", "1", None, 1.0),
        _span("child", "2", "1", 1.0),  # root's self time is exactly 0
    ]
    lines = folded_stacks(records)
    assert lines == ["root;child 1000000"]


def test_write_folded_roundtrip(tmp_path):
    path = write_folded(_toy_records(), tmp_path / "out" / "profile.folded")
    text = path.read_text()
    assert text.endswith("\n")
    assert text.splitlines() == folded_stacks(_toy_records())


def test_write_folded_empty(tmp_path):
    path = write_folded([], tmp_path / "empty.folded")
    assert path.read_text() == ""


# ----------------------------------------------------------------------
# render_profile
# ----------------------------------------------------------------------


def test_render_profile_table_and_reconciliation():
    text = render_profile(_toy_records(), wall_time_s=10.0)
    lines = text.splitlines()
    assert lines[0].split() == ["span", "calls", "self", "total", "self%"]
    # Hottest-first: three names tie at 3.0s, leaf (1.0s) comes last
    # among the named rows.
    named = [line.split()[0] for line in lines[1:5]]
    assert named[-1] == "leaf"
    assert "(span total)" in text
    assert "reconciliation:" in text
    assert "(100.0%)" in text


def test_render_profile_without_wall_time_omits_reconciliation():
    text = render_profile(_toy_records())
    assert "reconciliation" not in text


def test_render_profile_empty():
    assert render_profile([]) == "(no spans recorded)"


# ----------------------------------------------------------------------
# End to end: a traced decision profiles coherently
# ----------------------------------------------------------------------


def test_traced_decision_profile_reconciles():
    ctx = RunContext.observed()
    plan = ExecutionPlan(backend="streaming", disk_cache=False, memory_cache=False)
    verdict = decide_hiding(EvenCycleLCP(), n=6, plan=plan, ctx=ctx)
    records = ctx.tracer.finished_spans()
    agg = self_times(records)
    assert "decide_hiding" in agg
    # Self times sum to the root span's inclusive duration ...
    root_total = agg["decide_hiding"]["total_s"]
    assert total_self_time(records) == pytest.approx(root_total, rel=1e-9)
    # ... and the folded export covers the same total (up to rounding).
    folded_usec = sum(int(line.rsplit(" ", 1)[1]) for line in folded_stacks(records))
    assert folded_usec == pytest.approx(root_total * 1e6, abs=len(records) + 1)
    # The externally measured wall time is in the same ballpark as the
    # span tree (the CLI prints the exact ratio; here we only pin that
    # both clocks saw the same run).
    assert verdict.provenance.wall_time_s > 0
