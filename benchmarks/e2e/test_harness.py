"""Tests of the benchmark harness itself (tiny inputs, n <= 4).

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import layers
import run
import workloads
from layers import LayerTimer, reconcile


class FakeClock:
    """A clock that moves only when the test says work happened."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------


def test_nested_generators_charge_each_layer_its_own_work(clock):
    timer = LayerTimer(clock)

    def leaf():
        clock.work(1.0)

    def inner():
        for i in range(3):
            clock.work(0.5)
            leaf()
            yield i

    def outer():
        clock.work(0.125)
        for item in inner():
            clock.work(0.25)
            yield item

    leaf = timer.wrap("leaf", leaf)
    inner = timer.wrap("inner", inner)
    outer = timer.wrap("outer", outer)

    def consumer():
        for _ in outer():
            clock.work(2.0)

    consumer = timer.wrap("root", consumer)
    consumer()

    assert timer.self_s == pytest.approx(
        {"leaf": 3.0, "inner": 1.5, "outer": 0.125 + 3 * 0.25, "root": 6.0}
    )
    assert timer.total() == pytest.approx(clock.now)
    assert timer.calls == {"leaf": 3, "inner": 1, "outer": 1, "root": 1}
    assert timer.depth == 0


def test_generator_closed_early_runs_its_cleanup_at_the_exit_point(clock):
    timer = LayerTimer(clock)
    events = []

    def produce():
        try:
            for i in range(10):
                clock.work(1.0)
                yield i
        finally:
            clock.work(0.5)
            events.append("cleanup")

    produce = timer.wrap("producer", produce)

    def consume():
        for item in produce():
            if item == 1:
                break
        events.append("after-loop")

    timer.wrap("root", consume)()

    assert events == ["cleanup", "after-loop"]
    assert timer.self_s["producer"] == pytest.approx(2.5)
    assert timer.self_s["root"] == pytest.approx(0.0)
    assert timer.depth == 0


def test_explicit_close_and_exceptions_leave_no_open_frames(clock):
    timer = LayerTimer(clock)

    def failing():
        clock.work(1.0)
        yield 1
        raise ValueError("boom")

    failing = timer.wrap("gen", failing)
    gen = failing()
    assert next(gen) == 1
    with pytest.raises(ValueError):
        next(gen)
    assert timer.depth == 0

    gen = failing()
    next(gen)
    gen.close()
    assert timer.depth == 0
    assert timer.self_s["gen"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------


def test_reconciliation_flags_time_outside_every_frame(clock):
    timer = LayerTimer(clock)

    def child():
        clock.work(9.0)

    child = timer.wrap("child", child)

    def root():
        clock.work(1.0)
        child()

    timer.wrap("root", root)()
    exact = reconcile(timer, 10.0, "root")
    assert exact.error == pytest.approx(0.0)
    assert exact.unattributed_share == pytest.approx(0.1)

    gap = reconcile(timer, 12.0, "root")
    assert gap.error > run.MAX_RECONCILE_ERROR
    assert gap.unattributed_share == pytest.approx(3.0 / 12.0)


def test_traced_tiny_sweep_reconciles_and_restores_every_target():
    from repro.core.registry import make_lcp
    from repro.engine.plan import ExecutionPlan

    import repro.engine.core as core

    original = core.decide_hiding
    plan = ExecutionPlan(
        backend=workloads.resolve_backend(),
        early_exit=False,
        memory_cache=False,
        disk_cache=False,
    )
    timer = LayerTimer()
    with layers.install(timer) as missing:
        start = timer.clock()
        verdict = core.decide_hiding(make_lcp("degree-one"), 4, plan)
        wall = timer.clock() - start
    assert missing == []
    assert core.decide_hiding is original
    assert timer.depth == 0
    check = reconcile(timer, wall, "engine.core")
    assert check.error <= run.MAX_RECONCILE_ERROR
    assert set(timer.self_s) <= set(layers.LAYERS)
    assert verdict.hiding is True


# ----------------------------------------------------------------------
# Per-operation correctness (fail_rate)
# ----------------------------------------------------------------------


def _decide(scheme: str, n: int, k: int | None = None):
    from repro.core.registry import make_lcp
    from repro.engine import RunContext, decide_hiding
    from repro.engine.plan import ExecutionPlan

    plan = ExecutionPlan(backend="streaming", early_exit=False, disk_cache=False)
    return decide_hiding(make_lcp(scheme), n, plan, k=k, ctx=RunContext.isolated())


def _records(outcomes):
    prepared = workloads.Prepared(
        workload=workloads.WORKLOADS["campaign-write"],
        backend="streaming",
        numpy_version="",
        subject=None,
    )
    return workloads.check(prepared, outcomes)


def test_honest_verdicts_pass():
    hiding = _decide("degree-one", 4)
    colorable = _decide("revealing", 4)
    assert hiding.hiding is True and colorable.hiding is False
    assert workloads.check_verdict(hiding, 2, expect_hiding=True) is None
    assert workloads.check_verdict(colorable, 2) is None


def test_injected_wrong_witness_fails():
    verdict = _decide("degree-one", 4)
    open_walk = replace(verdict, witness=verdict.witness[:-1])
    assert "odd closed walk" in workloads.check_verdict(open_walk, 2)
    assert "without" in workloads.check_verdict(replace(verdict, witness=None), 2)


def test_injected_improper_coloring_fails():
    verdict = _decide("revealing", 4)
    monochrome = {i: 0 for i in range(verdict.ngraph.order)}
    assert workloads.check_verdict(replace(verdict, coloring=monochrome), 2) == (
        "coloring is not proper"
    )
    many = {i: i for i in range(verdict.ngraph.order)}
    assert "more than 2 colors" in workloads.check_verdict(
        replace(verdict, coloring=many), 2
    )


def test_wrong_decision_on_a_sweep_fails_but_inconclusive_does_not():
    verdict = _decide("revealing", 4)
    assert "expected hiding=True" in workloads.check_verdict(
        verdict, 2, expect_hiding=True
    )
    unknown = replace(verdict, hiding=None)
    assert workloads.check_verdict(unknown, 2, expect_hiding=True) is None


def test_fail_rate_counts_failures_mismatches_and_not_inconclusive():
    verdict = _decide("degree-one", 4)
    bad = replace(verdict, witness=verdict.witness[:-1])
    unknown = replace(verdict, hiding=None)
    first = _records(
        [
            ("a", 2, verdict, None, "f1"),
            ("b", 2, bad, None, "f2"),
            ("c", 2, unknown, None, "f3"),
            ("d", 2, None, "RecursionError: depth", None),
        ]
    )
    second = _records([("a", 2, verdict, None, "f-other")])
    m = run.Measurement("campaign-write")
    for records in (first, second):
        report = {"ops": records, "setup_s": 0.1, "raw_setup_s": 0.2, "probe_s": 0.2}
        assert m.absorb(report, expected_ops=4)
    assert [op["status"] for op in m.ops] == [
        "ok",
        "fail",
        "inconclusive",
        "fail",
        "fail",
    ]
    assert "differs" in m.ops[-1]["reason"]
    assert (m.failed, m.inconclusive, len(m.ops)) == (3, 1, 5)

    m.absorb({"error": "child exited 1"}, expected_ops=2)
    assert (m.failed, len(m.ops)) == (5, 7)


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------


def test_benchmark_json_lists_exactly_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_bytes_read_counts_only_reads_under_the_root(tmp_path: Path):
    inside = tmp_path / "cache" / "entry.jsonl"
    inside.parent.mkdir()
    inside.write_text("x" * 100, encoding="utf-8")
    outside = tmp_path / "other.txt"
    outside.write_text("y" * 50, encoding="utf-8")
    with workloads.bytes_read_under(tmp_path / "cache") as total:
        inside.read_text(encoding="utf-8")
        with open(outside, encoding="utf-8") as fh:
            fh.read()
        (tmp_path / "cache" / "new.jsonl").write_text("z", encoding="utf-8")
    assert total[0] == 100


def test_times_scale_to_the_reference_host_speed():
    slow = {"raw_setup_s": 1.0, "wall_s": 3.0, "probe_s": 0.2, "probe_after_s": 0.3}
    run.scale_to_reference(slow)
    assert slow["raw_wall_s"] == 3.0
    assert slow["wall_s"] == pytest.approx(3.0 * run.PROBE_REFERENCE_S / 0.25)
    assert slow["setup_s"] == pytest.approx(1.0 * run.PROBE_REFERENCE_S / 0.2)

    setup_only = {"raw_setup_s": 0.5, "probe_s": run.PROBE_REFERENCE_S}
    run.scale_to_reference(setup_only)
    assert setup_only["setup_s"] == pytest.approx(0.5)
    assert "wall_s" not in setup_only


@pytest.mark.skipif(not Path("/proc/self/personality").exists(), reason="Linux only")
def test_children_start_without_address_randomization():
    if not run.fix_address_space():
        pytest.skip("personality(2) refused here")
    done = subprocess.run(
        [sys.executable, "-c", "print(open('/proc/self/personality').read())"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(done.stdout, 16) & run.ADDR_NO_RANDOMIZE


def test_repeat_for_honours_minimum_budget_and_failures():
    calls = []

    def one(seconds=0.0, ok=True):
        calls.append(1)
        time.sleep(seconds)
        return ok

    run.repeat_for(0.0, 3, one)
    assert len(calls) == 3
    calls.clear()
    run.repeat_for(0.05, 1, lambda: one(0.01))
    assert 2 <= len(calls) <= 5
    calls.clear()
    run.repeat_for(10.0, 3, lambda: one(ok=False))
    assert len(calls) == 1
