"""Batch runner: execute experiments and persist the report.

Used by CI-style invocations (`python -m repro.experiments.runner`) and
by anyone who wants the full reproduction written to disk in one call.

The runner's configuration surface is two objects: an
:class:`~repro.engine.plan.ExecutionPlan` saying *how* the experiments'
sweeps should run, and (optionally) a
:class:`~repro.campaign.CampaignSpec` naming a parameter-frontier sweep
to append to the batch.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..engine.context import RunContext
from ..engine.plan import ExecutionPlan
from ..obs.progress import GLOBAL_PROGRESS
from ..obs.trace import NULL_TRACER, Tracer
from ..perf import GLOBAL_STATS
from ..perf.config import CONFIG
from .registry import ExperimentResult, all_experiments
from .report import render_perf_stats, render_results


def config_overrides(plan: ExecutionPlan | None) -> dict:
    """The ``CONFIG.overridden`` kwargs one plan scopes a batch with.

    Experiments read the session config rather than taking a plan per
    call, so the runner projects the plan back onto the config knobs for
    the duration of the batch.  ``None`` fields override nothing.
    """
    if plan is None:
        return {}
    return {"disk_cache": plan.disk_cache}


def run_all(
    plan: ExecutionPlan | None = None,
    verbose: bool = True,
    tracer: Tracer | None = None,
) -> list[ExperimentResult]:
    """Run every registered experiment, in id order.

    *plan* scopes the batch: its ``disk_cache`` field becomes the
    session config for the duration of the call (``CONFIG.overridden``),
    so a runner invocation can no longer leak knobs into subsequent
    in-process work.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    results = []
    with CONFIG.overridden(**config_overrides(plan)):
        with tracer.span("run-all", experiments=len(all_experiments())):
            for experiment in all_experiments():
                start = time.perf_counter()
                GLOBAL_PROGRESS.emit(
                    "experiment_started",
                    exp_id=experiment.exp_id,
                    trace_id=tracer.trace_id if tracer.active else None,
                )
                with tracer.span(
                    "experiment", exp_id=experiment.exp_id
                ) as span:
                    result = experiment.run()
                    span.set_attribute("ok", result.ok)
                elapsed = time.perf_counter() - start
                GLOBAL_PROGRESS.emit(
                    "experiment_finished",
                    exp_id=experiment.exp_id,
                    ok=result.ok,
                    wall_time_s=elapsed,
                    trace_id=tracer.trace_id if tracer.active else None,
                )
                if verbose:
                    status = "OK" if result.ok else "MISMATCH"
                    print(
                        f"[{status}] {experiment.exp_id} ({elapsed:.1f}s)",
                        file=sys.stderr,
                    )
                result.notes.append(f"wall time: {elapsed:.2f}s")
                results.append(result)
    return results


def run_all_and_save(
    path: str | Path,
    plan: ExecutionPlan | None = None,
    campaign=None,
    verbose: bool = True,
    trace_out: str | Path | None = None,
) -> bool:
    """Run everything, write the rendered report (plus the perf-stats
    section) to *path*.

    With *campaign* (a :class:`~repro.campaign.CampaignSpec`), the batch
    also sweeps the parameter frontier: the campaign runs after the
    experiments, its :class:`~repro.campaign.FrontierReport` is written
    content-addressed under ``.repro_runs/``, and a frontier section is
    appended to the text report.

    With *trace_out*, the batch also runs traced: a
    :class:`~repro.obs.report.RunReport` (one span per experiment under
    a ``run-all`` root, then the campaign's spans, each holding its
    share of the ``GLOBAL_STATS`` counters) is written to that path,
    plus the content-addressed copy under ``.repro_runs/``.

    Returns True iff every experiment reproduced OK (and, when a
    campaign ran, every cell decided without error).
    """
    GLOBAL_STATS.reset()
    tracer = Tracer(stats=GLOBAL_STATS) if trace_out is not None else None
    results = run_all(plan=plan, verbose=verbose, tracer=tracer)
    report = render_results(results) + "\n\n" + render_perf_stats(GLOBAL_STATS)
    ok = all(r.ok for r in results)
    if campaign is not None:
        from ..campaign import FrontierReport, run_campaign  # noqa: PLC0415

        run = run_campaign(
            campaign, ctx=RunContext(tracer=tracer) if tracer is not None else None
        )
        frontier = FrontierReport.from_run(run)
        canonical = frontier.write()
        summary = frontier.payload["summary"]
        report += (
            "\n\nPARAMETER FRONTIER\n"
            f"  cells: {summary['cells']}  errors: {summary['errors']}  "
            f"flips: {summary['flips']} {summary['flips_by_axis']}\n"
            f"  report: {canonical}\n"
        )
        ok = ok and not run.errors
    Path(path).write_text(report + "\n", encoding="utf-8")
    if tracer is not None:
        from ..obs.report import RunReport  # noqa: PLC0415

        run_report = RunReport.from_run(
            tracer=tracer,
            stats=GLOBAL_STATS,
            meta={
                "kind": "experiment-batch",
                "experiments": [r.exp_id for r in results],
                "ok": all(r.ok for r in results),
            },
        )
        run_report.write(path=trace_out)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="run every experiment and persist the report",
    )
    parser.add_argument(
        "target", nargs="?", default="experiment_report.txt", help="report path"
    )
    parser.add_argument(
        "--disk-cache",
        action="store_true",
        help="persist sweep verdicts under .repro_cache/",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="also write a traced run report (one span per experiment)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="configure the repro.* logger hierarchy",
    )
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from ..obs.logs import setup_logging  # noqa: PLC0415

        setup_logging(args.log_level)
    plan = ExecutionPlan(disk_cache=True if args.disk_cache else None)
    ok = run_all_and_save(args.target, plan=plan, trace_out=args.trace_out)
    print(f"report written to {args.target}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
