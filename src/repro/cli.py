"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------

``repro list``
    List every registered experiment with its paper reference.
``repro run <exp_id> [...]``
    Run one or more experiments (or ``all``) and print their reports.
``repro schemes``
    Show the LCP scheme catalog with paper references and size claims.
``repro certify <scheme> <graph-spec>``
    Round-trip a scheme on a generated graph, e.g.
    ``repro certify degree-one path:8`` or
    ``repro certify watermelon melon:2,3,3``.
``repro views <scheme> <graph-spec>``
    Print every node's certified view and its verdict.
``repro hiding <scheme> --n N``
    Decide hiding via the incremental engine, stopping at the first
    witness (``--full-sweep`` builds the complete ``V(D, n)`` instead)
    on the numpy kernels of :mod:`repro.kernel`.  The scheme may
    equivalently be given as ``--scheme``; ``--trace`` prints the
    run's span tree, ``--trace-out FILE`` writes a full run report, and
    ``--profile`` prints the span self-time table plus a
    flamegraph-compatible folded-stack file.
``repro frontier run|show ...``
    Sweep a campaign over the (scheme, family, n, k, r, alphabet)
    parameter space and report where the hiding verdict flips; ``show``
    validates and renders a stored frontier report.  On a terminal the
    sweep shows a live single-line progress display with rate and ETA
    (disable with ``REPRO_NO_PROGRESS=1``); ``--events-out FILE``
    captures the raw progress event stream as JSONL.
``repro report show|diff|validate|list|profile ...``
    Inspect, compare, or schema-check run reports under ``.repro_runs/``
    (``validate`` accepts frontier reports too, dispatching on schema);
    ``list`` enumerates stored reports newest first, ``profile`` renders
    the span self-time breakdown of one report.
``repro cache stats|clear``
    Inspect or empty the persistent sweep cache under ``.repro_cache/``.

The top-level ``--log-level`` flag configures the ``repro.*`` stdlib
logger hierarchy (see :mod:`repro.obs.logs`).
"""

from __future__ import annotations

import argparse
import sys

from ._util import format_table
from .core.registry import PAPER_REFERENCES, PAPER_SIZE_CLAIMS, make_lcp, scheme_names
from .graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    theta_graph,
    watermelon_graph,
)
from .local.instance import Instance


def parse_graph_spec(spec: str):
    """Parse ``kind:args`` graph specifications used by ``certify``."""
    kind, _, args = spec.partition(":")
    params = [int(x) for x in args.split(",") if x] if args else []
    if kind == "path":
        return path_graph(*params)
    if kind == "cycle":
        return cycle_graph(*params)
    if kind == "star":
        return star_graph(*params)
    if kind == "grid":
        return grid_graph(*params)
    if kind == "theta":
        return theta_graph(*params)
    if kind == "melon":
        return watermelon_graph(params)
    raise SystemExit(
        f"unknown graph spec {spec!r}; use path:N, cycle:N, star:N, "
        "grid:R,C, theta:A,B,C, or melon:L1,L2,..."
    )


def cmd_list(_args: argparse.Namespace) -> int:
    from .experiments import all_experiments  # noqa: PLC0415

    rows = [[e.exp_id, e.paper_ref, e.title] for e in all_experiments()]
    print(format_table(["experiment", "paper ref", "title"], rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .errors import ExperimentError  # noqa: PLC0415
    from .experiments import all_experiments, get_experiment, render_results  # noqa: PLC0415
    from .perf import GLOBAL_STATS  # noqa: PLC0415
    from .perf.config import CONFIG  # noqa: PLC0415

    if "all" in args.experiments:
        experiments = all_experiments()
    else:
        try:
            experiments = [get_experiment(exp_id) for exp_id in args.experiments]
        except ExperimentError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2
    if args.perf_stats:
        GLOBAL_STATS.reset()
    with CONFIG.overridden(disk_cache=True if args.disk_cache else None):
        results = [e.run() for e in experiments]
    print(render_results(results))
    if args.perf_stats:
        from .experiments.report import render_perf_stats  # noqa: PLC0415

        print()
        print(render_perf_stats(GLOBAL_STATS))
    return 0 if all(r.ok for r in results) else 1


def cmd_schemes(_args: argparse.Namespace) -> int:
    rows = [
        [name, PAPER_REFERENCES[name], PAPER_SIZE_CLAIMS[name]]
        for name in scheme_names()
    ]
    print(format_table(["scheme", "paper result", "certificate size"], rows))
    return 0


def cmd_views(args: argparse.Namespace) -> int:
    from .local.views import describe_view, extract_all_views  # noqa: PLC0415

    lcp = make_lcp(args.scheme)
    graph = parse_graph_spec(args.graph)
    instance = Instance.build(graph)
    labeled = instance.with_labeling(lcp.prover.certify(instance))
    views = extract_all_views(labeled, args.radius, include_ids=not lcp.anonymous)
    for v, view in views.items():
        verdict = "accept" if lcp.decoder.decide(view) else "reject"
        print(f"node {v!r} [{verdict}]")
        print(describe_view(view))
        print()
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    lcp = make_lcp(args.scheme)
    graph = parse_graph_spec(args.graph)
    instance = Instance.build(graph)
    labeling = lcp.prover.certify(instance)
    result = lcp.check(instance.with_labeling(labeling))
    print(f"scheme:   {lcp.name}  ({PAPER_REFERENCES[args.scheme]})")
    print(f"graph:    {args.graph}  (n={graph.order}, m={graph.size})")
    bits = lcp.labeling_bits(labeling, instance.n, instance.id_bound)
    print(f"certificates: max {bits} bits/node")
    verdict = "unanimously ACCEPTED" if result.unanimous else (
        f"REJECTED at nodes {sorted(result.rejecting, key=repr)}"
    )
    print(f"verdict:  {verdict}")
    if args.show_certificates:
        for v in graph.nodes:
            print(f"  node {v!r}: {labeling.of(v)!r}")
    return 0 if result.unanimous else 1


def _attach_progress(*buses, events_out: str | None = None):
    """Wire the stock progress subscribers to *buses* (plus the global
    bus, where the orderly generator announces — deduplicated when a
    context already uses it).  The TTY renderer attaches only on a
    terminal with ``REPRO_NO_PROGRESS`` unset; the JSONL sink only when
    *events_out* is given.  Returns a detach callable (idempotent
    cleanup for a ``finally`` block)."""
    from .obs import GLOBAL_PROGRESS, JSONLSink, TTYRenderer, progress_enabled  # noqa: PLC0415

    targets = list(dict.fromkeys((*buses, GLOBAL_PROGRESS)))
    renderer = TTYRenderer() if progress_enabled() else None
    sink = JSONLSink(events_out) if events_out is not None else None
    for bus in targets:
        if renderer is not None:
            bus.subscribe(renderer)
        if sink is not None:
            bus.subscribe(sink)

    def detach() -> None:
        for bus in targets:
            if renderer is not None:
                bus.unsubscribe(renderer)
            if sink is not None:
                bus.unsubscribe(sink)
        if renderer is not None:
            renderer.close()
        if sink is not None:
            sink.close()

    return detach


def _resolve_hiding_scheme(args: argparse.Namespace) -> str:
    """The scheme from the positional or the ``--scheme`` option (they
    are aliases; giving both only works when they agree)."""
    positional, option = args.scheme_pos, args.scheme_opt
    if positional is not None and option is not None and positional != option:
        raise SystemExit(
            f"repro hiding: conflicting schemes {positional!r} and {option!r}"
        )
    scheme = option if option is not None else positional
    if scheme is None:
        raise SystemExit(
            "repro hiding: a scheme is required (positional or --scheme)"
        )
    return scheme


def cmd_hiding(args: argparse.Namespace) -> int:
    from .engine import ExecutionPlan, RunContext, decide_hiding  # noqa: PLC0415
    from .perf import GLOBAL_STATS, PerfStats  # noqa: PLC0415
    from .perf.config import CONFIG  # noqa: PLC0415

    scheme = _resolve_hiding_scheme(args)
    if args.n < 1:
        raise SystemExit(f"repro hiding: n must be >= 1, got {args.n}")
    lcp = make_lcp(scheme)
    traced = args.trace or args.trace_out is not None or args.profile
    if traced:
        from .obs import RunReport, Tracer, render_span_tree  # noqa: PLC0415

        tracer = Tracer()
        ctx = RunContext.observed(tracer)
        stats = ctx.stats
    else:
        stats = PerfStats() if args.perf_stats else GLOBAL_STATS
        ctx = RunContext(stats=stats)
    plan = ExecutionPlan(
        early_exit=not args.full_sweep,
        disk_cache=not args.no_disk_cache,
    ).resolve()
    detach_progress = _attach_progress(ctx.progress)
    try:
        with CONFIG.overridden(disk_cache_dir=args.cache_dir):
            verdict = decide_hiding(lcp, args.n, plan, ctx=ctx)
    finally:
        detach_progress()
    g = verdict.ngraph
    print(f"scheme:    {lcp.name}  ({PAPER_REFERENCES[scheme]})")
    print(f"plan:      {plan.describe()}")
    print(f"sweep:     n <= {args.n}, {g.instances_scanned} labeled instances scanned")
    print(f"V(D, n):   {g.order} views, {g.size} edges"
          + ("" if g.has_provenance else "  [from disk cache, no provenance]"))
    print(f"verdict:   {verdict.summary()}")
    print(f"produced:  {verdict.provenance.summary()}")
    if verdict.witness:
        walk = " -> ".join(str(g.index[v]) for v in verdict.witness)
        print(f"witness:   view walk {walk}")
    if traced:
        report = RunReport.from_run(
            tracer=tracer,
            stats=stats,
            verdict=verdict,
            plan=plan,
            scheme=lcp.name,
            n=args.n,
        )
        canonical = report.write(path=args.trace_out)
        if args.trace:
            print()
            print(render_span_tree(tracer.finished_spans()))
        coverage = report.payload["span_coverage"]
        print(f"report:    {canonical}  (span coverage {coverage:.1%})")
        if args.profile:
            from .obs import render_profile, root_duration, write_folded  # noqa: PLC0415

            spans = tracer.finished_spans()
            print()
            print(render_profile(spans, wall_time_s=root_duration(spans)))
            folded = (
                args.folded_out
                if args.folded_out is not None
                else canonical.with_suffix(".folded")
            )
            print(f"folded:    {write_folded(spans, folded)}")
    if args.perf_stats:
        print()
        print(stats.render())
    return 0


def _family_choices() -> list[str]:
    from .graphs.families import graph_family_names  # noqa: PLC0415

    return graph_family_names()


def _csv_ints(text: str | None) -> tuple[int | None, ...]:
    """Parse a comma-separated int list (``None`` -> the native-value
    singleton the campaign axes use as their default)."""
    if text is None:
        return (None,)
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise SystemExit(f"expected a comma-separated list of ints, got {text!r}")


def cmd_frontier_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignSpec, build_frontier_report, run_campaign  # noqa: PLC0415
    from .engine import ExecutionPlan  # noqa: PLC0415
    from .perf.config import CONFIG  # noqa: PLC0415

    schemes = tuple(part for part in args.schemes.split(",") if part)
    families = tuple(part for part in args.family.split(",") if part)
    with CONFIG.overridden(disk_cache_dir=args.cache_dir):
        plan = ExecutionPlan(disk_cache=False if args.no_disk_cache else None).resolve()
        spec = CampaignSpec.sweep(
            schemes,
            n_max=args.n_max,
            n_min=args.n_min,
            k_values=_csv_ints(args.k),
            r_values=_csv_ints(args.r),
            families=families,
            alphabet_limits=_csv_ints(args.alphabet_limit),
            plan=plan,
        )
        errors = spec.validate()
        if errors:
            raise SystemExit("repro frontier run: " + "; ".join(errors))

        def progress(result) -> None:
            verdict = (
                f"ERROR {result.error}"
                if result.error is not None
                else f"hiding={result.hiding}"
            )
            print(f"  {result.cell.label()}: {verdict}", file=sys.stderr)

        from .obs import progress_enabled  # noqa: PLC0415

        # On a terminal the live single-line renderer supersedes the
        # per-cell scroll; off-terminal (CI logs) the scroll remains.
        live = progress_enabled()
        detach_progress = _attach_progress(events_out=args.events_out)
        try:
            run = run_campaign(
                spec, progress=progress if not (args.quiet or live) else None
            )
        finally:
            detach_progress()
    report = build_frontier_report(run)
    canonical = report.write(path=args.out)
    print(report.render())
    print(f"report:    {canonical}")
    return 0 if not run.errors else 1


def _read_report(cls, ref: str, runs_dir: str | None):
    """``cls.load(ref)``, with each way a report can be unreadable — a
    missing ref, bytes that are not JSON, a payload that is not a JSON
    object — raised as a one-line :class:`ValueError`."""
    try:
        report = cls.load(ref, directory=runs_dir)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except ValueError as exc:
        raise ValueError(f"{ref} is not valid JSON: {exc}") from None
    if not isinstance(report.payload, dict):
        raise ValueError(f"{ref}: report payload must be a JSON object")
    return report


def cmd_frontier_show(args: argparse.Namespace) -> int:
    from .campaign import FrontierReport, validate_frontier_report  # noqa: PLC0415

    try:
        report = _read_report(FrontierReport, args.ref, args.runs_dir)
    except ValueError as exc:
        raise SystemExit(f"repro frontier show: {exc}")
    errors = validate_frontier_report(report.payload)
    if errors:
        for error in errors:
            print(f"INVALID: {error}")
        return 1
    print(report.render())
    return 0


def _format_age(seconds: float) -> str:
    """Coarse human age for the report listing."""
    if seconds < 90:
        return f"{int(seconds)}s"
    if seconds < 90 * 60:
        return f"{int(seconds / 60)}m"
    if seconds < 36 * 3600:
        return f"{int(seconds / 3600)}h"
    return f"{int(seconds / 86400)}d"


def _report_list(args: argparse.Namespace) -> int:
    import json  # noqa: PLC0415
    import time  # noqa: PLC0415
    from pathlib import Path  # noqa: PLC0415

    from .obs.report import runs_dir  # noqa: PLC0415

    root = Path(args.runs_dir) if args.runs_dir is not None else runs_dir()
    if not root.is_dir():
        print(f"no reports ({root} does not exist)")
        return 0
    entries = []
    for path in sorted(root.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            continue
        if not isinstance(payload, dict) or "schema" not in payload:
            continue
        decision = payload.get("decision") or {}
        created = payload.get("created")
        if not isinstance(created, (int, float)):
            created = path.stat().st_mtime
        scheme = payload.get("scheme")
        n = payload.get("n")
        subject = f"{scheme} n<={n}" if scheme else "-"
        entries.append(
            {
                "digest": path.stem,
                "schema": payload.get("schema"),
                "created": created,
                "subject": subject,
                "fingerprint": decision.get("fingerprint") or "-",
            }
        )
    if not entries:
        print(f"no reports under {root}")
        return 0
    entries.sort(key=lambda entry: entry["created"], reverse=True)
    now = time.time()
    rows = [
        [
            entry["digest"],
            entry["schema"],
            _format_age(max(0.0, now - entry["created"])),
            entry["subject"],
            entry["fingerprint"][:16],
        ]
        for entry in entries
    ]
    print(format_table(["digest", "schema", "age", "subject", "decision fp"], rows))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import RunReport, diff_reports, render_diff, validate_report  # noqa: PLC0415

    if args.action == "list":
        if args.refs:
            raise SystemExit("repro report list: takes no report references")
        return _report_list(args)
    if args.action == "diff":
        if len(args.refs) != 2:
            raise SystemExit("repro report diff: exactly two reports required")
        try:
            a, b = (_read_report(RunReport, ref, args.runs_dir) for ref in args.refs)
        except ValueError as exc:
            raise SystemExit(f"repro report diff: {exc}")
        diff = diff_reports(a, b)
        print(render_diff(diff))
        return 1 if diff["decision_drift"] else 0
    if len(args.refs) != 1:
        raise SystemExit(f"repro report {args.action}: exactly one report required")
    try:
        report = _read_report(RunReport, args.refs[0], args.runs_dir)
    except ValueError as exc:
        if args.action == "validate":
            print(f"INVALID: {exc}")
            return 1
        raise SystemExit(f"repro report {args.action}: {exc}")
    if args.action == "profile":
        from .obs import render_profile, root_duration, write_folded  # noqa: PLC0415

        spans = report.payload.get("spans") or []
        wall = root_duration(spans)
        if wall is None:
            wall = report.payload.get("wall_time_s")
        print(render_profile(spans, wall_time_s=wall))
        if args.folded_out is not None:
            print(f"folded: {write_folded(spans, args.folded_out)}")
        return 0
    if args.action == "validate":
        # Dispatch on the declared schema: frontier reports live in the
        # same runs directory and validate against their own gate.
        from .campaign import FRONTIER_SCHEMA, validate_frontier_report  # noqa: PLC0415

        if report.payload.get("schema") == FRONTIER_SCHEMA:
            errors = validate_frontier_report(report.payload)
            kind = "frontier report"
        else:
            errors = validate_report(report.payload)
            kind = "run report"
        if errors:
            for error in errors:
                print(f"INVALID: {error}")
            return 1
        print(f"valid {kind} {report.digest}")
        return 0
    print(report.render())
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .perf import default_verdict_cache  # noqa: PLC0415
    from .perf.config import CONFIG  # noqa: PLC0415

    with CONFIG.overridden(disk_cache_dir=args.cache_dir):
        cache = default_verdict_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached sweep(s) from {cache.root}")
        leftovers = cache.clear_shard_checkpoints()
        if leftovers:
            print(f"removed {leftovers} stale shard checkpoint(s) from {cache.root}")
        return 0
    summary = cache.stats_summary()
    print(f"directory:       {summary['directory']}")
    print(f"entries:         {summary['entries']}")
    print(f"bytes:           {summary['bytes']}")
    print(f"format version:  {summary['current_version']}")
    print(f"stale entries:   {summary['stale_entries']}")
    for entry in cache.entries():
        key = entry.get("key", {})
        label = key.get("lcp_name", entry.get("file"))
        print(
            f"  {entry['file']}  {label}  n={key.get('n')}  "
            f"views={entry.get('views')}  edges={entry.get('edges')}  "
            f"v{entry.get('version')}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strong and hiding distributed certification of "
        "k-coloring (PODC 2025) — experiment harness",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="configure the repro.* logger hierarchy for this invocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(fn=cmd_list)

    run_parser = sub.add_parser("run", help="run experiments and print reports")
    run_parser.add_argument("experiments", nargs="+", help="experiment ids, or 'all'")
    run_parser.add_argument(
        "--perf-stats",
        action="store_true",
        help="print cache hit rates and stage timings after the reports",
    )
    run_parser.add_argument(
        "--disk-cache",
        action="store_true",
        help="persist sweep verdicts under .repro_cache/",
    )
    run_parser.set_defaults(fn=cmd_run)

    sub.add_parser("schemes", help="show the LCP scheme catalog").set_defaults(
        fn=cmd_schemes
    )

    certify_parser = sub.add_parser("certify", help="round-trip a scheme on a graph")
    certify_parser.add_argument("scheme", choices=scheme_names())
    certify_parser.add_argument("graph", help="graph spec, e.g. path:8 or melon:2,3,3")
    certify_parser.add_argument(
        "--show-certificates", action="store_true", help="print every certificate"
    )
    certify_parser.set_defaults(fn=cmd_certify)

    views_parser = sub.add_parser("views", help="print every node's certified view")
    views_parser.add_argument("scheme", choices=scheme_names())
    views_parser.add_argument("graph", help="graph spec, e.g. path:4")
    views_parser.add_argument("--radius", type=int, default=1)
    views_parser.set_defaults(fn=cmd_views)

    hiding_parser = sub.add_parser(
        "hiding", help="decide hiding via the early-exit incremental engine"
    )
    hiding_parser.add_argument(
        "scheme_pos",
        nargs="?",
        default=None,
        metavar="scheme",
        choices=scheme_names(),
        help="LCP scheme to sweep (equivalently --scheme)",
    )
    hiding_parser.add_argument(
        "--scheme",
        dest="scheme_opt",
        default=None,
        choices=scheme_names(),
        help="LCP scheme to sweep (alias for the positional)",
    )
    hiding_parser.add_argument(
        "--n", type=int, required=True, metavar="N", help="sweep bound (max nodes)"
    )
    hiding_parser.add_argument(
        "--full-sweep",
        action="store_true",
        help="build the complete V(D, n) instead of stopping at the first "
        "witness",
    )
    hiding_parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="skip the persistent .repro_cache/ for this run",
    )
    hiding_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR", help="cache directory override"
    )
    hiding_parser.add_argument(
        "--perf-stats",
        action="store_true",
        help="print counters and stage timings after the verdict",
    )
    hiding_parser.add_argument(
        "--trace",
        action="store_true",
        help="trace the decision and print the span tree",
    )
    hiding_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the run report to FILE (the content-addressed copy "
        "under .repro_runs/ is always written for traced runs)",
    )
    hiding_parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the decision and print the span self-time table, "
        "plus a flamegraph-compatible folded-stack file next to the "
        "run report",
    )
    hiding_parser.add_argument(
        "--folded-out",
        default=None,
        metavar="FILE",
        help="with --profile: folded-stack output path (default: the "
        "run report path with a .folded suffix)",
    )
    hiding_parser.set_defaults(fn=cmd_hiding)

    frontier_parser = sub.add_parser(
        "frontier",
        help="sweep the (scheme, family, n, k, r, alphabet) parameter "
        "space and report where the hiding verdict flips",
    )
    frontier_sub = frontier_parser.add_subparsers(dest="action", required=True)
    fr_run = frontier_sub.add_parser(
        "run", help="run a campaign and write the frontier report"
    )
    fr_run.add_argument(
        "schemes",
        help="comma-separated scheme names, e.g. even-cycle or "
        "degree-one,even-cycle",
    )
    fr_run.add_argument(
        "--n-max", type=int, required=True, metavar="N", help="largest sweep bound"
    )
    fr_run.add_argument(
        "--n-min", type=int, default=1, metavar="N", help="smallest sweep bound"
    )
    fr_run.add_argument(
        "--k",
        default=None,
        metavar="K1,K2",
        help="comma-separated k values (default: each scheme's native k)",
    )
    fr_run.add_argument(
        "--r",
        default=None,
        metavar="R1,R2",
        help="comma-separated verification radii (default: native r)",
    )
    fr_run.add_argument(
        "--family",
        default="all",
        metavar="F1,F2",
        help="comma-separated graph families "
        f"(known: {', '.join(_family_choices())})",
    )
    fr_run.add_argument(
        "--alphabet-limit",
        default=None,
        metavar="A1,A2",
        help="comma-separated caps on the certificate alphabet "
        "(default: the full alphabet)",
    )
    fr_run.add_argument(
        "--no-disk-cache", action="store_true",
        help="skip the persistent .repro_cache/ for this campaign",
    )
    fr_run.add_argument(
        "--cache-dir", default=None, metavar="DIR", help="cache directory override"
    )
    fr_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the frontier report to FILE (the content-"
        "addressed copy under .repro_runs/ is always written)",
    )
    fr_run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    fr_run.add_argument(
        "--events-out",
        default=None,
        metavar="FILE",
        help="append the raw progress event stream (campaign_started, "
        "cell_started/finished, instances_scanned deltas) as JSONL, "
        "joinable with traces via trace_id",
    )
    fr_run.set_defaults(fn=cmd_frontier_run)
    fr_show = frontier_sub.add_parser(
        "show", help="validate and render a frontier report"
    )
    fr_show.add_argument("ref", help="report path or digest under the runs dir")
    fr_show.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="runs directory for digest lookups (default: $REPRO_RUNS_DIR "
        "or ./.repro_runs)",
    )
    fr_show.set_defaults(fn=cmd_frontier_show)

    report_parser = sub.add_parser(
        "report", help="inspect, diff, validate, list, or profile run reports"
    )
    report_parser.add_argument(
        "action", choices=["show", "diff", "validate", "list", "profile"]
    )
    report_parser.add_argument(
        "refs", nargs="*", help="report path(s) or digest(s) under the runs dir"
    )
    report_parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="runs directory for digest lookups (default: $REPRO_RUNS_DIR "
        "or ./.repro_runs)",
    )
    report_parser.add_argument(
        "--folded-out",
        default=None,
        metavar="FILE",
        help="with profile: also write the flamegraph-compatible "
        "folded-stack export to FILE",
    )
    report_parser.set_defaults(fn=cmd_report)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent sweep cache"
    )
    cache_parser.add_argument("action", choices=["stats", "clear"])
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR", help="cache directory override"
    )
    cache_parser.set_defaults(fn=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        from .obs.logs import setup_logging  # noqa: PLC0415

        setup_logging(args.log_level)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
