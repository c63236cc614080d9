"""Neighborhood-pipeline and hiding-engine benchmarks.

Writes two JSON reports:

* ``BENCH_neighborhood.json`` — the full Lemma 3.1 sweep
  (``yes_instances_up_to`` feeding ``build_neighborhood_graph``) for
  ``DegreeOneLCP`` at ``n = 4, 5`` in four regimes:

  - **baseline** — every perf cache disabled *and* graph families
    enumerated with the pre-optimization object-based algorithm; this is
    the seed-equivalent cost.
  - **serial_cold** — the optimized pipeline with all process-wide
    caches cleared first (what a fresh process pays).
  - **serial_warm** — the optimized pipeline again, caches populated
    (what every subsequent sweep in the same process pays).

  A **kernel** section compares the scalar sweep (``kernel="off"``)
  with the numpy batch kernel (:mod:`repro.kernel`, ``kernel="auto"``)
  on cold full sweeps,
  symmetry off and on: ``degree-one`` at ``n = 5, 6`` (decode-bound —
  the unanimity scan dominates, the kernel engages) and ``even-cycle``
  at ``n = 6, 7`` (generation-bound — the 16^n labeling space exceeds
  ``labeling_limit``, so there is no labeling pass to vectorize; those
  rows honestly record ``kernel_batches = 0`` with a note).  The scalar
  reference numbers are the symmetry section's own rows (same sweep,
  same repeats); every kernel row (regime ``vectorized_<mode>``, the
  historical name that keeps ``bench_history.jsonl`` keys joinable)
  records ``kernel``, ``numpy_version``, its speedup, and a
  view/edge/count parity check.  Without numpy the kernel rows are
  recorded as *skipped* with a note (mirroring the single-core
  ``sharded_parallel_N`` convention).

  A **generation** section targets the generation-bound path: the same
  cold symmetry-on sweeps for ``even-cycle`` at ``n = 6, 7`` with
  ``kernel="off"`` (scalar ``_build_level`` / ``min_edge_mask``
  reference) and ``kernel="auto"``, parity-checked down to the exact
  ``SymmetryAccount`` totals; plus a ``kernel_labeling_limit`` pair at
  ``n = 4`` showing the raised admission cap evaluating the 16^4
  labeling space the scalar route must refuse (same decision
  fingerprint; the row records kernel labelings evaluated and the
  ``labelings_per_sec`` gauge).  Without numpy the kernel rows are
  recorded as *skipped* with a note.

  A **sharding** section measures the sharded orderly sweep: per case a
  ``serial`` reference row, a ``sharded_serial`` row (subtree work units
  executed in-process — the pure shard-stage overhead), and
  ``sharded_parallel_N`` rows on the work-stealing process pool.
  Parallel rows run only on multi-core hosts (or under
  ``REPRO_FORCE_WORKERS``, with an honest note); on a single-core host
  they are recorded as *skipped* with a ``skip_reason``.  Every executed
  sharded row is parity-checked against the serial reference and records
  the ``shard_count`` / ``steal_count`` / ``shards_per_sec`` gauges.

  A **symmetry** section compares the unpruned sweep (``symmetry="off"``)
  with the automorphism-orbit-pruned one on cold full sweeps, both on
  orderly generation: ``degree-one`` at ``n = 5, 6``, ``even-cycle`` at
  ``n = 6, 7`` in both regimes, and ``even-cycle`` at ``n = 8``
  symmetry-on only, measured against the ``n = 7`` unpruned cost.
  Every row carries ``orbit_pruning_ratio``
  (``labelings_pruned / labelings_total``); regime pairs are
  parity-checked view-for-view, edge-for-edge, and count-for-count
  (suppressed orbit mates multiplied back in).

* ``BENCH_hiding.json`` — the hiding decision itself (early-exit vs
  full build) for ``DegreeOneLCP`` at ``n = 4, 5``:

  - **materialized_full** — a full sweep, ``ExecutionPlan(early_exit=False,
    kernel="off")``: all of ``V(D, n)`` is built, no early exit (the row
    keeps the name of the retired build-then-decide backend, so
    ``bench_history.jsonl`` stays continuous).
  - **streaming_cold** — the streaming engine with ``kernel="off"``, no
    warm start, no disk: the sweep exits at the first odd-walk witness.
  - **vectorized_cold** — the same early-exit decision on the streaming
    backend with ``kernel="auto"`` (skipped with a note when numpy is
    missing); records ``kernel`` and ``numpy_version``.
  - **streaming_warm_disk** — the streaming engine reading a populated
    ``.repro_cache/`` entry (what a re-run of the same experiment pays).

  Every streaming row is parity-checked against the full-sweep
  verdict (same hiding flag; the witness must be a genuine odd closed
  walk of adjacent views) before its numbers are recorded.

Every regime row records ``workers_effective`` — the worker count the
sweep can actually use (``min(workers, cpu_count)``) — so single-core
results are interpretable.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [output.json]
        [--hiding-output BENCH_hiding.json] [--early-exit]

``--early-exit`` is the CI smoke mode: a quick parity sweep of the engine
against the build-then-decide oracle (``hiding_verdict_from_instances``
on the complete graph) over every registry scheme (serial and 2-worker);
the exit status is nonzero on any parity failure.  ``--symmetry-smoke`` is
its symmetry sibling: orbit-pruned vs brute-force sweeps at ``n = 4``
for both Theorem 1.1 schemes.  Kernel-vs-scalar parity (decisions and
the orderly emission stream) is pinned by the pytest suite
(``tests/test_engine_plans.py``, ``tests/test_generation_kernel.py``).
``--shard-smoke`` gates the sharded sweep: merged shard emission must be
byte-identical to the serial orderly walk, and sharded decisions must
reproduce the serial fingerprints, instance counts, and
``SymmetryAccount`` totals for every registry scheme; with
``REPRO_FORCE_WORKERS`` set it also exercises the process-pool path.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core import DegreeOneLCP
from repro.core.even_cycle import EvenCycleLCP
from repro.core.registry import all_lcps, make_lcp
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.graphs.encoding import clear_canonical_cache
from repro.graphs.families import (
    clear_family_cache,
    enumerate_graphs_exactly_reference,
)
from repro.graphs.properties import is_odd_closed_walk
from repro.kernel import clear_kernel_tables, kernel_available, numpy_version
from repro.neighborhood import build_neighborhood_graph, labeled_yes_instances
from repro.neighborhood.aviews import yes_instances_up_to
from repro.neighborhood.hiding import hiding_verdict_from_instances
from repro.obs import RunReport, Tracer, sentinel, validate_report
from repro.perf import GLOBAL_STATS, PerfStats, clear_shared_caches, overridden
from repro.symmetry import (
    SymmetryAccount,
    clear_automorphism_cache,
    clear_orderly_cache,
)

REPEATS = 5

#: Repeats for the symmetry-regime comparison (cold full sweeps at
#: n = 6..8 are expensive; two repeats bound the noise well enough for
#: order-of-magnitude speedups).
SYMMETRY_REPEATS = 2

#: (scheme, n, modes) for the symmetry comparison.  Degree-one stops at
#: n = 6 — its n = 7 symmetry-off sweep enumerates hundreds of millions
#: of labelings and is not benchmarkable.  Even-cycle's n = 8 runs
#: symmetry-on only, the row's historical shape.
SYMMETRY_CASES = [
    ("degree-one", 5, ("off", "on")),
    ("degree-one", 6, ("off", "on")),
    ("even-cycle", 6, ("off", "on")),
    ("even-cycle", 7, ("off", "on")),
    ("even-cycle", 8, ("on",)),
]

#: Repeats for the batch-kernel rows (cold sweeps, same protocol as
#: the symmetry section whose rows serve as the scalar reference).
KERNEL_REPEATS = SYMMETRY_REPEATS

#: (scheme, n, modes) for the kernel comparison.  Each case must also
#: appear (same scheme, n, modes) in :data:`SYMMETRY_CASES` — the
#: symmetry rows are the scalar side of the comparison.  ``degree-one``
#: is the decode-bound workload where the unanimity scan dominates and
#: the kernel engages; ``even-cycle`` is generation-bound — its 16^n
#: labeling space exceeds ``labeling_limit``, so the Lemma 3.1 sweep has
#: no exhaustive labeling pass to vectorize and the kernel rows honestly
#: show ``kernel_batches = 0`` and ~1x (noted per row).
KERNEL_CASES = [
    ("degree-one", 5, ("off", "on")),
    ("degree-one", 6, ("off", "on")),
    ("even-cycle", 6, ("off", "on")),
    ("even-cycle", 7, ("off", "on")),
]

#: Repeats for the generation-kernel rows (same cold-sweep protocol).
GENERATION_REPEATS = SYMMETRY_REPEATS

#: (scheme, n) for the generation-kernel comparison.  Even-cycle is the
#: generation-bound workload: its 16^n labeling spaces exceed
#: ``labeling_limit``, so the cold sweep's wall time is dominated by
#: orderly generation and emission canonicalization — exactly what the
#: batched canonicalization kernel accelerates.
GENERATION_CASES = [
    ("even-cycle", 6),
    ("even-cycle", 7),
]

#: Raised labeling admission for the kernel_labeling_limit row: 16^4 =
#: 65,536 even-cycle labelings, 3.3x over the scalar 20,000 cap.
RAISED_LABELING_LIMIT = 70_000

#: Streaming plans for the timed regimes: the in-process memo tier is off
#: so every repeat pays the honest sweep/reload cost, not a dict lookup.
#: ``kernel="off"``: these are the scalar counterparts of the
#: ``vectorized_cold`` row.
STREAM_COLD = ExecutionPlan(
    backend="streaming",
    kernel="off",
    warm_start=False,
    disk_cache=False,
    memory_cache=False,
)
STREAM_DISK = ExecutionPlan(
    backend="streaming",
    kernel="off",
    warm_start=False,
    disk_cache=True,
    memory_cache=False,
)
MAT_PLAN = ExecutionPlan(
    early_exit=False,
    kernel="off",
    warm_start=False,
    disk_cache=False,
    memory_cache=False,
)


def _clear_everything() -> None:
    clear_shared_caches()
    clear_family_cache()
    clear_canonical_cache()
    clear_automorphism_cache()
    clear_orderly_cache()
    clear_engine_state()
    GLOBAL_STATS.reset()


def _reference_graphs_up_to(n: int):
    for k in range(1, n + 1):
        yield from enumerate_graphs_exactly_reference(k, connected_only=True)


def _timed(fn):
    """Best-of-REPEATS wall time plus the last run's result."""
    times = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.mean(times), result


def _account_into_stats(stats: PerfStats, account: SymmetryAccount) -> None:
    """Mirror the engine's bookkeeping: fold suppressed instances and the
    pruning tallies into the row's stats so ``_record`` can report the
    orbit-pruning ratio of every regime."""
    if account.labelings_total:
        stats.incr("symmetry_labelings_total", account.labelings_total)
    if account.labelings_pruned:
        stats.incr("symmetry_labelings_pruned", account.labelings_pruned)
    if account.bases_pruned:
        stats.incr("symmetry_bases_pruned", account.bases_pruned)
    if account.instances_suppressed:
        stats.incr("instances_scanned", account.instances_suppressed)
        stats.incr("symmetry_instances_suppressed", account.instances_suppressed)


def _sweep_serial(lcp, n, stats, tracer=None):
    account = SymmetryAccount()
    graph = build_neighborhood_graph(
        lcp,
        yes_instances_up_to(lcp, n, account=account),
        stats=stats,
        tracer=tracer,
    )
    _account_into_stats(stats, account)
    return graph


def _sweep_baseline(lcp, n, stats, tracer=None):
    # Seed-equivalent: reference family enumeration, no perf caches.
    account = SymmetryAccount()
    instances = labeled_yes_instances(
        lcp, _reference_graphs_up_to(n), id_bound=n, account=account
    )
    graph = build_neighborhood_graph(lcp, instances, stats=stats, tracer=tracer)
    _account_into_stats(stats, account)
    return graph


def _sweep_symmetry(lcp, n, mode, stats, tracer=None, kernel="off"):
    """One cold full Lemma 3.1 sweep in the given symmetry regime.

    Suppressed orbit mates are folded back into ``instances_scanned``
    (exactly as the engine backends do), so regime rows are directly
    comparable instance-for-instance.  With ``kernel="auto"`` the
    unanimity scan and orderly generation run through the numpy kernels
    instead of the scalar loops — same stream, same accounts."""
    account = SymmetryAccount()
    with overridden(kernel=kernel):
        graph = build_neighborhood_graph(
            lcp,
            yes_instances_up_to(
                lcp,
                n,
                include_all_accepted_labelings=True,
                symmetry=mode,
                account=account,
                stats=stats,
            ),
            stats=stats,
            tracer=tracer,
        )
    graph.instances_scanned += account.instances_suppressed
    _account_into_stats(stats, account)
    return graph


def _traced_sweep_report(regime: str, n: int, build_fn) -> str:
    """One extra traced (untimed) run of a regime's build; returns the
    run-report path attached to that regime's benchmark row."""
    tracer = Tracer()
    stats = PerfStats()
    with tracer.span("benchmark", benchmark="neighborhood_pipeline",
                     regime=regime, n=n):
        graph = build_fn(stats, tracer)
    report = RunReport.from_run(
        tracer=tracer,
        stats=stats,
        n=n,
        meta={
            "kind": "benchmark",
            "benchmark": "neighborhood_pipeline",
            "regime": regime,
            "views": graph.order,
            "edges": graph.size,
            "instances_scanned": graph.instances_scanned,
        },
    )
    return str(report.write())


def _traced_hiding_report(lcp, n, plan, regime: str) -> str:
    """One extra traced (untimed) hiding decision; returns the report path."""
    tracer = Tracer()
    ctx = RunContext.observed(tracer)
    verdict = decide_hiding(lcp, n, plan, ctx=ctx)
    report = RunReport.from_run(
        tracer=tracer,
        metrics=ctx.metrics,
        stats=ctx.stats,
        verdict=verdict,
        plan=plan,
        scheme=lcp.name,
        n=n,
        meta={"kind": "benchmark", "benchmark": "hiding_engine", "regime": regime},
    )
    return str(report.write())


def _pruning_ratio(stats: PerfStats) -> float:
    """``labelings_pruned / labelings_total`` for this row (0.0 when the
    regime enumerated no labelings or pruned nothing)."""
    total = stats.get("symmetry_labelings_total")
    if not total:
        return 0.0
    return round(stats.get("symmetry_labelings_pruned") / total, 4)


def _record(name, n, best, mean, graph, stats, reference=None, workers=None):
    cpus = os.cpu_count() or 1
    entry = {
        "regime": name,
        "n": n,
        "seconds_best": round(best, 6),
        "seconds_mean": round(mean, 6),
        "workers_effective": min(workers, cpus) if workers else 1,
        "views": len(graph.views),
        "edges": len(graph.edges),
        "instances_scanned": graph.instances_scanned,
        "views_per_sec": round(graph.instances_scanned / best, 1) if best else None,
        "memo_hit_rate": round(stats.hit_rate("memo") or 0.0, 4),
        "layout_hit_rate": round(stats.hit_rate("layout") or 0.0, 4),
        "orbit_pruning_ratio": _pruning_ratio(stats),
    }
    if reference is not None:
        entry["parity_with_baseline"] = (
            graph.views == reference.views and graph.edges == reference.edges
        )
    return entry


def run(n: int) -> list[dict]:
    lcp = DegreeOneLCP()
    rows = []

    # Baseline and cold repeats are interleaved so slow drift in machine
    # load hits both regimes equally instead of skewing the ratio.
    baseline_times: list[float] = []
    cold_times: list[float] = []
    baseline = cold_graph = None
    baseline_stats = PerfStats()
    cold_stats = PerfStats()
    for _ in range(REPEATS):
        with overridden(
            layout_cache=False,
            decision_memo=False,
            family_cache=False,
            canonical_cache=False,
        ):
            _clear_everything()
            baseline_stats.reset()
            start = time.perf_counter()
            baseline = _sweep_baseline(lcp, n, baseline_stats)
            baseline_times.append(time.perf_counter() - start)
        # Cold: clear before every repeat so each run pays full cost.
        _clear_everything()
        cold_stats.reset()
        start = time.perf_counter()
        cold_graph = _sweep_serial(lcp, n, cold_stats)
        cold_times.append(time.perf_counter() - start)
    rows.append(
        _record(
            "baseline",
            n,
            min(baseline_times),
            statistics.mean(baseline_times),
            baseline,
            baseline_stats,
        )
    )
    with overridden(
        layout_cache=False,
        decision_memo=False,
        family_cache=False,
        canonical_cache=False,
    ):
        _clear_everything()
        rows[-1]["report"] = _traced_sweep_report(
            "baseline", n, lambda stats, tracer: _sweep_baseline(lcp, n, stats, tracer)
        )
    rows.append(
        _record(
            "serial_cold",
            n,
            min(cold_times),
            statistics.mean(cold_times),
            cold_graph,
            cold_stats,
            reference=baseline,
        )
    )
    _clear_everything()
    rows[-1]["report"] = _traced_sweep_report(
        "serial_cold", n, lambda stats, tracer: _sweep_serial(lcp, n, stats, tracer)
    )

    warm_stats = PerfStats()
    best, mean, warm_graph = _timed(lambda: _sweep_serial(lcp, n, warm_stats))
    rows.append(
        _record("serial_warm", n, best, mean, warm_graph, warm_stats, reference=baseline)
    )
    rows[-1]["report"] = _traced_sweep_report(
        "serial_warm", n, lambda stats, tracer: _sweep_serial(lcp, n, stats, tracer)
    )

    return rows


# ----------------------------------------------------------------------
# The symmetry benchmark: orbit pruning vs the unpruned sweep
# ----------------------------------------------------------------------


def run_symmetry(graph_sink: dict | None = None) -> dict:
    """Cold full sweeps per :data:`SYMMETRY_CASES`, symmetry-off vs -on.

    Parity between the regimes of one (scheme, n) case means: identical
    view list, identical edge set, and identical effective
    ``instances_scanned`` (suppressed orbit mates multiplied back in).
    The ``("even-cycle", 8)`` symmetry-on row has no off-regime partner
    and is instead compared against the n = 7 unpruned cost.

    With *graph_sink*, the final graph of every regime is stashed under
    ``(scheme, n, mode)`` so the kernel section can parity-check its
    vectorized sweeps against these scalar ones without re-running them.
    """
    rows = []
    for scheme, n, modes in SYMMETRY_CASES:
        lcp = make_lcp(scheme)
        graphs = {}
        for mode in modes:
            times = []
            graph = None
            stats = PerfStats()
            for _ in range(SYMMETRY_REPEATS):
                _clear_everything()
                stats.reset()
                start = time.perf_counter()
                graph = _sweep_symmetry(lcp, n, mode, stats)
                times.append(time.perf_counter() - start)
            graphs[mode] = graph
            if graph_sink is not None:
                graph_sink[(scheme, n, mode)] = graph
            print(
                f"  symmetry {scheme} n={n} {mode}: {min(times):.2f}s",
                file=sys.stderr,
            )
            row = _record(f"symmetry_{mode}", n, min(times),
                          statistics.mean(times), graph, stats)
            row["scheme"] = scheme
            rows.append(row)
        if "off" in graphs and "on" in graphs:
            off, on = graphs["off"], graphs["on"]
            parity = (
                off.views == on.views
                and off.edges == on.edges
                and off.instances_scanned == on.instances_scanned
            )
            off_row = next(
                r for r in rows
                if r["scheme"] == scheme and r["n"] == n
                and r["regime"] == "symmetry_off"
            )
            on_row = rows[-1]
            on_row["parity_with_off"] = parity
            on_row["speedup_vs_off"] = round(
                off_row["seconds_best"] / on_row["seconds_best"], 3
            )
    by_key = {(r["scheme"], r["n"], r["regime"]): r for r in rows}
    n7_off = by_key.get(("even-cycle", 7, "symmetry_off"))
    n8_on = by_key.get(("even-cycle", 8, "symmetry_on"))
    return {
        "repeats": SYMMETRY_REPEATS,
        "rows": rows,
        "parity_ok": all(r.get("parity_with_off", True) for r in rows),
        "speedup_n6": {
            scheme: by_key[(scheme, 6, "symmetry_on")]["speedup_vs_off"]
            for scheme in ("degree-one", "even-cycle")
            if (scheme, 6, "symmetry_on") in by_key
        },
        "n8_on_seconds": n8_on["seconds_best"] if n8_on else None,
        "old_n7_off_seconds": n7_off["seconds_best"] if n7_off else None,
        "n8_on_under_old_n7": (
            n8_on["seconds_best"] < n7_off["seconds_best"]
            if n8_on and n7_off
            else None
        ),
    }


def smoke_symmetry() -> int:
    """CI smoke: orbit-pruned vs brute-force sweeps must agree exactly
    (views, edges, effective instance counts) for both Theorem 1.1
    schemes at n = 4; nonzero exit on any divergence."""
    failures = 0
    for scheme in ("degree-one", "even-cycle"):
        lcp = make_lcp(scheme)
        graphs = {}
        for mode in ("off", "on"):
            _clear_everything()
            graphs[mode] = _sweep_symmetry(lcp, 4, mode, PerfStats())
        off, on = graphs["off"], graphs["on"]
        checks = {
            "views": off.views == on.views,
            "edges": off.edges == on.edges,
            "instances_scanned": off.instances_scanned == on.instances_scanned,
        }
        if all(checks.values()):
            print(f"symmetry smoke: {scheme} n=4 parity OK", file=sys.stderr)
        else:
            failures += 1
            bad = [name for name, ok in checks.items() if not ok]
            print(
                f"SYMMETRY PARITY FAILURE: {scheme} n=4: {', '.join(bad)} differ",
                file=sys.stderr,
            )
    if failures:
        return 1
    print("symmetry smoke: all parity checks passed", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# The kernel benchmark: batch-kernel sweep vs the scalar loops
# ----------------------------------------------------------------------


def run_kernel(symmetry: dict, symmetry_graphs: dict) -> dict:
    """Batch-kernel sweeps per :data:`KERNEL_CASES`.

    Each kernel row is the *same* cold sweep as the symmetry
    section's ``symmetry_{mode}`` row for that (scheme, n) — only the
    inner unanimity scan runs through :mod:`repro.kernel` — so the
    symmetry rows double as the scalar reference: ``speedup_vs_streaming``
    divides their ``seconds_best``, and parity compares views, edges,
    and effective instance counts against the stashed scalar graphs.
    Rows whose sweep never reaches the labeling pass (generation-bound
    cases) are kept with ``kernel_batches = 0`` and an explanatory note.
    Without numpy every row is recorded as skipped with a note.
    """
    rows = []
    have_numpy = kernel_available()
    for scheme, n, modes in KERNEL_CASES:
        lcp = make_lcp(scheme)
        for mode in modes:
            if not have_numpy:
                rows.append(
                    {
                        "regime": f"vectorized_{mode}",
                        "scheme": scheme,
                        "n": n,
                        "skipped": True,
                        "skip_reason": "numpy_unavailable",
                        "cpu_count": os.cpu_count() or 1,
                        "note": (
                            "numpy not importable: the batch kernel "
                            "is unavailable (install it via "
                            "`pip install -e .[fast]`)"
                        ),
                        "workers_effective": 1,
                    }
                )
                continue
            ref_row = next(
                r
                for r in symmetry["rows"]
                if r["scheme"] == scheme
                and r["n"] == n
                and r["regime"] == f"symmetry_{mode}"
            )
            times = []
            graph = None
            stats = PerfStats()
            for _ in range(KERNEL_REPEATS):
                _clear_everything()
                clear_kernel_tables()
                stats.reset()
                start = time.perf_counter()
                graph = _sweep_symmetry(lcp, n, mode, stats, kernel="auto")
                times.append(time.perf_counter() - start)
            print(
                f"  kernel {scheme} n={n} {mode}: {min(times):.2f}s "
                f"(scalar {ref_row['seconds_best']:.2f}s)",
                file=sys.stderr,
            )
            row = _record(
                f"vectorized_{mode}", n, min(times), statistics.mean(times),
                graph, stats,
            )
            row["scheme"] = scheme
            row["kernel"] = "batch"
            row["numpy_version"] = numpy_version()
            row["kernel_batches"] = stats.get("kernel_batches")
            row["kernel_labelings"] = stats.get("kernel_labelings")
            if not row["kernel_batches"]:
                row["note"] = (
                    "kernel never engaged: this sweep is generation-bound "
                    "(the labeling space exceeds labeling_limit, so there "
                    "is no exhaustive labeling pass to vectorize)"
                )
            reference = symmetry_graphs[(scheme, n, mode)]
            row["parity_with_scalar"] = (
                graph.views == reference.views
                and graph.edges == reference.edges
                and graph.instances_scanned == reference.instances_scanned
            )
            row["speedup_vs_streaming"] = round(
                ref_row["seconds_best"] / min(times), 3
            )
            rows.append(row)
    by_key = {(r["scheme"], r["n"], r["regime"]): r for r in rows}

    def _speedup(scheme, n, mode):
        row = by_key.get((scheme, n, f"vectorized_{mode}"))
        return row.get("speedup_vs_streaming") if row else None

    return {
        "repeats": KERNEL_REPEATS,
        "numpy_version": numpy_version(),
        "scalar_reference": "symmetry section rows (same sweep, same repeats)",
        "rows": rows,
        "parity_ok": all(r.get("parity_with_scalar", True) for r in rows),
        "kernel_engaged_rows": sum(
            1 for r in rows if r.get("kernel_batches")
        ),
        "speedup_degree_one_n6_off": _speedup("degree-one", 6, "off"),
        "speedup_degree_one_n6_on": _speedup("degree-one", 6, "on"),
        "speedup_even_cycle_n6_off": _speedup("even-cycle", 6, "off"),
        "speedup_even_cycle_n7_off": _speedup("even-cycle", 7, "off"),
    }


#: SymmetryAccount counters _account_into_stats mirrors into row stats;
#: generation-kernel regime pairs must reconcile all of them exactly.
_ACCOUNT_COUNTERS = (
    "symmetry_labelings_total",
    "symmetry_labelings_pruned",
    "symmetry_bases_pruned",
    "symmetry_instances_suppressed",
)


def run_generation() -> dict:
    """Generation-kernel sweeps per :data:`GENERATION_CASES`.

    Each (scheme, n) runs the same cold symmetry-on full sweep twice —
    ``generation_off`` forces the scalar ``_build_level`` /
    ``min_edge_mask`` reference, ``generation_on`` routes orderly
    generation and emission through the batched canonicalization kernel
    (:mod:`repro.kernel.generate`).  Parity demands identical views,
    edges, effective instance counts, *and* identical
    :class:`SymmetryAccount` totals (labelings total/pruned, bases
    pruned, instances suppressed) — the kernel may only change wall
    time.  Each row records the sweep's canonicalization count and
    throughput (the ``canonicalizations_per_sec`` gauge of the run).

    A final pair of rows demonstrates the raised admission cap: the
    even-cycle n = 4 decision with the default 20,000 ``labeling_limit``
    (the exhaustive unanimity pass refuses the 16^4 = 65,536 space)
    against ``kernel_labeling_limit = 70,000`` (the batch kernel affords
    it); the raised row records the kernel labelings actually evaluated
    and must reach the same decision fingerprint.  Without numpy the
    kernel rows are recorded as skipped with a note.
    """
    rows = []
    have_numpy = kernel_available()
    account_parity = True
    for scheme, n in GENERATION_CASES:
        lcp = make_lcp(scheme)
        results = {}
        for mode in ("off", "on"):
            if mode == "on" and not have_numpy:
                rows.append(
                    {
                        "regime": "generation_on",
                        "scheme": scheme,
                        "n": n,
                        "skipped": True,
                        "skip_reason": "numpy_unavailable",
                        "cpu_count": os.cpu_count() or 1,
                        "note": (
                            "numpy not importable: the generation kernel "
                            "is unavailable (install it via "
                            "`pip install -e .[fast]`)"
                        ),
                        "workers_effective": 1,
                    }
                )
                continue
            times = []
            graph = None
            stats = PerfStats()
            for _ in range(GENERATION_REPEATS):
                _clear_everything()
                clear_kernel_tables()
                stats.reset()
                start = time.perf_counter()
                graph = _sweep_symmetry(
                    lcp, n, "on", stats, kernel="off" if mode == "off" else "auto"
                )
                times.append(time.perf_counter() - start)
            best = min(times)
            canon = GLOBAL_STATS.get("canonicalizations")
            print(
                f"  generation {scheme} n={n} {mode}: {best:.2f}s "
                f"({canon} canonicalizations)",
                file=sys.stderr,
            )
            row = _record(
                f"generation_{mode}", n, best, statistics.mean(times),
                graph, stats,
            )
            row["scheme"] = scheme
            row["canonicalizations"] = canon
            row["canonicalizations_per_sec"] = (
                round(canon / best, 1) if best and canon else None
            )
            row["orderly_levels_vectorized"] = GLOBAL_STATS.get(
                "orderly_levels_vectorized"
            )
            if mode == "on":
                row["numpy_version"] = numpy_version()
            results[mode] = (graph, row, stats)
            rows.append(row)
        if len(results) == 2:
            off_graph, off_row, off_stats = results["off"]
            on_graph, on_row, on_stats = results["on"]
            accounts_equal = all(
                off_stats.get(c) == on_stats.get(c) for c in _ACCOUNT_COUNTERS
            )
            account_parity = account_parity and accounts_equal
            on_row["parity_with_scalar"] = (
                on_graph.views == off_graph.views
                and on_graph.edges == off_graph.edges
                and on_graph.instances_scanned == off_graph.instances_scanned
                and accounts_equal
            )
            on_row["account_reconciled"] = accounts_equal
            on_row["speedup_vs_scalar"] = round(
                off_row["seconds_best"] / on_row["seconds_best"], 3
            )

    # The raised-admission demonstration: same question, same decision,
    # but only the kernel_labeling_limit row pays (and can afford) the
    # exhaustive 16^4 unanimity pass.
    raised_fp = {}
    for regime, raised in (
        ("labeling_default_cap", None),
        ("labeling_kernel_raised", RAISED_LABELING_LIMIT),
    ):
        if not have_numpy:
            rows.append(
                {
                    "regime": regime,
                    "scheme": "even-cycle",
                    "n": 4,
                    "skipped": True,
                    "skip_reason": "numpy_unavailable",
                    "cpu_count": os.cpu_count() or 1,
                    "note": (
                        "numpy not importable: the batch kernel is "
                        "unavailable, and kernel_labeling_limit only "
                        "raises the cap where the batch kernel actually "
                        "evaluates the space"
                    ),
                    "workers_effective": 1,
                }
            )
            continue
        _clear_everything()
        clear_kernel_tables()
        stats = PerfStats()
        plan = ExecutionPlan(
            backend="streaming",
            kernel="auto",
            workers=0,
            early_exit=False,
            warm_start=False,
            memory_cache=False,
            disk_cache=False,
            kernel_labeling_limit=raised,
        )
        start = time.perf_counter()
        verdict = decide_hiding(
            EvenCycleLCP(), 4, plan, ctx=RunContext(stats=stats)
        )
        elapsed = time.perf_counter() - start
        row = {
            "regime": regime,
            "scheme": "even-cycle",
            "n": 4,
            "seconds_best": round(elapsed, 6),
            "workers_effective": 1,
            "views": verdict.ngraph.order,
            "edges": verdict.ngraph.size,
            "instances_scanned": verdict.provenance.instances_scanned,
            "kernel_labeling_limit": raised,
            "kernel_labelings": stats.get("kernel_labelings"),
            "labelings_per_sec": verdict.provenance.labelings_per_sec,
        }
        raised_fp[regime] = verdict.decision_fingerprint()
        rows.append(row)
        print(
            f"  generation even-cycle n=4 {regime}: {elapsed:.3f}s "
            f"({row['kernel_labelings']} kernel labelings)",
            file=sys.stderr,
        )
    if len(raised_fp) == 2:
        for row in rows:
            if row["regime"] == "labeling_kernel_raised":
                row["parity_with_scalar"] = (
                    raised_fp["labeling_kernel_raised"]
                    == raised_fp["labeling_default_cap"]
                )

    by_key = {(r["scheme"], r["n"], r["regime"]): r for r in rows}

    def _speedup(scheme, n):
        row = by_key.get((scheme, n, "generation_on"))
        return row.get("speedup_vs_scalar") if row else None

    raised_row = by_key.get(("even-cycle", 4, "labeling_kernel_raised"), {})
    return {
        "repeats": GENERATION_REPEATS,
        "numpy_version": numpy_version(),
        "rows": rows,
        "parity_ok": all(r.get("parity_with_scalar", True) for r in rows),
        "account_reconciled": account_parity,
        "speedup_even_cycle_n6": _speedup("even-cycle", 6),
        "speedup_even_cycle_n7": _speedup("even-cycle", 7),
        "raised_limit_kernel_labelings": raised_row.get("kernel_labelings"),
    }


# ----------------------------------------------------------------------
# The hiding benchmark: early exit vs full build, plus the disk cache
# ----------------------------------------------------------------------


def _hiding_parity(streamed, materialized) -> bool:
    """Streamed engine verdict must agree with the materialized one; a
    hiding witness must be a genuine odd closed walk in the streamed
    graph, and the provenance must name the streaming backend."""
    if streamed.provenance.backend != "streaming":
        return False
    if streamed.hiding != materialized.hiding:
        return False
    if streamed.hiding and streamed.witness is not None:
        g = streamed.ngraph
        walk = [g.index[view] for view in streamed.witness]
        return is_odd_closed_walk(g.to_graph(), walk)
    return True


def run_hiding(n: int) -> list[dict]:
    lcp = DegreeOneLCP()
    rows = []

    mat_times = []
    mat = None
    for _ in range(REPEATS):
        _clear_everything()
        start = time.perf_counter()
        mat = decide_hiding(lcp, n, MAT_PLAN)
        mat_times.append(time.perf_counter() - start)
    rows.append(
        {
            "regime": "materialized_full",
            "n": n,
            "seconds_best": round(min(mat_times), 6),
            "seconds_mean": round(statistics.mean(mat_times), 6),
            "workers_effective": 1,
            "hiding": mat.hiding,
            "views": len(mat.ngraph.views),
            "edges": len(mat.ngraph.edges),
            "instances_scanned": mat.ngraph.instances_scanned,
        }
    )
    _clear_everything()
    rows[-1]["report"] = _traced_hiding_report(lcp, n, MAT_PLAN, "materialized_full")

    cold_times = []
    streamed = None
    stats = PerfStats()
    for _ in range(REPEATS):
        _clear_everything()
        stats.reset()
        start = time.perf_counter()
        streamed = decide_hiding(lcp, n, STREAM_COLD, ctx=RunContext(stats=stats))
        cold_times.append(time.perf_counter() - start)
    rows.append(
        {
            "regime": "streaming_cold",
            "n": n,
            "seconds_best": round(min(cold_times), 6),
            "seconds_mean": round(statistics.mean(cold_times), 6),
            "workers_effective": 1,
            "hiding": streamed.hiding,
            "views": len(streamed.ngraph.views),
            "edges": len(streamed.ngraph.edges),
            "instances_scanned": streamed.ngraph.instances_scanned,
            "early_exits": stats.get("streaming_early_exits"),
            "orbit_pruning_ratio": _pruning_ratio(stats),
            "symmetry_pruned": streamed.provenance.symmetry_pruned,
            "parity_with_materialized": _hiding_parity(streamed, mat),
            "early_exit_speedup": round(min(mat_times) / min(cold_times), 3),
        }
    )
    _clear_everything()
    rows[-1]["report"] = _traced_hiding_report(lcp, n, STREAM_COLD, "streaming_cold")

    if not kernel_available():
        rows.append(
            {
                "regime": "vectorized_cold",
                "n": n,
                "skipped": True,
                "skip_reason": "numpy_unavailable",
                "cpu_count": os.cpu_count() or 1,
                "note": (
                    "numpy not importable: the batch kernel is "
                    "unavailable (install it via `pip install -e .[fast]`)"
                ),
                "workers_effective": 1,
            }
        )
    else:
        vec_plan = ExecutionPlan(
            backend="streaming",
            kernel="auto",
            warm_start=False,
            disk_cache=False,
            memory_cache=False,
        )
        vec_times = []
        vec = None
        vec_stats = PerfStats()
        for _ in range(REPEATS):
            _clear_everything()
            clear_kernel_tables()
            vec_stats.reset()
            start = time.perf_counter()
            vec = decide_hiding(lcp, n, vec_plan, ctx=RunContext(stats=vec_stats))
            vec_times.append(time.perf_counter() - start)
        rows.append(
            {
                "regime": "vectorized_cold",
                "n": n,
                "seconds_best": round(min(vec_times), 6),
                "seconds_mean": round(statistics.mean(vec_times), 6),
                "workers_effective": 1,
                "hiding": vec.hiding,
                "views": len(vec.ngraph.views),
                "edges": len(vec.ngraph.edges),
                "instances_scanned": vec.ngraph.instances_scanned,
                "early_exits": vec_stats.get("streaming_early_exits"),
                "kernel": "batch",
                "numpy_version": numpy_version(),
                "kernel_batches": vec_stats.get("kernel_batches"),
                "parity_with_materialized": _hiding_parity(vec, mat),
                "speedup_vs_streaming_cold": round(
                    min(cold_times) / min(vec_times), 3
                ),
            }
        )
        _clear_everything()
        rows[-1]["report"] = _traced_hiding_report(
            lcp, n, vec_plan, "vectorized_cold"
        )

    # Populate the disk entry once (untimed), then measure pure reloads
    # (the plan's memory tier is off, so every repeat reads the disk).
    _clear_everything()
    decide_hiding(lcp, n, STREAM_DISK)
    warm_times = []
    warm = None
    warm_stats = PerfStats()
    for _ in range(REPEATS):
        warm_stats.reset()
        start = time.perf_counter()
        warm = decide_hiding(lcp, n, STREAM_DISK, ctx=RunContext(stats=warm_stats))
        warm_times.append(time.perf_counter() - start)
    rows.append(
        {
            "regime": "streaming_warm_disk",
            "n": n,
            "seconds_best": round(min(warm_times), 6),
            "seconds_mean": round(statistics.mean(warm_times), 6),
            "workers_effective": 1,
            "hiding": warm.hiding,
            "views": len(warm.ngraph.views),
            "edges": len(warm.ngraph.edges),
            "disk_hits": warm_stats.get("disk_hits"),
            "parity_with_materialized": _hiding_parity(warm, mat),
            "disk_speedup_vs_cold": round(min(cold_times) / min(warm_times), 3),
        }
    )
    rows[-1]["report"] = _traced_hiding_report(
        lcp, n, STREAM_DISK, "streaming_warm_disk"
    )
    return rows


def smoke_early_exit(trace_out: str | None = None) -> int:
    """CI smoke: engine-vs-oracle parity across registry schemes, serial
    and 2-worker; returns a nonzero exit status on any mismatch.

    With *trace_out*, the whole smoke runs traced and emits a validated
    run report (one ``decide_hiding`` span subtree per check) — CI
    uploads it as an artifact and schema-checks it on the spot."""
    tracer = Tracer() if trace_out is not None else None
    ctx = RunContext.observed(tracer) if tracer is not None else RunContext.default()
    failures = []
    checks = 0

    def sweep() -> None:
        nonlocal checks
        for name, lcp in all_lcps().items():
            for n in (3, 4):
                _clear_everything()
                mat = hiding_verdict_from_instances(
                    lcp,
                    yes_instances_up_to(lcp, n, include_all_accepted_labelings=True),
                    exhaustive=True,
                )
                for workers in (1, 2):
                    plan = ExecutionPlan(
                        backend="streaming",
                        workers=workers,
                        warm_start=False,
                        disk_cache=False,
                        memory_cache=False,
                    )
                    streamed = decide_hiding(lcp, n, plan, ctx=ctx)
                    checks += 1
                    if not _hiding_parity(streamed, mat):
                        failures.append((name, n, workers))
                        print(
                            f"PARITY FAILURE: {name} n={n} workers={workers}: "
                            f"streaming={streamed.hiding} "
                            f"oracle={mat.hiding}",
                            file=sys.stderr,
                        )

    if tracer is not None:
        with tracer.span("early-exit-smoke"):
            sweep()
        report = RunReport.from_run(
            tracer=tracer,
            metrics=ctx.metrics,
            stats=ctx.stats,
            meta={
                "kind": "smoke",
                "checks": checks,
                "failures": [list(f) for f in failures],
            },
        )
        errors = validate_report(report.payload)
        path = report.write(path=trace_out)
        print(f"smoke run report written to {trace_out} ({path})", file=sys.stderr)
        if errors:
            for error in errors:
                print(f"INVALID REPORT: {error}", file=sys.stderr)
            return 1
    else:
        sweep()
    if failures:
        print(f"{len(failures)} parity failure(s)", file=sys.stderr)
        return 1
    print("early-exit smoke: all parity checks passed", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parameter frontier (campaign layer)
# ----------------------------------------------------------------------

#: The tracked frontier campaign: both Theorem 1.1 schemes, the k axis
#: next to the native k=2, n small enough for sub-second cells.
FRONTIER_SCHEMES = ("degree-one", "even-cycle")
FRONTIER_N_MAX = 5
FRONTIER_K_VALUES = (2, 3)


def _frontier_spec():
    from repro.campaign import CampaignSpec  # noqa: PLC0415

    return CampaignSpec.sweep(
        FRONTIER_SCHEMES,
        n_max=FRONTIER_N_MAX,
        n_min=3,
        k_values=FRONTIER_K_VALUES,
        plan=ExecutionPlan(disk_cache=False),
    )


def run_frontier() -> dict:
    """Benchmark the campaign explorer: one cold pass (every cell swept)
    and one warm pass (every cell memo-served) over the tracked frontier
    campaign, so the explorer's cells/sec throughput becomes a tracked
    ``BENCH_*.json`` trajectory.  The emitted frontier report is
    schema-validated in-process; ``valid`` folds into the payload's
    ``parity_ok`` gate."""
    from repro.campaign import (  # noqa: PLC0415
        build_frontier_report,
        run_campaign,
        validate_frontier_report,
    )

    spec = _frontier_spec()
    _clear_everything()
    cold = run_campaign(spec)
    warm = run_campaign(spec)
    report = build_frontier_report(cold)
    errors = validate_frontier_report(report.payload)
    summary = report.payload["summary"]
    rows = [
        {
            "regime": "frontier_cold",
            "cells": len(cold.results),
            "errors": len(cold.errors),
            "seconds": round(cold.wall_time_s, 6),
            "cells_per_sec": (
                None if cold.cells_per_sec is None else round(cold.cells_per_sec, 3)
            ),
        },
        {
            "regime": "frontier_warm",
            "cells": len(warm.results),
            "errors": len(warm.errors),
            "seconds": round(warm.wall_time_s, 6),
            "cells_per_sec": (
                None if warm.cells_per_sec is None else round(warm.cells_per_sec, 3)
            ),
        },
    ]
    return {
        "schemes": list(FRONTIER_SCHEMES),
        "n_max": FRONTIER_N_MAX,
        "k_values": list(FRONTIER_K_VALUES),
        "rows": rows,
        "flips": summary["flips"],
        "flips_by_axis": summary["flips_by_axis"],
        "report_digest": report.digest,
        "valid": not errors,
        "validation_errors": errors,
    }


def smoke_frontier() -> int:
    """CI smoke for ``--frontier-smoke``: run the tiny tracked campaign
    (2 schemes × n ≤ 5 × 2 values of k), schema-validate the frontier
    report, and require at least one verdict flip.  Runs identically in
    the numpy and no-numpy legs — the auto backend degrades to the
    scalar streaming route without numpy, and verdicts are backend-
    independent."""
    from repro.campaign import (  # noqa: PLC0415
        build_frontier_report,
        run_campaign,
        validate_frontier_report,
    )

    _clear_everything()
    run = run_campaign(_frontier_spec())
    report = build_frontier_report(run)
    errors = validate_frontier_report(report.payload)
    summary = report.payload["summary"]
    print(
        f"frontier smoke: {summary['cells']} cells, "
        f"{summary['errors']} errors, {summary['flips']} flips "
        f"{summary['flips_by_axis']}",
        file=sys.stderr,
    )
    if errors:
        for error in errors:
            print(f"INVALID FRONTIER REPORT: {error}", file=sys.stderr)
        return 1
    if run.errors:
        for result in run.errors:
            print(
                f"CELL ERROR: {result.cell.label()}: {result.error}",
                file=sys.stderr,
            )
        return 1
    if summary["flips"] == 0:
        print(
            "FRONTIER SMOKE FAILURE: no verdict flip located (the "
            "campaign spans a known n-flip for both schemes)",
            file=sys.stderr,
        )
        return 1
    print("frontier smoke: report schema-valid, flips located", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Sharded orderly generation (subtree work units + work-stealing pool)
# ----------------------------------------------------------------------

#: Repeats for the sharding rows (cold full sweeps, same protocol as the
#: symmetry section).
SHARDING_REPEATS = SYMMETRY_REPEATS

#: (scheme, n) for the sharding comparison.  Even-cycle at n = 6 is the
#: generation-bound workload where the shard stage dominates wall time;
#: degree-one at n = 5 is decode-bound, showing the knob's overhead on a
#: sweep the shard stage does *not* dominate.
SHARDING_CASES = [
    ("even-cycle", 6),
    ("degree-one", 5),
]

#: Prefix depth for the bench rows: the canonical-augmentation tree is
#: split at size 3 (4 connected roots), giving enough subtrees for a
#: 4-worker pool to balance.
SHARDING_BENCH_DEPTH = 3

#: Worker counts for the parallel sharding regimes.
SHARDING_WORKER_COUNTS = (2, 4)


def _sharding_plan(*, workers: int, sharding: str = "auto") -> ExecutionPlan:
    """A cold full sweep; ``workers=0`` with the default ``"auto"`` is
    the serial reference."""
    return ExecutionPlan(
        backend="streaming",
        workers=workers,
        early_exit=False,
        warm_start=False,
        memory_cache=False,
        disk_cache=False,
        symmetry="on",
        sharding=sharding,
        shard_depth=SHARDING_BENCH_DEPTH,
    )


def _timed_sharded_decision(lcp, n, plan, repeats=SHARDING_REPEATS):
    """Best-of-*repeats* cold decision under *plan*; returns
    ``(best, mean, verdict)`` of the last run."""
    times = []
    verdict = None
    for _ in range(repeats):
        _clear_everything()
        start = time.perf_counter()
        verdict = decide_hiding(lcp, n, plan)
        times.append(time.perf_counter() - start)
    return min(times), statistics.mean(times), verdict


def run_sharding() -> dict:
    """Sharded-sweep regimes per :data:`SHARDING_CASES`.

    Per case: a ``serial`` reference row (``workers=0``), a
    ``sharded_serial`` row (``sharding="on"``, in-process execution —
    the pure shard-stage overhead), and ``sharded_parallel_N`` rows on
    the work-stealing process pool.  Parallel rows run only when the
    host can actually parallelize (``cpu_count > 1``) or when
    ``REPRO_FORCE_WORKERS`` forces the pool; otherwise they are recorded
    as *skipped* with ``skip_reason``.  Every executed sharded row is
    parity-checked against the serial reference — identical decision
    fingerprint and effective instance count — and records the
    ``shard_count`` / ``steal_count`` / ``shards_per_sec`` provenance
    gauges the sentinel tracks per ``(regime, …, cpu_count)`` key.
    """
    from repro.perf.config import forced_workers  # noqa: PLC0415

    cpus = os.cpu_count() or 1
    forced = forced_workers()
    rows = []
    for scheme, n in SHARDING_CASES:
        lcp = make_lcp(scheme)
        best, mean, reference = _timed_sharded_decision(
            lcp, n, _sharding_plan(workers=0)
        )
        print(f"  sharding {scheme} n={n} serial: {best:.2f}s", file=sys.stderr)
        serial_best = best
        rows.append(
            {
                "regime": "serial",
                "scheme": scheme,
                "n": n,
                "seconds_best": round(best, 6),
                "seconds_mean": round(mean, 6),
                "workers_effective": 1,
                "cpu_count": cpus,
                "instances_scanned": reference.provenance.instances_scanned,
            }
        )

        def _sharded_row(regime, workers, workers_effective):
            best, mean, verdict = _timed_sharded_decision(
                lcp, n, _sharding_plan(sharding="on", workers=workers)
            )
            print(
                f"  sharding {scheme} n={n} {regime}: {best:.2f}s "
                f"(serial {serial_best:.2f}s)",
                file=sys.stderr,
            )
            return {
                "regime": regime,
                "scheme": scheme,
                "n": n,
                "seconds_best": round(best, 6),
                "seconds_mean": round(mean, 6),
                "workers_effective": workers_effective,
                "cpu_count": cpus,
                "instances_scanned": verdict.provenance.instances_scanned,
                "shard_count": verdict.provenance.shard_count,
                "steal_count": verdict.provenance.steal_count,
                "shards_per_sec": verdict.provenance.shards_per_sec,
                "shard_depth": SHARDING_BENCH_DEPTH,
                "speedup_vs_serial": round(serial_best / best, 3) if best else None,
                "parity_with_serial": (
                    verdict.decision_fingerprint()
                    == reference.decision_fingerprint()
                    and verdict.provenance.instances_scanned
                    == reference.provenance.instances_scanned
                ),
            }

        rows.append(_sharded_row("sharded_serial", 0, 1))
        for workers in SHARDING_WORKER_COUNTS:
            if cpus <= 1 and forced is None:
                rows.append(
                    {
                        "regime": f"sharded_parallel_{workers}",
                        "scheme": scheme,
                        "n": n,
                        "skipped": True,
                        "skip_reason": "single_core_host",
                        "cpu_count": cpus,
                        "note": (
                            "single-core host: a process pool would measure "
                            "pure IPC overhead, not parallel speedup (set "
                            "REPRO_FORCE_WORKERS to force the pool anyway)"
                        ),
                        "workers_effective": 1,
                    }
                )
                continue
            effective = workers if forced is not None else min(workers, cpus)
            row = _sharded_row(f"sharded_parallel_{workers}", workers, effective)
            if forced is not None and cpus < workers:
                row["note"] = (
                    f"REPRO_FORCE_WORKERS={forced}: pool forced on a "
                    f"{cpus}-core host — the row demonstrates the pool "
                    "path, not real parallel speedup"
                )
            rows.append(row)
    return {
        "repeats": SHARDING_REPEATS,
        "shard_depth": SHARDING_BENCH_DEPTH,
        "cpu_count": cpus,
        "forced_workers": forced,
        "rows": rows,
        "parity_ok": all(r.get("parity_with_serial", True) for r in rows),
    }


def _shard_emission_parity(n: int, depth: int) -> bool:
    """Merged shard emission must be byte-identical to the serial walk.

    The serial side is :func:`emit_entries` over the memoized level; the
    sharded side rebuilds every level from the depth-``depth`` prefix
    roots, one independent subtree range at a time, then merges the
    shard-local (already sorted) blocks by canonical mask — exactly the
    executor's merge discipline."""
    from repro.shard import plan_shards  # noqa: PLC0415
    from repro.symmetry.orderly import (  # noqa: PLC0415
        build_level,
        emit_entries,
        level_entries,
    )

    def encode(stream):
        return [
            (mask, tuple(sorted(graph.edges))) for mask, graph in stream
        ]

    spec = plan_shards(n, depth, workers=4)
    roots = level_entries(depth)
    for size in range(depth + 1, n + 1):
        serial = encode(emit_entries(level_entries(size), size))
        merged = []
        for shard in spec.shards:
            entries = roots[shard.start : shard.stop]
            for level in range(depth + 1, size + 1):
                entries = build_level(level, entries)
            merged.extend(encode(emit_entries(entries, size)))
        merged.sort(key=lambda pair: pair[0])
        if merged != serial:
            return False
    return True


#: Account counters a sharded sweep must reproduce exactly (the engine
#: folds the merged ``SymmetryAccount`` into these stats names).
_SHARD_ACCOUNT_COUNTERS = (
    "instances_scanned",
    "symmetry_labelings_total",
    "symmetry_labelings_pruned",
    "symmetry_bases_pruned",
    "symmetry_instances_suppressed",
)


def smoke_shard() -> int:
    """CI smoke for ``--shard-smoke``: the sharded sweep must be
    indistinguishable from the serial walk.

    Three gates: (1) merged shard emission byte-identical to the serial
    orderly stream at n = 6; (2) per-scheme decision parity — identical
    fingerprint, instance count, and folded ``SymmetryAccount`` counters
    — for every registry scheme at n = 5 plus both Theorem 1.1 schemes
    at n = 6, sharding on (in-process) vs serial; (3) when the host has
    multiple cores or ``REPRO_FORCE_WORKERS`` is set, one pool-path
    check per Theorem scheme (workers = 2) against the same reference.
    Nonzero exit on any divergence."""
    from repro.perf.config import forced_workers  # noqa: PLC0415

    failures = 0
    _clear_everything()
    if _shard_emission_parity(6, depth=3):
        print("shard smoke: emission parity OK (n=6, depth=3)", file=sys.stderr)
    else:
        failures += 1
        print(
            "SHARD EMISSION PARITY FAILURE: merged shard stream diverges "
            "from the serial orderly walk at n=6",
            file=sys.stderr,
        )

    def decide(scheme, n, plan):
        _clear_everything()
        ctx = RunContext.isolated()
        verdict = decide_hiding(make_lcp(scheme), n, plan, ctx=ctx)
        counters = {
            name: ctx.stats.get(name) for name in _SHARD_ACCOUNT_COUNTERS
        }
        return verdict, counters

    cases = [(scheme, 5) for scheme in sorted(all_lcps())]
    cases += [("degree-one", 6), ("even-cycle", 6)]
    pool_capable = (os.cpu_count() or 1) > 1 or forced_workers() is not None
    for scheme, n in cases:
        reference, ref_counters = decide(
            scheme, n, _sharding_plan(workers=0)
        )
        sharded, counters = decide(
            scheme, n, _sharding_plan(sharding="on", workers=0)
        )
        checks = {
            "fingerprint": sharded.decision_fingerprint()
            == reference.decision_fingerprint(),
            "instances_scanned": sharded.provenance.instances_scanned
            == reference.provenance.instances_scanned,
            "account": counters == ref_counters,
        }
        legs = ["in-process"]
        if pool_capable and scheme in ("degree-one", "even-cycle"):
            pooled, pooled_counters = decide(
                scheme, n, _sharding_plan(sharding="on", workers=2)
            )
            checks["pool_fingerprint"] = (
                pooled.decision_fingerprint() == reference.decision_fingerprint()
            )
            checks["pool_account"] = pooled_counters == ref_counters
            legs.append("pool(2)")
        if all(checks.values()):
            print(
                f"shard smoke: {scheme} n={n} parity OK ({', '.join(legs)})",
                file=sys.stderr,
            )
        else:
            failures += 1
            bad = [name for name, ok in checks.items() if not ok]
            print(
                f"SHARD PARITY FAILURE: {scheme} n={n}: {', '.join(bad)} differ",
                file=sys.stderr,
            )
    if not pool_capable:
        print(
            "shard smoke: pool leg skipped (single-core host, "
            "REPRO_FORCE_WORKERS unset)",
            file=sys.stderr,
        )
    if failures:
        return 1
    print("shard smoke: all parity checks passed", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "output", nargs="?", default="BENCH_neighborhood.json", help="pipeline report"
    )
    parser.add_argument(
        "--hiding-output",
        default="BENCH_hiding.json",
        metavar="PATH",
        help="hiding-engine report path",
    )
    parser.add_argument(
        "--early-exit",
        action="store_true",
        help="CI smoke mode: parity checks only, no timing reports",
    )
    parser.add_argument(
        "--symmetry-smoke",
        action="store_true",
        help="CI smoke mode: orbit-pruned vs brute-force parity at n=4 "
        "for both Theorem 1.1 schemes, no timing reports",
    )
    parser.add_argument(
        "--frontier-smoke",
        action="store_true",
        help="CI smoke mode: run the tiny tracked campaign (2 schemes x "
        "n<=5 x 2 values of k), schema-validate the frontier report, "
        "and require a located verdict flip; backend-independent, so it "
        "runs in both the numpy and no-numpy legs",
    )
    parser.add_argument(
        "--shard-smoke",
        action="store_true",
        help="CI smoke mode: sharded sweeps (subtree work units) must be "
        "indistinguishable from the serial walk — merged emission bytes, "
        "decision fingerprints, instance counts, and SymmetryAccount "
        "totals; set REPRO_FORCE_WORKERS to also exercise the process-"
        "pool path on a single-core runner",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="with --early-exit: write a validated run report to FILE",
    )
    args = parser.parse_args()
    if args.early_exit:
        return smoke_early_exit(trace_out=args.trace_out)
    if args.symmetry_smoke:
        return smoke_symmetry()
    if args.frontier_smoke:
        return smoke_frontier()
    if args.shard_smoke:
        return smoke_shard()

    target = Path(args.output)
    rows = []
    for n in (4, 5):
        print(f"benchmarking n={n} ...", file=sys.stderr)
        rows.extend(run(n))
    print("benchmarking symmetry regimes ...", file=sys.stderr)
    symmetry_graphs: dict = {}
    symmetry = run_symmetry(graph_sink=symmetry_graphs)
    print("benchmarking batch kernel ...", file=sys.stderr)
    kernel = run_kernel(symmetry, symmetry_graphs)
    print("benchmarking generation kernel ...", file=sys.stderr)
    generation = run_generation()
    print("benchmarking parameter frontier ...", file=sys.stderr)
    frontier = run_frontier()
    print("benchmarking sharded sweeps ...", file=sys.stderr)
    sharding = run_sharding()

    by_key = {(r["regime"], r["n"]): r for r in rows}
    cold_speedup = (
        by_key[("baseline", 5)]["seconds_best"]
        / by_key[("serial_cold", 5)]["seconds_best"]
    )
    warm_speedup = (
        by_key[("baseline", 5)]["seconds_best"]
        / by_key[("serial_warm", 5)]["seconds_best"]
    )
    payload = {
        "benchmark": "neighborhood_pipeline",
        "lcp": "DegreeOneLCP",
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "serial_speedup_vs_baseline_n5": round(cold_speedup, 3),
        "serial_warm_speedup_vs_baseline_n5": round(warm_speedup, 3),
        "parity_ok": (
            all(r.get("parity_with_baseline", True) for r in rows)
            and symmetry["parity_ok"]
            and kernel["parity_ok"]
            and generation["parity_ok"]
            and frontier["valid"]
            and sharding["parity_ok"]
        ),
        "rows": rows,
        "symmetry": symmetry,
        "kernel": kernel,
        "generation": generation,
        "frontier": frontier,
        "sharding": sharding,
    }
    # Regression sentinel: judge this run's rows against the recorded
    # trajectory and embed the machine-readable verdict block before the
    # payload hits disk; the rows themselves are appended to the history
    # only after both payloads are judged (a run never competes with
    # itself as baseline).
    history = sentinel.load_history()
    sentinel_rows = sentinel.extract_rows(payload)
    payload["sentinel"] = sentinel.verdict_block(sentinel_rows, history)
    print(
        sentinel.render_verdicts(payload["sentinel"]["verdicts"]), file=sys.stderr
    )
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"written to {target}", file=sys.stderr)

    hiding_rows = []
    for n in (4, 5):
        print(f"benchmarking hiding n={n} ...", file=sys.stderr)
        hiding_rows.extend(run_hiding(n))
    by_key = {(r["regime"], r["n"]): r for r in hiding_rows}
    hiding_payload = {
        "benchmark": "hiding_engine",
        "lcp": "DegreeOneLCP",
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "early_exit_speedup_n5": by_key[("streaming_cold", 5)]["early_exit_speedup"],
        "disk_speedup_vs_cold_n5": by_key[("streaming_warm_disk", 5)][
            "disk_speedup_vs_cold"
        ],
        "numpy_version": numpy_version(),
        "vectorized_speedup_vs_streaming_n5": by_key.get(
            ("vectorized_cold", 5), {}
        ).get("speedup_vs_streaming_cold"),
        "parity_ok": all(
            r.get("parity_with_materialized", True) for r in hiding_rows
        ),
        "rows": hiding_rows,
    }
    hiding_sentinel_rows = sentinel.extract_rows(hiding_payload)
    hiding_payload["sentinel"] = sentinel.verdict_block(hiding_sentinel_rows, history)
    print(
        sentinel.render_verdicts(hiding_payload["sentinel"]["verdicts"]),
        file=sys.stderr,
    )
    Path(args.hiding_output).write_text(
        json.dumps(hiding_payload, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(hiding_payload, indent=2))
    print(f"written to {args.hiding_output}", file=sys.stderr)
    history_file = sentinel.append_history(sentinel_rows + hiding_sentinel_rows)
    print(f"timing history appended to {history_file}", file=sys.stderr)
    return 0 if payload["parity_ok"] and hiding_payload["parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
