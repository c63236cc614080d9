"""`decide_hiding` — the single entrypoint for every hiding decision.

Every surface (CLI, experiment runner, benchmarks, library callers)
answers "does ``D`` hide a ``k``-coloring up to ``n``?" through this one
function.  The tier order per decision:

1. **memory memo** — a hit returns the originally produced envelope
   object as-is (``is``-level memo semantics);
2. **backend shortcut** — the warm-start witness parked in the
   context's memo tier answers without a sweep
   (:func:`~repro.engine.backends.warm_witness`; early-exit sweeps of
   anonymous schemes only); counts as fresh for the write-back tiers
   below;
3. **disk store** — a hit is recorded in the envelope's provenance and
   memoized, but never written back to disk;
4. **backend sweep** — compute (:func:`~repro.engine.backends.sweep`),
   then populate memory and (when the plan says so) disk.

Observability: the whole decision runs inside the context tracer's
``decide_hiding`` root span, with one child span per tier consulted
(plan resolution, memory, shortcut, disk, backend, write-back) so a
traced run's span tree accounts for essentially all of its wall time;
a tier's hit counters (``stream_memo_hits``, ``warm_witness_hits``,
``disk_hits``/``disk_misses``) land in its span's ``counters``.  Fresh
verdicts are stamped with the tracer's ``trace_id`` (linking them to
their run report), the routing outcome is logged on the
``repro.engine`` logger, and ``decision_started``/``decision_finished``
go to :data:`~repro.obs.progress.GLOBAL_PROGRESS`.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..certification.lcp import LCP
from ..obs.logs import get_logger
from ..obs.progress import GLOBAL_PROGRESS
from .backends import disk_key, memory_key, sweep, warm_witness
from .context import _SHARED_MEMORY_STORE, RunContext
from .plan import ExecutionPlan
from .stores import DiskVerdictStore
from .verdict import Verdict

log = get_logger("engine")

#: The persistent tier, shared by every context; it resolves the cache
#: directory from the live config on each operation.
_DISK_STORE = DiskVerdictStore()


def _stamp_trace(verdict: Verdict, ctx: RunContext) -> Verdict:
    """Attach the active trace id to a verdict's provenance (no-op for
    untraced runs or verdicts already linked to a report).  The change
    is provenance-only, so the cached decision digest carries over."""
    tracer = ctx.tracer
    if not tracer.active or verdict.provenance.trace_id is not None:
        return verdict
    stamped = replace(
        verdict, provenance=replace(verdict.provenance, trace_id=tracer.trace_id)
    )
    if verdict._digest is not None:
        stamped._remember_digest(verdict._digest)
    return stamped


def decide_hiding(
    lcp: LCP,
    n: int,
    plan: ExecutionPlan | None = None,
    *,
    k: int | None = None,
    r: int | None = None,
    ctx: RunContext | None = None,
) -> Verdict:
    """Decide whether *lcp* hides a ``k``-coloring up to *n* nodes.

    *plan* says how (early exit, caches); an unresolved plan — or
    ``None``, meaning "all defaults" — is resolved against ``ctx.config``
    first.  *k* and *r* are real decision inputs: a non-native value
    re-parameterizes the scheme for this decision
    (:func:`repro.certification.lcp.parametrized`), changing the
    yes-instance filter / verification radius and with them every cache
    identity — ``lcp.k`` and ``lcp.radius`` are fields of both the
    family key and the disk key, so the native parameters keep their
    pre-campaign content addresses byte-for-byte.  ``None`` (or the
    native value) decides the scheme as registered.  *ctx* defaults to
    the process-wide context (global config, stats, shared cache tiers).

    Returns the unified :class:`~repro.engine.verdict.Verdict` envelope.
    Raises :class:`ValueError` for ``n < 1``: no sweep is empty enough
    to decide, so a bound below one has no conclusive verdict.
    """
    if n < 1:
        raise ValueError(f"decide_hiding: n must be >= 1, got {n}")
    if k is not None or r is not None:
        from ..certification.lcp import parametrized  # noqa: PLC0415

        lcp = parametrized(lcp, k=k, radius=r)
    if ctx is None:
        ctx = RunContext.default()
    tracer = ctx.tracer
    start = time.perf_counter()
    GLOBAL_PROGRESS.emit(
        "decision_started",
        label=f"{lcp.name} k={lcp.k} n<={n}",
        scheme=lcp.name,
        n=n,
        k=lcp.k,
        trace_id=tracer.trace_id if tracer.active else None,
    )
    verdict = None
    try:
        with tracer.span("decide_hiding", scheme=lcp.name, n=n, k=lcp.k) as root:
            with tracer.span("resolve-plan"):
                plan = (plan if plan is not None else ExecutionPlan()).resolve(
                    ctx.config
                )
            root.set_attribute("backend", plan.backend)
            verdict = _decide(lcp, n, plan, ctx, root)
            return verdict
    finally:
        GLOBAL_PROGRESS.emit(
            "decision_finished",
            label=f"{lcp.name} k={lcp.k} n<={n}",
            scheme=lcp.name,
            n=n,
            k=lcp.k,
            hiding=verdict.hiding if verdict is not None else None,
            wall_time_s=time.perf_counter() - start,
            trace_id=tracer.trace_id if tracer.active else None,
        )


def _decide(lcp: LCP, n: int, plan, ctx: RunContext, root) -> Verdict:
    tracer = ctx.tracer
    memory = ctx.memory_store() if plan.memory_cache else None
    mem_key = memory_key(lcp, n, plan)
    if memory is not None:
        with tracer.span("memory-tier"):
            cached = memory.load(mem_key, stats=ctx.stats)
        if cached is not None:
            log.debug(
                "%s n=%d: memory-tier hit (%s backend)", lcp.name, n, plan.backend
            )
            root.set_attribute("served_by", "memory")
            return cached

    with tracer.span("backend-shortcut"):
        verdict = warm_witness(lcp, n, plan, ctx)
    if verdict is not None:
        log.debug("%s n=%d: %s shortcut answered", lcp.name, n, plan.backend)
        root.set_attribute("served_by", "shortcut")
    elif plan.disk_cache:
        with tracer.span("disk-tier"):
            loaded = _DISK_STORE.load(disk_key(lcp, n, plan), stats=ctx.stats)
        if loaded is not None:
            log.debug("%s n=%d: disk-tier hit", lcp.name, n)
            root.set_attribute("served_by", "disk")
            loaded = _stamp_trace(loaded, ctx)
            if memory is not None:
                memory.store(mem_key, loaded, stats=ctx.stats)
            return loaded

    if verdict is None:
        log.debug("%s n=%d: running %s backend", lcp.name, n, plan.backend)
        root.set_attribute("served_by", "sweep")
        with tracer.span(f"backend:{plan.backend}", n=n):
            verdict = sweep(lcp, n, plan, ctx)
    verdict = _stamp_trace(verdict, ctx)

    with tracer.span("store-back", disk=bool(plan.disk_cache)):
        if memory is not None:
            memory.store(mem_key, verdict, stats=ctx.stats)
        if plan.disk_cache:
            _DISK_STORE.store(disk_key(lcp, n, plan), verdict, stats=ctx.stats)
    return verdict


def clear_engine_state() -> None:
    """Drop the shared in-process engine state: the memo tier, which also
    holds the warm-start states (benchmarks, test isolation).  The
    persistent disk store is left alone (``repro cache clear``)."""
    _SHARED_MEMORY_STORE.clear()
