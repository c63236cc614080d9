"""The engine backend: one way to decide Lemma 3.2.

The backend answers one question — *is* ``V(D, n)`` *k-colorable?* — with
the fused incremental engine of :mod:`repro.neighborhood.streaming`:
each view and edge feeds an incremental decision the moment the builders
discover it (union-find parity for ``k = 2``, DSATUR with restarts
otherwise), optionally resuming from a smaller-``n`` sweep (warm start).
``ExecutionPlan.early_exit`` picks how far it scans: ``True`` stops at
the first witness, ``False`` builds the complete ``V(D, n)``.  Either
way the witness is the stream-order first odd closed walk and the
coloring is the engine's own, so the ``hiding`` flag, the witness, and
(on conclusive non-hiding sweeps) the complete graph and coloring are
byte-identical across worker counts, kernel modes, sharding, and cache
tiers.

The plan's ``kernel`` mode is read here too: unless it is ``"off"``, the
numpy kernels of :mod:`repro.kernel` run the unanimity sweeps as
prefix-pruned joins and orderly generation's canonicalization searches
in batches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..certification.lcp import LCP
from ..graphs.families import warm_graph_families
from ..neighborhood.aviews import (
    bipartite_generation,
    symmetry_pruning_effective,
    yes_instances_between,
    yes_instances_up_to,
)
from ..neighborhood.hiding import HidingVerdict
from ..neighborhood.ngraph import build_neighborhood_graph
from ..obs.logs import get_logger
from ..obs.progress import counting_instances
from ..perf.config import CONFIG
from ..perf.stats import GLOBAL_STATS
from ..kernel import KERNEL_BATCH
from ..symmetry.prune import SymmetryAccount
from .context import RunContext
from .plan import ExecutionPlan
from .verdict import Provenance, Verdict

log = get_logger("engine.backends")

# The end-to-end benchmark harness times the build through this name.
build_neighborhood_graph_auto = build_neighborhood_graph

#: Engine revision; folded into memo, warm-state, and disk keys so
#: algorithmic changes can never resurrect stale state.  Value 1 keeps
#: pre-engine ``.repro_cache/`` entries readable.
ENGINE_VERSION = 1


# ----------------------------------------------------------------------
# Sweep identity keys (shared by every cache tier)
# ----------------------------------------------------------------------


def _symmetry_effective(lcp: LCP, plan: ExecutionPlan) -> bool:
    """Whether the resolved plan's symmetry mode turns orbit pruning on
    for this scheme."""
    return symmetry_pruning_effective(lcp, plan.symmetry or "off")


def family_key(lcp: LCP, plan: ExecutionPlan) -> tuple:
    """The sweep identity *without* ``n``: one key per (scheme, decoder,
    enumeration bounds, early-exit mode) family.  Worker count is
    deliberately absent — verdicts are byte-identical for any.  Orbit
    pruning is part of the identity (early-exit counts may differ between
    regimes); the generation kernel mode is not (byte-identical
    streams).  A raised ``kernel_labeling_limit`` *is* part of the
    identity — it admits labeling spaces the base limit refuses,
    changing sweep content (resolve already normalized it to ``None``
    wherever it is a no-op)."""
    return (
        ENGINE_VERSION,
        type(lcp).__name__,
        lcp.name,
        lcp.decoder.name,
        lcp.k,
        lcp.radius,
        lcp.anonymous,
        plan.port_limit,
        plan.id_order_types,
        plan.include_all_accepted_labelings,
        plan.labeling_limit,
        plan.early_exit,
        _symmetry_effective(lcp, plan),
        plan.kernel_labeling_limit,
        plan.graph_family,
        plan.alphabet_limit,
    )


def memory_key(lcp: LCP, n: int, plan: ExecutionPlan) -> tuple:
    return family_key(lcp, plan) + (n,)


def disk_key(lcp: LCP, n: int, plan: ExecutionPlan) -> dict:
    """Readable persistent-store key: the exact pre-engine layout (same
    fields, same values), so existing ``.repro_cache/`` entries keep
    their content addresses."""
    key = {
        "engine_version": ENGINE_VERSION,
        "lcp_type": type(lcp).__name__,
        "lcp_name": lcp.name,
        "decoder": lcp.decoder.name,
        "k": lcp.k,
        "radius": lcp.radius,
        "anonymous": lcp.anonymous,
        "n": n,
        "port_limit": plan.port_limit,
        "id_order_types": plan.id_order_types,
        "include_all_accepted_labelings": plan.include_all_accepted_labelings,
        "labeling_limit": plan.labeling_limit,
        "early_exit": plan.early_exit,
    }
    # Only when orbit pruning is effective: pre-symmetry entries keep
    # their content addresses and are never misread by pruned sweeps
    # (whose early-exit instance counts can legitimately differ).
    if _symmetry_effective(lcp, plan):
        key["symmetry"] = "on"
    # Only when set (kernel route, above the base limit): the raised
    # admission limit changes sweep content, and pre-existing entries
    # keep their addresses when it is off.
    if plan.kernel_labeling_limit is not None:
        key["kernel_labeling_limit"] = plan.kernel_labeling_limit
    # Campaign axes, only when off their defaults: the default cell —
    # full family, full alphabet — keeps the pre-campaign content
    # address byte-for-byte.
    if plan.graph_family != "all":
        key["graph_family"] = plan.graph_family
    if plan.alphabet_limit is not None:
        key["alphabet_limit"] = plan.alphabet_limit
    return key


def _with_progress(instances, lcp: LCP, n: int, ctx: RunContext):
    """Wrap an instance stream with ``instances_scanned`` progress
    deltas — only when someone is listening, so an unobserved sweep
    keeps the raw generator (and its exact early-exit behavior; the
    wrapper yields the stream unchanged either way)."""
    if not ctx.progress.active:
        return instances
    return counting_instances(
        instances,
        ctx.progress,
        scheme=lcp.name,
        n=n,
        trace_id=ctx.tracer.trace_id if ctx.tracer.active else None,
    )


def _enumeration_bounds(plan: ExecutionPlan) -> dict:
    return {
        "port_limit": plan.port_limit,
        "id_order_types": plan.id_order_types,
        "include_all_accepted_labelings": plan.include_all_accepted_labelings,
        "labeling_limit": plan.labeling_limit,
        "kernel_labeling_limit": plan.kernel_labeling_limit,
        "family": plan.graph_family,
        "alphabet_limit": plan.alphabet_limit,
    }


def _envelope(
    lcp: LCP,
    n: int,
    plan: ExecutionPlan,
    legacy: HidingVerdict,
    elapsed: float,
    ctx: RunContext | None = None,
    **flags,
) -> Verdict:
    g = legacy.ngraph
    provenance = Provenance(
        backend=plan.backend,
        n=n,
        workers=plan.workers or 0,
        early_exit=plan.early_exit,
        kernel=KERNEL_BATCH if plan.kernel != "off" else None,
        instances_scanned=g.instances_scanned,
        views=g.order,
        edges=g.size,
        wall_time_s=elapsed,
        trace_id=(
            ctx.tracer.trace_id if ctx is not None and ctx.tracer.active else None
        ),
        **flags,
    )
    return Verdict(
        k=legacy.k,
        hiding=legacy.hiding,
        witness=legacy.odd_cycle,
        coloring=legacy.coloring,
        ngraph=g,
        provenance=provenance,
        legacy=legacy,
    )


def _apply_symmetry_account(ngraph, account: SymmetryAccount | None, ctx: RunContext):
    """Fold orbit-pruning suppressions back into the sweep's counts.

    ``Provenance.instances_scanned`` and the ``instances_scanned`` stats
    counter move in lockstep — the run report's consistency block checks
    them for exact agreement.  Must run before the envelope is built and
    before the engine state is parked for warm starts."""
    if account is None:
        return
    with ctx.tracer.span(
        "symmetry:orbit-prune",
        bases_pruned=account.bases_pruned,
        labelings_pruned=account.labelings_pruned,
        instances_suppressed=account.instances_suppressed,
    ):
        if account.instances_suppressed:
            ngraph.instances_scanned += account.instances_suppressed
            ctx.stats.incr("instances_scanned", account.instances_suppressed)
            ctx.stats.incr(
                "symmetry_instances_suppressed", account.instances_suppressed
            )
        if account.labelings_total:
            ctx.stats.incr("symmetry_labelings_total", account.labelings_total)
        if account.labelings_pruned:
            ctx.stats.incr("symmetry_labelings_pruned", account.labelings_pruned)
        if account.bases_pruned:
            ctx.stats.incr("symmetry_bases_pruned", account.bases_pruned)


def _sharding_effective(lcp: LCP, plan: ExecutionPlan, n: int) -> bool:
    """Whether this sweep takes the sharded route (lazy import keeps the
    shard layer out of the engine's import graph until it is used)."""
    from ..shard import sharding_effective  # noqa: PLC0415

    return sharding_effective(lcp, plan, n)


def _run_sharded(
    lcp: LCP,
    n: int,
    plan: ExecutionPlan,
    ctx: RunContext,
    *,
    symmetry: str,
    consumer,
    into,
    account,
    flags: dict,
    lo: int = 0,
):
    """Run the sharded sweep; fold its outcome into the provenance
    *flags* dict; return the assembled neighborhood graph.  The sweep
    key is the backend's own persistent identity, so shard checkpoints
    can never cross sweeps."""
    from ..shard import run_sharded_sweep  # noqa: PLC0415

    outcome = run_sharded_sweep(
        lcp,
        n,
        plan,
        ctx,
        bounds=_enumeration_bounds(plan),
        symmetry=symmetry,
        consumer=consumer,
        into=into,
        account=account,
        lo=lo,
        sweep_key=disk_key(lcp, n, plan),
    )
    flags["shard_count"] = outcome.shard_count
    flags["steal_count"] = outcome.steal_count
    if outcome.shards_per_sec is not None:
        flags["shards_per_sec"] = outcome.shards_per_sec
    return outcome.ngraph


class _ThroughputMeter:
    """Per-op throughput of one sweep: kernel labelings evaluated per
    second and canonical forms computed per second.

    Labelings are counted on the context stats (the batch kernel's
    ``kernel_labelings``); canonicalizations on :data:`GLOBAL_STATS`,
    where the orderly generator records them regardless of which stats
    handle the engine threads (generation is process-memoized, so a
    warm sweep honestly reports none).  The computed gauges land in the
    context metrics registry and in ``Provenance`` — single-core hosts
    track per-op perf trajectory even when wall-clock comparisons are
    noisy."""

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.labelings = ctx.stats.get("kernel_labelings")
        self.canonicalizations = GLOBAL_STATS.get("canonicalizations")

    def flags(self, elapsed: float) -> dict:
        labelings = self.ctx.stats.get("kernel_labelings") - self.labelings
        canon = GLOBAL_STATS.get("canonicalizations") - self.canonicalizations
        out: dict = {}
        if elapsed > 0.0:
            if labelings:
                out["labelings_per_sec"] = labelings / elapsed
            if canon:
                out["canonicalizations_per_sec"] = canon / elapsed
        metrics = self.ctx.stats.metrics
        if metrics is not None:
            for name, value in out.items():
                metrics.set_gauge(name, value)
        return out


# ----------------------------------------------------------------------
# Streaming backend (early exit, warm starts)
# ----------------------------------------------------------------------


@dataclass
class _SweepState:
    """Last finished streaming sweep for one sweep family."""

    n: int
    engine: object  # StreamingHidingEngine


#: Warm-start states per family key (without ``n``); process-wide like
#: the memo tiers, cleared via :func:`clear_warm_states`.
_WARM_STATES: dict[tuple, _SweepState] = {}


def clear_warm_states() -> None:
    _WARM_STATES.clear()


class StreamingBackend:
    """Fused incremental decision with early exit and warm starts.

    :meth:`shortcut` may answer from the warm-start witness before any
    cache tier is consulted; :meth:`run` sweeps."""

    name = "streaming"

    @contextmanager
    def _kernel_span(self, plan: ExecutionPlan, ctx: RunContext):
        """Wrap the build in a ``kernel:batch`` span whose attributes
        report the batch counters the sweep accumulated (no-op with
        ``kernel="off"``)."""
        if plan.kernel == "off":
            yield None
            return
        before_batches = ctx.stats.get("kernel_batches")
        before_labelings = ctx.stats.get("kernel_labelings")
        with ctx.tracer.span(
            f"kernel:{KERNEL_BATCH}", block_size=CONFIG.kernel_block_size
        ) as span:
            try:
                yield span
            finally:
                span.set_attributes(
                    batches=ctx.stats.get("kernel_batches") - before_batches,
                    labelings=ctx.stats.get("kernel_labelings") - before_labelings,
                )

    def shortcut(
        self, lcp: LCP, n: int, plan: ExecutionPlan, ctx: RunContext
    ) -> Verdict | None:
        """A previously found witness answers every larger early-exit
        sweep instantly: ``V(D, m) ⊇ V(D, n)`` for ``m ≥ n`` keeps the
        odd walk intact.  A full sweep (``early_exit=False``) promises
        the complete ``V(D, n)``, which the smaller state does not hold,
        so it warm-starts in :meth:`run` instead."""
        if not (plan.early_exit and plan.warm_start and lcp.anonymous):
            return None
        state = _WARM_STATES.get(family_key(lcp, plan))
        if state is None or state.n > n or not state.engine.witness_found:
            return None
        ctx.stats.incr("warm_witness_hits")
        log.debug(
            "%s: warm-start witness from n=%d answers n=%d", lcp.name, state.n, n
        )
        return _envelope(
            lcp,
            n,
            plan,
            state.engine.verdict(exhaustive=True),
            0.0,
            ctx,
            warm_witness_hit=True,
            symmetry_pruned=_symmetry_effective(lcp, plan),
        )

    def run(self, lcp: LCP, n: int, plan: ExecutionPlan, ctx: RunContext) -> Verdict:
        from ..neighborhood.streaming import StreamingHidingEngine  # noqa: PLC0415

        family = family_key(lcp, plan)
        state = (
            _WARM_STATES.get(family) if plan.warm_start and lcp.anonymous else None
        )
        start = time.perf_counter()
        warm_started = False
        pruned = _symmetry_effective(lcp, plan)
        account = SymmetryAccount() if pruned else None
        symmetry = plan.symmetry if pruned else "off"
        sharded = _sharding_effective(lcp, plan, n)
        shard_flags: dict = {}
        meter = _ThroughputMeter(ctx)
        with CONFIG.overridden(kernel=plan.kernel), ctx.stats.time_stage(
            "streaming_sweep"
        ):
            with ctx.tracer.span(
                "sweep", n=n, early_exit=plan.early_exit, sharded=sharded
            ) as sweep:
                lo = 0
                instances = None
                if state is not None and state.n <= n:
                    ctx.stats.incr("warm_starts")
                    warm_started = True
                    lo = state.n
                    engine = state.engine.clone()
                    engine.stats = ctx.stats
                    with ctx.tracer.span(
                        "symmetry:generate", n=n, mode=plan.symmetry
                    ) as gen:
                        # Early-exit sweeps generate lazily: pre-building
                        # every family would waste the exit.  Sharded
                        # sweeps never pre-generate past the shard depth —
                        # the deeper levels are the shards' parallel work.
                        gen.set_attributes(
                            sizes_warmed=0
                            if plan.early_exit or sharded
                            else warm_graph_families(
                                state.n, n, bipartite=bipartite_generation(lcp)
                            ),
                            deferred=plan.early_exit or sharded,
                        )
                    if not sharded:
                        instances = _with_progress(
                            yes_instances_between(
                                lcp,
                                state.n,
                                n,
                                **_enumeration_bounds(plan),
                                symmetry=symmetry,
                                account=account,
                                stats=ctx.stats,
                            ),
                            lcp,
                            n,
                            ctx,
                        )
                else:
                    engine = StreamingHidingEngine(
                        lcp.k,
                        lcp.radius,
                        not lcp.anonymous,
                        early_exit=plan.early_exit,
                        stats=ctx.stats,
                    )
                    with ctx.tracer.span(
                        "symmetry:generate", n=n, mode=plan.symmetry
                    ) as gen:
                        gen.set_attributes(
                            sizes_warmed=0
                            if plan.early_exit or sharded
                            else warm_graph_families(
                                0, n, bipartite=bipartite_generation(lcp)
                            ),
                            deferred=plan.early_exit or sharded,
                        )
                    if not sharded:
                        instances = _with_progress(
                            yes_instances_up_to(
                                lcp,
                                n,
                                **_enumeration_bounds(plan),
                                symmetry=symmetry,
                                account=account,
                                stats=ctx.stats,
                            ),
                            lcp,
                            n,
                            ctx,
                        )
                with self._kernel_span(plan, ctx):
                    if sharded:
                        _run_sharded(
                            lcp,
                            n,
                            plan,
                            ctx,
                            symmetry=symmetry,
                            consumer=engine,
                            into=engine.ngraph,
                            account=account,
                            flags=shard_flags,
                            lo=lo,
                        )
                    else:
                        build_neighborhood_graph_auto(
                            lcp,
                            instances,
                            stats=ctx.stats,
                            consumer=engine,
                            into=engine.ngraph,
                            tracer=ctx.tracer,
                        )
                _apply_symmetry_account(engine.ngraph, account, ctx)
                sweep.set_attributes(
                    warm_started=warm_started,
                    witness_found=engine.witness_found,
                    instances_scanned=engine.ngraph.instances_scanned,
                    views=engine.ngraph.order,
                    edges=engine.ngraph.size,
                )
        with ctx.tracer.span("decide", method="incremental"):
            legacy = engine.verdict(exhaustive=True)
        if plan.warm_start and lcp.anonymous:
            _WARM_STATES[family] = _SweepState(n=n, engine=engine)
        elapsed = time.perf_counter() - start
        return _envelope(
            lcp,
            n,
            plan,
            legacy,
            elapsed,
            ctx,
            warm_started=warm_started,
            symmetry_pruned=pruned,
            **shard_flags,
            **meter.flags(elapsed),
        )


#: The engine's one backend instance (:func:`repro.engine.decide_hiding`).
STREAMING = StreamingBackend()


def available_backends() -> list[str]:
    """Backend names :meth:`ExecutionPlan.resolve` accepts besides
    ``"auto"``."""
    return [STREAMING.name]
