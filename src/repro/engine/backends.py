"""The engine backend: one way to decide Lemma 3.2.

The backend answers one question — *is* ``V(D, n)`` *k-colorable?* — with
the fused incremental engine of :mod:`repro.neighborhood.streaming`:
each view and edge feeds an incremental decision the moment the builders
discover it (union-find parity for ``k = 2``, DSATUR with restarts
otherwise).
``ExecutionPlan.early_exit`` picks how far it scans: ``True`` stops at
the first witness, ``False`` builds the complete ``V(D, n)``.  Either
way the witness is the stream-order first odd closed walk and the
coloring is the engine's own, so the ``hiding`` flag, the witness, and
(on conclusive non-hiding sweeps) the complete graph and coloring are
byte-identical across cache tiers.

Both sweep accelerations follow from one property of the scheme, never
from a knob: for an anonymous scheme the decoder cannot see identifiers,
so automorphic ``(ports, ids)`` bases and stabilizer-orbit labelings add
no view or edge (orbit pruning), and the sweep at ``n`` extends the
sweep at ``n - 1`` (the warm start).

The numpy kernels of :mod:`repro.kernel` run every unanimity sweep as a
prefix-pruned join and orderly generation's canonicalization searches in
batches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..certification.lcp import LCP
from ..graphs.families import warm_graph_families
from ..neighborhood.aviews import (
    graph_source,
    yes_instances_between,
    yes_instances_up_to,
)
from ..neighborhood.hiding import HidingVerdict
from ..neighborhood.ngraph import build_neighborhood_graph
from ..obs.logs import get_logger
from ..obs.progress import counting_instances
from ..kernel import KERNEL_BATCH
from ..kernel.batch import KERNEL_BLOCK_SIZE
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


def family_key(lcp: LCP, plan: ExecutionPlan) -> tuple:
    """The sweep identity *without* ``n``: the sorted items of
    :func:`disk_key` but ``n``, so every tier keys a sweep by the same
    fields (scheme, decoder, enumeration bounds, early-exit mode,
    campaign axes).  Orbit pruning follows ``lcp.anonymous``, already
    part of the identity; the kernel route is not (byte-identical
    streams)."""
    key = disk_key(lcp, 0, plan)
    del key["n"]
    return tuple(sorted(key.items()))


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
        # Every sweep admits all unanimously accepted labelings; the
        # constant keeps pre-existing entries at their addresses.
        "include_all_accepted_labelings": True,
        "labeling_limit": plan.labeling_limit,
        "early_exit": plan.early_exit,
    }
    # Only for anonymous schemes, the ones whose sweeps are orbit-pruned:
    # pre-symmetry entries keep their content addresses and are never
    # misread by pruned sweeps (whose early-exit instance counts can
    # legitimately differ).
    if lcp.anonymous:
        key["symmetry"] = "on"
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
        "labeling_limit": plan.labeling_limit,
        "family": plan.graph_family,
        "alphabet_limit": plan.alphabet_limit,
    }


def _envelope(
    lcp: LCP,
    n: int,
    plan: ExecutionPlan,
    result: HidingVerdict,
    elapsed: float,
    ctx: RunContext | None = None,
    **flags,
) -> Verdict:
    g = result.ngraph
    provenance = Provenance(
        backend=plan.backend,
        n=n,
        early_exit=plan.early_exit,
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
        k=result.k,
        hiding=result.hiding,
        witness=result.odd_cycle,
        coloring=result.coloring,
        ngraph=g,
        provenance=provenance,
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


# ----------------------------------------------------------------------
# Streaming backend (early exit, warm starts)
# ----------------------------------------------------------------------


class StreamingBackend:
    """Fused incremental decision with early exit and warm starts.

    Anonymous schemes only warm-start: the last finished sweep per
    family key (without ``n``) is parked in ``ctx.memory_store()``, so
    an isolated context starts cold.  :meth:`shortcut` may answer from
    the warm-start witness before any cache tier is consulted;
    :meth:`run` sweeps."""

    name = "streaming"

    @contextmanager
    def _kernel_span(self, ctx: RunContext):
        """Wrap the build in a ``kernel:batch`` span whose attributes
        report the batch counters the sweep accumulated."""
        before_batches = ctx.stats.get("kernel_batches")
        before_labelings = ctx.stats.get("kernel_labelings")
        with ctx.tracer.span(
            f"kernel:{KERNEL_BATCH}", block_size=KERNEL_BLOCK_SIZE
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
        if not (plan.early_exit and lcp.anonymous):
            return None
        state = ctx.memory_store().warm.get(family_key(lcp, plan))
        if state is None:
            return None
        warm_n, engine = state
        if warm_n > n or not engine.witness_found:
            return None
        ctx.stats.incr("warm_witness_hits")
        log.debug(
            "%s: warm-start witness from n=%d answers n=%d", lcp.name, warm_n, n
        )
        return _envelope(
            lcp,
            n,
            plan,
            engine.verdict(exhaustive=True),
            0.0,
            ctx,
            warm_witness_hit=True,
            symmetry_pruned=True,
        )

    def run(self, lcp: LCP, n: int, plan: ExecutionPlan, ctx: RunContext) -> Verdict:
        from ..neighborhood.streaming import StreamingHidingEngine  # noqa: PLC0415

        family = family_key(lcp, plan)
        warm = ctx.memory_store().warm
        state = warm.get(family)  # parked for anonymous schemes only
        start = time.perf_counter()
        warm_started = False
        account = SymmetryAccount() if lcp.anonymous else None
        with ctx.stats.time_stage("streaming_sweep"):
            with ctx.tracer.span("sweep", n=n, early_exit=plan.early_exit) as sweep:
                if state is not None and state[0] <= n:
                    ctx.stats.incr("warm_starts")
                    warm_started = True
                    lo, engine = state
                    engine = engine.clone()
                    engine.stats = ctx.stats
                else:
                    lo = 0
                    engine = StreamingHidingEngine(
                        lcp.k,
                        lcp.radius,
                        not lcp.anonymous,
                        early_exit=plan.early_exit,
                        stats=ctx.stats,
                    )
                with ctx.tracer.span("symmetry:generate", n=n) as gen:
                    # Early-exit sweeps generate lazily: pre-building
                    # every family would waste the exit.
                    gen.set_attributes(
                        sizes_warmed=0
                        if plan.early_exit
                        else warm_graph_families(
                            lo, n, **graph_source(lcp, plan.graph_family)
                        ),
                        deferred=plan.early_exit,
                    )
                sweep_args = dict(
                    **_enumeration_bounds(plan),
                    account=account,
                    stats=ctx.stats,
                )
                instances = (
                    yes_instances_between(lcp, lo, n, **sweep_args)
                    if warm_started
                    else yes_instances_up_to(lcp, n, **sweep_args)
                )
                with self._kernel_span(ctx):
                    build_neighborhood_graph_auto(
                        lcp,
                        _with_progress(instances, lcp, n, ctx),
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
            result = engine.verdict(exhaustive=True)
        if lcp.anonymous:
            warm[family] = (n, engine)
        elapsed = time.perf_counter() - start
        return _envelope(
            lcp,
            n,
            plan,
            result,
            elapsed,
            ctx,
            warm_started=warm_started,
            symmetry_pruned=account is not None,
        )


#: The engine's one backend instance (:func:`repro.engine.decide_hiding`).
STREAMING = StreamingBackend()


def available_backends() -> list[str]:
    """Backend names :meth:`ExecutionPlan.resolve` accepts besides
    ``"auto"``."""
    return [STREAMING.name]
