"""The campaign driver: execute every cell, keep per-cell provenance.

:func:`run_campaign` walks the spec's ordered cell stream and answers
each cell through :func:`repro.engine.decide_hiding` — one resolved
base plan, re-scoped per cell for the family/alphabet axes, with the
``k``/``r`` axes passed as real decision inputs.  Every cell lands in a
:class:`CellResult` carrying the verdict, the decision fingerprint, and
the provenance the engine recorded (backend, scan counts, cache tier,
wall time); a cell that raises is recorded as an errored result instead
of aborting the campaign.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from ..core.registry import make_lcp
from ..engine.context import RunContext
from ..engine.core import decide_hiding
from ..engine.plan import ExecutionPlan
from ..obs.logs import get_logger
from ..perf.pool import shared_pool
from .spec import CampaignSpec, Cell

log = get_logger("campaign")

#: Provenance fields copied into cell results and report payloads.
_PROVENANCE_FIELDS = (
    "backend",
    "workers",
    "early_exit",
    "instances_scanned",
    "views",
    "edges",
    "memory_cache_hit",
    "disk_cache_hit",
    "warm_started",
    "warm_witness_hit",
    "symmetry_pruned",
    "kernel",
    "shard_count",
    "steal_count",
    "shards_per_sec",
    "wall_time_s",
    "trace_id",
)


@dataclass(frozen=True)
class CellResult:
    """One decided (or errored) cell.

    ``hiding`` is the Lemma 3.2 verdict; ``colorable`` is its
    complement — whether ``V(D, n)`` is ``k``-colorable — recorded
    explicitly because that is the quantity the frontier report tracks.
    ``fingerprint`` is the verdict's
    :meth:`~repro.engine.verdict.Verdict.digest` of its
    :meth:`~repro.engine.verdict.Verdict.decision_fingerprint`, the
    byte-level identity of the one decision route (stream-order witness
    and coloring) that the plan-equivalence suite pins across kernel,
    worker, sharding, and cache-tier variants.  ``trace_id`` is promoted out of the provenance
    dict so frontier rows join directly against span exports and run
    reports (``None`` for untraced or errored cells).
    """

    cell: Cell
    hiding: bool | None = None
    colorable: bool | None = None
    fingerprint: str | None = None
    provenance: dict | None = None
    wall_time_s: float = 0.0
    error: str | None = None
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "cell": self.cell.axes(),
            "hiding": self.hiding,
            "colorable": self.colorable,
            "fingerprint": self.fingerprint,
            "provenance": self.provenance,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
            "trace_id": self.trace_id,
        }


@dataclass(frozen=True)
class CampaignRun:
    """A finished campaign: the spec, the resolved base plan, and one
    :class:`CellResult` per expanded cell, in cell-stream order."""

    spec: CampaignSpec
    plan: ExecutionPlan
    results: tuple[CellResult, ...]
    wall_time_s: float

    @property
    def cells_per_sec(self) -> float | None:
        if self.wall_time_s <= 0.0:
            return None
        return len(self.results) / self.wall_time_s

    @property
    def errors(self) -> list[CellResult]:
        return [result for result in self.results if not result.ok]


def run_campaign(
    spec: CampaignSpec,
    ctx: RunContext | None = None,
    progress: Callable[[CellResult], None] | None = None,
) -> CampaignRun:
    """Execute every cell of *spec*; never aborts on a cell error.

    The spec's base plan is resolved once against ``ctx.config`` and
    re-scoped per cell (:meth:`Cell.plan`); ``k``/``r`` travel as
    decision inputs so native-parameter cells answer from the exact
    pre-campaign cache addresses.  *progress* (when given) is called
    with each finished :class:`CellResult` — the CLI's live table.
    """
    if ctx is None:
        ctx = RunContext.default()
    base = spec.plan.resolve(ctx.config)
    results = []
    start = time.perf_counter()
    # The cell stream is deterministic and cheap to expand; materialize
    # it so the bus can announce the total count (the ETA denominator).
    cells = list(spec.cells())
    bus = ctx.progress
    bus.emit(
        "campaign_started",
        total_cells=len(cells),
        schemes=list(spec.schemes),
        trace_id=ctx.tracer.trace_id if ctx.tracer.active else None,
    )
    # One process pool for the whole campaign: sharded cells reuse it via
    # repro.perf.pool.active_pool instead of paying pool spawn/teardown
    # per cell.  Only plans that take the shard route need it.
    pool_scope = shared_pool(base.workers) if base.uses_shards else nullcontext()
    with pool_scope, ctx.tracer.span(
        "campaign", schemes=",".join(spec.schemes)
    ) as root:
        for cell in cells:
            bus.emit("cell_started", label=cell.label(), cell=cell.axes())
            result = _run_cell(cell, base, ctx)
            results.append(result)
            bus.emit(
                "cell_finished",
                label=cell.label(),
                cell=cell.axes(),
                hiding=result.hiding,
                error=result.error,
                wall_time_s=result.wall_time_s,
                trace_id=result.trace_id,
            )
            if progress is not None:
                progress(result)
        root.set_attributes(
            cells=len(results), errors=sum(1 for r in results if not r.ok)
        )
    elapsed = time.perf_counter() - start
    bus.emit(
        "campaign_finished",
        cells=len(results),
        errors=sum(1 for r in results if not r.ok),
        wall_time_s=elapsed,
    )
    log.info(
        "campaign finished: %d cells in %.2fs (%d errors)",
        len(results),
        elapsed,
        sum(1 for r in results if not r.ok),
    )
    return CampaignRun(
        spec=spec, plan=base, results=tuple(results), wall_time_s=elapsed
    )


def _run_cell(cell: Cell, base: ExecutionPlan, ctx: RunContext) -> CellResult:
    start = time.perf_counter()
    try:
        with ctx.tracer.span("cell", label=cell.label()):
            verdict = decide_hiding(
                make_lcp(cell.scheme),
                cell.n,
                cell.plan(base),
                k=cell.k,
                r=cell.r,
                ctx=ctx,
            )
    except Exception as exc:  # noqa: BLE001 — a bad cell must not kill the sweep
        log.warning("cell %s failed: %s", cell.label(), exc)
        return CellResult(
            cell=cell,
            wall_time_s=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    provenance = dataclasses.asdict(verdict.provenance)
    return CellResult(
        cell=cell,
        hiding=verdict.hiding,
        colorable=None if verdict.hiding is None else not verdict.hiding,
        fingerprint=verdict.digest(),
        provenance={name: provenance[name] for name in _PROVENANCE_FIELDS},
        wall_time_s=time.perf_counter() - start,
        error=None,
        trace_id=provenance.get("trace_id"),
    )
