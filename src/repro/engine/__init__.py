"""The hiding-decision engine: one entrypoint, declarative plans.

This package unifies the repository's hiding-decision paths
(materialized sweep, streaming early-exit sweep, parallel builds of
either) behind a single pipeline::

    plan = ExecutionPlan(backend="streaming", workers=4, disk_cache=True)
    verdict = decide_hiding(lcp, n=5, plan=plan)
    print(verdict.summary())
    print(verdict.provenance.summary())   # backend, cache tier, wall time

* :class:`ExecutionPlan` — *how* to decide: backend × kernel × workers
  × early-exit/warm-start × cache tiers.  Unset fields resolve against the
  session's :class:`~repro.perf.config.PerfConfig`.
* :func:`decide_hiding` — *what* to decide; returns a :class:`Verdict`
  envelope (decision + canonical witness + graph + :class:`Provenance`).
* :class:`RunContext` — explicit config/stats/cache carriers for callers
  that must not touch process-wide state.
* :class:`VerdictStore` — the cache-tier protocol; memory and disk tiers
  ship, new tiers plug into a context.
* :func:`register_backend` — the backend registry; new sweep strategies
  plug in without touching any call site.
"""

from .backends import (
    ENGINE_VERSION,
    Backend,
    MaterializedBackend,
    StreamingBackend,
    available_backends,
    clear_warm_states,
    get_backend,
    register_backend,
)
from .context import RunContext, shared_memory_store
from .core import clear_engine_state, clear_memory_store, decide_hiding
from .plan import (
    BACKEND_AUTO,
    BACKEND_MATERIALIZED,
    BACKEND_STREAMING,
    ExecutionPlan,
)
from .stores import DiskVerdictStore, MemoryVerdictStore, VerdictStore
from .verdict import Provenance, Verdict

__all__ = [
    "ENGINE_VERSION",
    "BACKEND_AUTO",
    "BACKEND_MATERIALIZED",
    "BACKEND_STREAMING",
    "Backend",
    "DiskVerdictStore",
    "ExecutionPlan",
    "MaterializedBackend",
    "MemoryVerdictStore",
    "Provenance",
    "RunContext",
    "StreamingBackend",
    "Verdict",
    "VerdictStore",
    "available_backends",
    "clear_engine_state",
    "clear_memory_store",
    "clear_warm_states",
    "decide_hiding",
    "get_backend",
    "register_backend",
    "shared_memory_store",
]
