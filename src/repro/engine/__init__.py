"""The hiding-decision engine: one entrypoint, declarative plans.

This package puts every hiding decision — early-exit or full sweeps —
behind a single serial pipeline::

    plan = ExecutionPlan(backend="streaming", disk_cache=True)
    verdict = decide_hiding(lcp, n=5, plan=plan)
    print(verdict.summary())
    print(verdict.provenance.summary())   # backend, cache tier, wall time

* :class:`ExecutionPlan` — *how* to decide: early exit × cache tiers ×
  enumeration bounds.  Orbit pruning and warm starts are not plan
  fields: both follow ``lcp.anonymous``.  An unset ``disk_cache``
  resolves against the session's :class:`~repro.perf.config.PerfConfig`.
* :func:`decide_hiding` — *what* to decide; returns a :class:`Verdict`
  envelope (decision + canonical witness + graph + :class:`Provenance`).
* :class:`RunContext` — explicit config/stats/cache carriers for callers
  that must not touch process-wide state.
* :class:`VerdictStore` — the cache-tier protocol; memory and disk tiers
  ship, new tiers plug into a context.
"""

from .backends import ENGINE_VERSION, StreamingBackend, available_backends
from .context import RunContext
from .core import clear_engine_state, decide_hiding
from .plan import BACKEND_AUTO, BACKEND_STREAMING, ExecutionPlan
from .stores import DiskVerdictStore, MemoryVerdictStore, VerdictStore
from .verdict import Provenance, Verdict

__all__ = [
    "ENGINE_VERSION",
    "BACKEND_AUTO",
    "BACKEND_STREAMING",
    "DiskVerdictStore",
    "ExecutionPlan",
    "MemoryVerdictStore",
    "Provenance",
    "RunContext",
    "StreamingBackend",
    "Verdict",
    "VerdictStore",
    "available_backends",
    "clear_engine_state",
    "decide_hiding",
]
