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
* :class:`RunContext` — explicit config/stats/tracer/memo-tier carriers
  for callers that must not touch process-wide state.
* :class:`MemoryVerdictStore` and :class:`DiskVerdictStore` — the memo
  and persistent cache tiers.  :mod:`repro.engine.stores` is the whole
  disk tier: the file layout, the label/view codec, the strict decoder
  and the certificate checks a reload must pass.
* :mod:`repro.engine.backends` — the sweep itself
  (:func:`~repro.engine.backends.sweep`) and the warm-start witness
  that can answer before it (:func:`~repro.engine.backends.warm_witness`).
"""

from .backends import ENGINE_VERSION, available_backends
from .context import RunContext
from .core import clear_engine_state, decide_hiding
from .plan import BACKEND_AUTO, BACKEND_STREAMING, ExecutionPlan
from .stores import DiskVerdictStore, MemoryVerdictStore
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
    "Verdict",
    "available_backends",
    "clear_engine_state",
    "decide_hiding",
]
