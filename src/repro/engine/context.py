"""Explicit run context for the engine: config + stats + tracer +
progress bus + cache tiers.

Pre-engine code threaded the perf knobs and counters through two mutable
module globals (``repro.perf.CONFIG`` and ``GLOBAL_STATS``), which every
layer imported and mutated on its own.  A :class:`RunContext` carries
them explicitly: :func:`repro.engine.decide_hiding` resolves its plan
against ``ctx.config`` once, records counters on ``ctx.stats``, and
consults ``ctx.memory_store()`` / ``ctx.disk`` — nothing in the
engine writes a module global.  ``RunContext.default()`` binds the
process-wide objects, so call sites that never build a context keep the
historical behavior; tests and benchmarks build isolated contexts
instead of save/restore dances.

``ctx.stats`` is the run's one counter record: a run report dumps it
and the CLI's ``--perf-stats`` block renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..obs.progress import GLOBAL_PROGRESS, ProgressBus
from ..obs.trace import NULL_TRACER, Tracer
from ..perf.config import CONFIG, PerfConfig
from ..perf.stats import GLOBAL_STATS, PerfStats
from .stores import DiskVerdictStore, MemoryVerdictStore, VerdictStore

#: Process-wide memo tier (cleared by ``clear_engine_state``).
_SHARED_MEMORY_STORE = MemoryVerdictStore()

_SHARED_DISK_STORE = DiskVerdictStore()


@dataclass
class RunContext:
    """Everything a hiding decision needs besides the question itself.

    * ``config`` — the :class:`PerfConfig` plans resolve against
      (default: the live global ``CONFIG``, read once per decision).
    * ``stats`` — the :class:`PerfStats` sink for every counter and
      stage timer of the run.
    * ``tracer`` — the :class:`~repro.obs.trace.Tracer` collecting the
      run's span tree; the default :data:`~repro.obs.trace.NULL_TRACER`
      records nothing at zero cost.
    * ``progress`` — the :class:`~repro.obs.progress.ProgressBus` for
      live telemetry events.  The default is the process-wide
      :data:`~repro.obs.progress.GLOBAL_PROGRESS` bus, which with no
      subscribers costs one truthiness test per emission — subscribe a
      renderer or sink there to observe any default-context run.
      Purely observational: nothing downstream of an event feeds back
      into decisions or cache identities.
    * ``memory`` — the memo tier; ``None`` falls back to the shared
      process-wide store.
    * ``disk`` — the persistent tier.
    """

    config: PerfConfig = field(default_factory=lambda: CONFIG)
    stats: PerfStats = field(default_factory=lambda: GLOBAL_STATS)
    tracer: Tracer = field(default=NULL_TRACER)
    progress: ProgressBus = field(default_factory=lambda: GLOBAL_PROGRESS)
    memory: MemoryVerdictStore | None = None
    disk: VerdictStore = field(default_factory=lambda: _SHARED_DISK_STORE)

    @classmethod
    def default(cls) -> "RunContext":
        """The context bound to the process-wide config/stats/stores."""
        return cls()

    @classmethod
    def isolated(cls, config: PerfConfig | None = None) -> "RunContext":
        """A context with private stats, progress bus, and memo tier
        (tests, benchmarks) — nothing it records leaks into the process
        state."""
        return cls(
            config=config if config is not None else CONFIG,
            stats=PerfStats(),
            progress=ProgressBus(),
            memory=MemoryVerdictStore(),
        )

    @classmethod
    def observed(
        cls,
        tracer: Tracer | None = None,
        config: PerfConfig | None = None,
    ) -> "RunContext":
        """An isolated context wired for observability: a live tracer
        plus a fresh stats handle — what the CLI's
        ``--trace``/``--trace-out`` builds per run."""
        ctx = cls.isolated(config=config)
        return replace(ctx, tracer=tracer if tracer is not None else Tracer())

    def memory_store(self) -> MemoryVerdictStore:
        return self.memory if self.memory is not None else _SHARED_MEMORY_STORE
