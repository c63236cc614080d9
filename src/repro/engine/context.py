"""Explicit run context for the engine: config + stats + tracer +
cache tiers.

Pre-engine code threaded the perf knobs and counters through two mutable
module globals (``repro.perf.CONFIG`` and ``GLOBAL_STATS``), which every
layer imported and mutated on its own.  A :class:`RunContext` carries
them explicitly: :func:`repro.engine.decide_hiding` resolves its plan
against ``ctx.config`` once, records counters on ``ctx.stats``, and
consults ``ctx.memory_store()`` — nothing in the engine writes a module
global.  The disk tier is one shared store over ``.repro_cache/``,
whose directory the config names.  ``RunContext.default()`` binds the
process-wide objects, so call sites that never build a context keep the
historical behavior; tests and benchmarks build isolated contexts
instead of save/restore dances.

``ctx.stats`` is the run's one counter record: a run report dumps it,
the CLI's ``--perf-stats`` block renders it, and a live tracer bound to
it stores each span's share of it.  Progress events go to the
process-wide :data:`~repro.obs.progress.GLOBAL_PROGRESS` bus; a context
carries no bus of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..obs.trace import NULL_TRACER, Tracer
from ..perf.config import CONFIG, PerfConfig
from ..perf.stats import GLOBAL_STATS, PerfStats
from .stores import MemoryVerdictStore

#: Process-wide memo tier (cleared by ``clear_engine_state``).
_SHARED_MEMORY_STORE = MemoryVerdictStore()


@dataclass
class RunContext:
    """Everything a hiding decision needs besides the question itself.

    * ``config`` — the :class:`PerfConfig` plans resolve against
      (default: the live global ``CONFIG``, read once per decision).
    * ``stats`` — the :class:`PerfStats` sink for every counter of the
      run.
    * ``tracer`` — the :class:`~repro.obs.trace.Tracer` collecting the
      run's span tree; the default :data:`~repro.obs.trace.NULL_TRACER`
      records nothing at zero cost.  A live tracer that holds no stats
      yet is bound to ``stats``, so its spans record their counters.
    * ``memory`` — the memo tier, which also parks the warm-start
      states; ``None`` falls back to the shared process-wide store.
    """

    config: PerfConfig = field(default_factory=lambda: CONFIG)
    stats: PerfStats = field(default_factory=lambda: GLOBAL_STATS)
    tracer: Tracer = field(default=NULL_TRACER)
    memory: MemoryVerdictStore | None = None

    def __post_init__(self) -> None:
        if self.tracer.active and self.tracer.stats is None:
            self.tracer.stats = self.stats

    @classmethod
    def default(cls) -> "RunContext":
        """The context bound to the process-wide config/stats/stores."""
        return cls()

    @classmethod
    def isolated(cls, config: PerfConfig | None = None) -> "RunContext":
        """A context with private stats and memo tier (tests,
        benchmarks) — nothing it records leaks into the process
        state, and its first sweep starts cold: the warm-start states
        live in the memo tier."""
        return cls(
            config=config if config is not None else CONFIG,
            stats=PerfStats(),
            memory=MemoryVerdictStore(),
        )

    @classmethod
    def observed(
        cls,
        tracer: Tracer | None = None,
        config: PerfConfig | None = None,
    ) -> "RunContext":
        """An isolated context wired for observability: a live tracer
        bound to a fresh stats handle — what the CLI's
        ``--trace``/``--trace-out`` builds per run."""
        ctx = cls.isolated(config=config)
        return replace(ctx, tracer=tracer if tracer is not None else Tracer())

    def memory_store(self) -> MemoryVerdictStore:
        return self.memory if self.memory is not None else _SHARED_MEMORY_STORE
