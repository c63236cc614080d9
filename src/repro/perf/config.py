"""Tunable knobs for the V(D, n) fast path.

One module-level :class:`PerfConfig` holds the disk-tier defaults every
:class:`~repro.engine.plan.ExecutionPlan` resolves against.  No field
picks a kernel route, orbit pruning or warm starts: every sweep runs the
numpy kernels of :mod:`repro.kernel`, serially in the calling process,
and prunes and warm-starts exactly when its scheme is anonymous.
Experiments and the CLI mutate it through :func:`configure` or scope
changes with :func:`overridden`.  The in-process caches (view layouts,
acceptance tables, graph families, generation levels) are always on;
their sizes are constants of the modules that own them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass
class PerfConfig:
    """Switches for the performance subsystem.

    * ``disk_cache`` — persist sweep verdicts under
      ``.repro_cache/`` so repeated processes skip re-enumeration
      entirely (see :mod:`repro.perf.persist`).
    * ``disk_cache_dir`` — override the cache directory (default:
      ``$REPRO_CACHE_DIR`` or ``./.repro_cache``).
    """

    disk_cache: bool = False
    disk_cache_dir: str | None = None

    def apply(self, **kwargs) -> "PerfConfig":
        """Update fields in place (unknown names raise); returns self."""
        valid = {f.name for f in fields(PerfConfig)}
        for key, value in kwargs.items():
            if key not in valid:
                raise TypeError(f"unknown perf config field {key!r}")
            setattr(self, key, value)
        return self

    @contextmanager
    def overridden(self, **kwargs):
        """Scope field overrides to a ``with`` block — the preferred way
        for surfaces (runner, CLI, tests) to set knobs without leaking
        them into the rest of the process.  ``None`` values mean "leave
        this knob alone", so call sites can forward optional arguments
        unfiltered."""
        effective = {k: v for k, v in kwargs.items() if v is not None}
        saved = {key: getattr(self, key) for key in effective}
        self.apply(**effective)
        try:
            yield self
        finally:
            self.apply(**saved)


CONFIG = PerfConfig()


def configure(**kwargs) -> PerfConfig:
    """Update the global :data:`CONFIG` in place; returns it."""
    return CONFIG.apply(**kwargs)


@contextmanager
def overridden(**kwargs):
    """Temporarily override :data:`CONFIG` fields (tests and benchmarks)."""
    with CONFIG.overridden(**kwargs) as config:
        yield config
