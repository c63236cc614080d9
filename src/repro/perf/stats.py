"""Lightweight counters and stage timers for the V(D, n) pipeline.

A :class:`PerfStats` object accumulates integer counters (instances
scanned, views extracted vs. relabeled, memo hits/misses, ...) and
wall-clock time per named stage.  The builders update :data:`GLOBAL_STATS`
by default; callers who want isolated measurements (benchmarks, tests)
pass their own instance — the engine's :class:`~repro.engine.context.
RunContext` threads one stats handle through the whole decision path.

It is the one counter record of a run: the run report dumps it and
checks the verdict's provenance counts against it, and the end-to-end
benchmark reads its per-layer counts from :data:`GLOBAL_STATS`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class PerfStats:
    """Mutable bag of counters and stage timings."""

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, stage: str, seconds: float) -> None:
        self.timers[stage] = self.timers.get(stage, 0.0) + seconds

    @contextmanager
    def time_stage(self, stage: str):
        """Accumulate wall time of the enclosed block under *stage*."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_time(stage, time.perf_counter() - start)

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()

    # ------------------------------------------------------------------
    # Queries and rendering
    # ------------------------------------------------------------------

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def hit_rate(self, prefix: str) -> float | None:
        """``<prefix>_hits / (<prefix>_hits + <prefix>_misses)``, or ``None``."""
        hits = self.counters.get(f"{prefix}_hits", 0)
        misses = self.counters.get(f"{prefix}_misses", 0)
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def as_dict(self) -> dict:
        return {"counters": dict(self.counters), "timers": dict(self.timers)}

    def render(self) -> str:
        """Human-readable summary block (used by the CLI and reports)."""
        lines = ["perf stats:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<28s} {self.counters[name]}")
        for prefix in ("layout", "memo", "family_cache", "canonical", "disk"):
            rate = self.hit_rate(prefix)
            if rate is not None:
                lines.append(f"  {prefix + '_hit_rate':<28s} {rate:.1%}")
        for stage in sorted(self.timers):
            lines.append(f"  {stage + ' (s)':<28s} {self.timers[stage]:.3f}")
        if len(lines) == 1:
            lines.append("  (no activity recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PerfStats(counters={len(self.counters)}, timers={len(self.timers)})"


#: Process-wide accumulator; builders fall back to this when no stats
#: object is passed explicitly.
GLOBAL_STATS = PerfStats()
