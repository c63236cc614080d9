"""Lightweight counters for the V(D, n) pipeline.

A :class:`PerfStats` object accumulates integer counters (instances
scanned, views extracted vs. relabeled, layout hits/misses, ...).  It
records no time: the tracer's spans time every stage.  The builders
update :data:`GLOBAL_STATS` by default; callers who want isolated
measurements (benchmarks, tests) pass their own instance — the engine's
:class:`~repro.engine.context.RunContext` threads one stats handle
through the whole decision path.

It is the one counter record of a run: the run report dumps it and
checks the verdict's provenance counts against it, and the end-to-end
benchmark reads its per-layer counts from :data:`GLOBAL_STATS`.
"""

from __future__ import annotations


class PerfStats:
    """Mutable bag of counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        self.counters.clear()

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
        return {"counters": dict(self.counters)}

    def render(self) -> str:
        """Human-readable summary block (used by the CLI and reports)."""
        lines = ["perf stats:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<28s} {self.counters[name]}")
        for prefix in ("layout", "family_cache", "disk"):
            rate = self.hit_rate(prefix)
            if rate is not None:
                lines.append(f"  {prefix + '_hit_rate':<28s} {rate:.1%}")
        if len(lines) == 1:
            lines.append("  (no activity recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PerfStats(counters={len(self.counters)})"


#: Process-wide accumulator; builders fall back to this when no stats
#: object is passed explicitly.
GLOBAL_STATS = PerfStats()
