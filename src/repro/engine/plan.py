"""Declarative execution plans for the hiding decision.

An :class:`ExecutionPlan` says *how* a Lemma 3.2 sweep should run —
whether the sweep stops at the first witness or builds the complete
``V(D, n)``, whether the cross-``n`` warm start applies, and which
cache tiers (in-memory memo, on-disk store) may serve or record the
verdict — without saying anything about *what* is decided.  Every sweep
runs in one process, serially.
The what (scheme, ``n``) goes to :func:`repro.engine.decide_hiding`;
the plan is reusable across schemes and sweeps.

Fields left at ``None`` are resolved against a :class:`~repro.perf.config.
PerfConfig` at decision time (:meth:`ExecutionPlan.resolve`), so a plan
built once by a surface (CLI, runner, benchmark) picks up the session's
knobs without re-reading globals itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..perf.config import CONFIG, PerfConfig

#: Known backend names; "auto" resolves to the one backend.
BACKEND_AUTO = "auto"
BACKEND_STREAMING = "streaming"


@dataclass(frozen=True)
class ExecutionPlan:
    """How a hiding decision should execute.

    * ``backend`` — ``"streaming"`` (fused incremental decision) or
      ``"auto"``, which resolves to it.  The one route; the field stays
      so existing ``backend="streaming"`` plans keep working and
      provenance names the route that ran.
    * ``early_exit`` — stop the sweep at the first
      non-``k``-colorability witness (the default).  ``False`` keeps the
      fused decision but builds the complete ``V(D, n)`` — what callers
      that measure the graph itself (``χ(V)``, extraction decoders)
      need.
    * ``warm_start`` — resume from the last finished sweep of the same
      scheme and early-exit mode at smaller ``n`` (anonymous schemes).
      ``None`` defers to ``CONFIG.warm_start``.
    * ``memory_cache`` — consult/populate the in-process verdict memo.
    * ``disk_cache`` — consult/populate the persistent store under
      ``.repro_cache/``.  ``None`` defers to ``CONFIG.disk_cache``.
    * ``port_limit`` / ``id_order_types`` / ``labeling_limit`` — the
      Lemma 3.1 enumeration bounds; part of the plan because they define
      the sweep's identity for every cache tier.  ``port_limit`` must be
      at least 1 and ``labeling_limit`` at least 0 (0 admits no
      exhaustive pass: prover labelings only).  Every sweep runs the
      exhaustive unanimity pass on each base whose labeling space over
      the scheme's finite certificate alphabet fits ``labeling_limit``.
    * ``symmetry`` — the orbit-pruning mode: ``"off"`` (no pruning),
      ``"on"`` (automorphism-orbit pruning of bases and labelings), or
      ``"auto"`` (pruning only for anonymous schemes).  ``None`` defers
      to ``CONFIG.symmetry``.  Graph generation is orderly in every
      mode.  Suppressed instances are folded back into
      ``Provenance.instances_scanned``, so full-sweep provenance is
      regime-independent; when pruning is effective the sweep's disk
      identity is tagged so pre-symmetry cache entries are never misread.
    * ``graph_family`` — a registered named graph family
      (:data:`repro.graphs.families.GRAPH_FAMILIES`) restricting the
      sweep's graph enumeration; ``"all"`` (the default) is the full
      Lemma 3.1 sweep.  The filter composes with the scheme's own
      ``is_yes_instance`` check.  Part of every cache identity; the disk
      key records it only when non-default, so pre-campaign
      ``.repro_cache/`` entries keep their content addresses.
    * ``alphabet_limit`` — cap the exhaustive unanimity pass to the
      first ``alphabet_limit`` letters of the scheme's certificate
      alphabet (the campaign layer's alphabet-size axis).  ``None`` (the
      default) uses the full alphabet.  Changes sweep content, so a set
      value is part of every cache identity (disk key: only when set).
    """

    backend: str = BACKEND_AUTO
    early_exit: bool = True
    warm_start: bool | None = None
    memory_cache: bool = True
    disk_cache: bool | None = None
    port_limit: int = 64
    id_order_types: bool = False
    labeling_limit: int = 20_000
    symmetry: str | None = None
    graph_family: str = "all"
    alphabet_limit: int | None = None

    def resolve(self, config: PerfConfig | None = None) -> "ExecutionPlan":
        """Fill every ``None``/``auto`` field from *config* (default: the
        global :data:`~repro.perf.config.CONFIG`)."""
        config = config if config is not None else CONFIG
        if self.backend not in (BACKEND_AUTO, BACKEND_STREAMING):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {BACKEND_AUTO}, {BACKEND_STREAMING}"
            )
        warm = self.warm_start if self.warm_start is not None else config.warm_start
        disk = self.disk_cache if self.disk_cache is not None else config.disk_cache
        symmetry = self.symmetry if self.symmetry is not None else config.symmetry
        if symmetry not in ("auto", "on", "off"):
            raise ValueError(
                f"unknown symmetry mode {symmetry!r}; known: auto, on, off"
            )
        from ..graphs.families import graph_family_predicate  # noqa: PLC0415

        graph_family_predicate(self.graph_family)  # raises for unknown names
        if self.alphabet_limit is not None and self.alphabet_limit < 1:
            raise ValueError(
                f"alphabet_limit must be positive, got {self.alphabet_limit}"
            )
        if self.port_limit < 1:
            raise ValueError(f"port_limit must be positive, got {self.port_limit}")
        if self.labeling_limit < 0:
            raise ValueError(
                f"labeling_limit must be non-negative, got {self.labeling_limit}"
            )
        return replace(
            self,
            backend=BACKEND_STREAMING,
            warm_start=warm,
            disk_cache=disk,
            symmetry=symmetry,
        )

    def describe(self) -> str:
        """One-line human summary (CLI provenance output)."""
        tiers = [
            name
            for name, on in (("memory", self.memory_cache), ("disk", self.disk_cache))
            if on
        ]
        symmetry = "auto" if self.symmetry is None else self.symmetry
        text = (
            f"backend={self.backend} "
            f"early_exit={self.early_exit} warm_start={self.warm_start} "
            f"cache={'+'.join(tiers) if tiers else 'none'} "
            f"symmetry={symmetry}"
        )
        if self.graph_family != "all":
            text += f" graph_family={self.graph_family}"
        if self.alphabet_limit is not None:
            text += f" alphabet_limit={self.alphabet_limit}"
        return text

