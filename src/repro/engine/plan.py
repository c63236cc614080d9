"""Declarative execution plans for the hiding decision.

An :class:`ExecutionPlan` says *how* a Lemma 3.2 sweep should run —
how many workers scan the enumeration, whether the sweep stops at the
first witness or builds the complete ``V(D, n)``, whether the
cross-``n`` warm start applies, and which cache tiers (in-memory memo,
on-disk store) may serve or record the verdict — without saying
anything about *what* is decided.
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
    * ``workers`` — processes of the shard pool; ``None`` defers to
      ``CONFIG.workers``, ``0``/``1`` mean serial.  Only sweeps the
      ``sharding`` rule routes to the pool use them; every other sweep
      runs serially.  The verdict and its provenance are byte-identical
      for every worker count (the shard executor replays in serial
      order).
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
    * ``port_limit`` / ``id_order_types`` / ``include_all_accepted_labelings``
      / ``labeling_limit`` — the Lemma 3.1 enumeration bounds; part of
      the plan because they define the sweep's identity for every cache
      tier.
    * ``symmetry`` — the orbit-pruning mode: ``"off"`` (no pruning),
      ``"on"`` (automorphism-orbit pruning of bases and labelings), or
      ``"auto"`` (pruning only for anonymous schemes).  ``None`` defers
      to ``CONFIG.symmetry``.  Graph generation is orderly in every
      mode.  Suppressed instances are folded back into
      ``Provenance.instances_scanned``, so full-sweep provenance is
      regime-independent; when pruning is effective the sweep's disk
      identity is tagged so pre-symmetry cache entries are never misread.
    * ``kernel`` — the numpy kernel mode (``"auto"`` | ``"off"``) of
      :mod:`repro.kernel`, for both the unanimity pass and orderly
      generation.  ``None`` defers to ``CONFIG.kernel``; resolve
      normalizes ``"auto"`` to ``"off"`` when numpy is unavailable.
      Streams and verdicts are byte-identical either way, so this knob
      never enters a cache identity.
    * ``kernel_labeling_limit`` — an elevated admission limit for the
      exhaustive unanimity pass, honored only where the batch kernel
      actually evaluates the labelings (``kernel`` not ``"off"`` *and*
      :func:`repro.kernel.batch.kernel_supports` for the base) — the
      prefix-pruned kernel join can afford spaces the scalar loop must
      refuse.  ``None`` (the default) leaves every route at
      ``labeling_limit``, so scalar-route behavior is unchanged; when it
      admits new spaces it changes sweep content, so a set value is part
      of the sweep's cache identity (resolve normalizes it to ``None``
      with ``kernel="off"`` and when it does not exceed
      ``labeling_limit``, where it is a no-op).
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
    * ``sharding`` — the sharded-generation mode (``"auto"`` | ``"on"``;
      ``None`` defers to ``CONFIG.sharding``): whether a sweep deeper
      than ``shard_depth`` splits the canonical-augmentation tree into
      subtree work units drained by a work-stealing process pool
      (:mod:`repro.shard`).  The merged emission stream, accounts, and
      fingerprints are byte-identical to the serial walk, so this knob
      never enters a cache identity.  ``"auto"`` engages for full
      sweeps with effective ``workers > 1``; ``"on"`` forces the
      sharded path — even single-process, the deterministic test
      route.  A serial sweep is ``workers`` of ``0`` or ``1``.
    * ``shard_depth`` — the level at which the augmentation tree is
      split (``None`` defers to ``CONFIG.shard_depth``).  Pure
      granularity: unobservable in every output.
    """

    backend: str = BACKEND_AUTO
    workers: int | None = None
    early_exit: bool = True
    warm_start: bool | None = None
    memory_cache: bool = True
    disk_cache: bool | None = None
    port_limit: int = 64
    id_order_types: bool = False
    include_all_accepted_labelings: bool = True
    labeling_limit: int = 20_000
    symmetry: str | None = None
    kernel: str | None = None
    kernel_labeling_limit: int | None = None
    graph_family: str = "all"
    alphabet_limit: int | None = None
    sharding: str | None = None
    shard_depth: int | None = None

    @property
    def is_resolved(self) -> bool:
        return (
            self.backend != BACKEND_AUTO
            and self.workers is not None
            and self.warm_start is not None
            and self.disk_cache is not None
            and self.symmetry is not None
            and self.kernel is not None
            and self.sharding is not None
            and self.shard_depth is not None
        )

    @property
    def uses_shards(self) -> bool:
        """Whether this (resolved) plan runs sweeps deeper than
        ``shard_depth`` on the shard route: always with
        ``sharding="on"``, and with ``"auto"`` for full sweeps with more
        than one worker."""
        if self.sharding == "on":
            return True
        return (
            self.sharding == "auto"
            and (self.workers or 0) > 1
            and not self.early_exit
        )

    def resolve(self, config: PerfConfig | None = None) -> "ExecutionPlan":
        """Fill every ``None``/``auto`` field from *config* (default: the
        global :data:`~repro.perf.config.CONFIG`)."""
        config = config if config is not None else CONFIG
        if self.backend not in (BACKEND_AUTO, BACKEND_STREAMING):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {BACKEND_AUTO}, {BACKEND_STREAMING}"
            )
        workers = self.workers if self.workers is not None else config.workers
        warm = self.warm_start if self.warm_start is not None else config.warm_start
        disk = self.disk_cache if self.disk_cache is not None else config.disk_cache
        symmetry = self.symmetry if self.symmetry is not None else config.symmetry
        if symmetry not in ("auto", "on", "off"):
            raise ValueError(
                f"unknown symmetry mode {symmetry!r}; known: auto, on, off"
            )
        kernel = self.kernel if self.kernel is not None else config.kernel
        if kernel not in ("auto", "off"):
            raise ValueError(f"unknown kernel mode {kernel!r}; known: auto, off")
        from ..kernel import kernel_available  # noqa: PLC0415

        if not kernel_available():
            kernel = "off"
        raised_limit = self.kernel_labeling_limit
        if raised_limit is not None:
            if raised_limit <= 0:
                raise ValueError(
                    f"kernel_labeling_limit must be positive, got {raised_limit}"
                )
            # A raised limit is a no-op off the kernel route or at/below
            # the base limit; normalize those plans to one cache identity.
            if kernel == "off" or raised_limit <= self.labeling_limit:
                raised_limit = None
        from ..graphs.families import graph_family_predicate  # noqa: PLC0415

        graph_family_predicate(self.graph_family)  # raises for unknown names
        if self.alphabet_limit is not None and self.alphabet_limit < 1:
            raise ValueError(
                f"alphabet_limit must be positive, got {self.alphabet_limit}"
            )
        sharding = self.sharding if self.sharding is not None else config.sharding
        if sharding not in ("auto", "on"):
            raise ValueError(
                f"unknown sharding mode {sharding!r}; known: auto, on"
            )
        shard_depth = (
            self.shard_depth if self.shard_depth is not None else config.shard_depth
        )
        if shard_depth < 1:
            raise ValueError(f"shard_depth must be >= 1, got {shard_depth}")
        # CI multi-core runners force parallelism past a conservative
        # autodetection; an explicit plan.workers is never overridden.
        if self.workers is None:
            from ..perf.config import forced_workers  # noqa: PLC0415

            forced = forced_workers()
            if forced is not None:
                workers = forced
        return replace(
            self,
            backend=BACKEND_STREAMING,
            workers=workers,
            warm_start=warm,
            disk_cache=disk,
            symmetry=symmetry,
            kernel=kernel,
            kernel_labeling_limit=raised_limit,
            sharding=sharding,
            shard_depth=shard_depth,
        )

    def describe(self) -> str:
        """One-line human summary (CLI provenance output)."""
        tiers = [
            name
            for name, on in (("memory", self.memory_cache), ("disk", self.disk_cache))
            if on
        ]
        workers = "auto" if self.workers is None else (self.workers or "serial")
        symmetry = "auto" if self.symmetry is None else self.symmetry
        kernel = "auto" if self.kernel is None else self.kernel
        text = (
            f"backend={self.backend} workers={workers} "
            f"early_exit={self.early_exit} warm_start={self.warm_start} "
            f"cache={'+'.join(tiers) if tiers else 'none'} "
            f"symmetry={symmetry} kernel={kernel}"
        )
        if self.kernel_labeling_limit is not None:
            text += f" kernel_labeling_limit={self.kernel_labeling_limit}"
        if self.graph_family != "all":
            text += f" graph_family={self.graph_family}"
        if self.alphabet_limit is not None:
            text += f" alphabet_limit={self.alphabet_limit}"
        if self.uses_shards:
            depth = "auto" if self.shard_depth is None else self.shard_depth
            text += f" sharding={self.sharding} shard_depth={depth}"
        return text

