"""Tunable knobs for the V(D, n) fast path.

One module-level :class:`PerfConfig` governs every cache and the parallel
builder; experiments, the CLI (``--workers``), and the benchmarks mutate
it through :func:`configure` or scope changes with :func:`overridden`.
All caches default to on — the knobs exist so benchmarks can measure the
unoptimized baseline and so pathological workloads can opt out.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

#: Environment override for the worker count (CI multi-core runners set
#: this so parallel benchmark rows and shard smokes run even when the
#: plan or config would autodetect conservatively).
FORCE_WORKERS_ENV = "REPRO_FORCE_WORKERS"


def forced_workers() -> int | None:
    """The ``REPRO_FORCE_WORKERS`` override, or ``None`` when unset.

    Non-integer and non-positive values are ignored rather than raised:
    the variable is a CI affordance, not a user-facing API.
    """
    raw = os.environ.get(FORCE_WORKERS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class PerfConfig:
    """Switches and sizes for the performance subsystem.

    * ``layout_cache`` — reuse view-layout templates per
      ``(graph, ports, ids, radius)`` base instead of re-extracting and
      re-canonicalizing views for every labeled instance.
    * ``decision_memo`` — memoize ``decoder.decide`` per canonical view
      (sound for decoders that are pure functions of the view, which the
      LCP model requires).
    * ``family_cache`` — cache the graph-family enumerations of
      :mod:`repro.graphs.families` (yielded graphs are defensive copies).
    * ``canonical_cache`` — memoize :func:`repro.graphs.encoding.canonical_form`
      by labelled graph key.
    * ``workers`` — default worker count for the parallel
      neighborhood-graph builder; ``0`` or ``1`` means serial.
    * ``chunk_size`` — instances per parallel work unit (``None`` picks a
      chunking that preserves base-instance locality).
    * ``warm_start`` — let consecutive sweeps of the same LCP
      at growing ``n`` resume from the previous state instead of
      recoloring from scratch (anonymous schemes only; ``V(D, n-1)``
      embeds into ``V(D, n)``).
    * ``disk_cache`` — persist sweep verdicts under
      ``.repro_cache/`` so repeated processes skip re-enumeration
      entirely (see :mod:`repro.perf.persist`).
    * ``disk_cache_dir`` — override the cache directory (default:
      ``$REPRO_CACHE_DIR`` or ``./.repro_cache``).
    * ``symmetry`` — the symmetry-reduction mode (``"auto"`` | ``"on"``
      | ``"off"``) plans resolve their ``symmetry`` field against.
      ``"off"`` selects the legacy edge-subset family enumerator and no
      orbit pruning; ``"auto"``/``"on"`` select orderly generation
      (byte-identical stream, each class constructed once) and — for
      ``"auto"`` only on anonymous schemes, for ``"on"`` always —
      automorphism-orbit pruning of bases and labelings with exact
      suppressed-count accounting (see :mod:`repro.symmetry`).
    * ``kernel_block_size`` — the most rows one stage of the batch
      kernel's prefix-pruned join holds (:mod:`repro.kernel.batch`); a
      wider prefix is split into chunks joined depth-first.  Chunk
      boundaries are unobservable — the yielded stream and all
      accounting are block-size independent — so this is purely a
      memory/throughput trade.
    * ``sharding`` — the sharded-generation mode (``"auto"`` | ``"on"``
      | ``"off"``) plans resolve their ``sharding`` field against.
      Sharding splits the canonical-augmentation tree at
      ``shard_depth`` into independent subtree work units and drains
      them on a work-stealing process pool (see :mod:`repro.shard`);
      the merged emission stream and all accounting are byte-identical
      to the serial walk, so this knob never enters a cache key.
      ``"auto"`` engages it only when it can pay off (multiple
      effective workers, full sweeps, orderly generation active);
      ``"on"`` forces the sharded path even single-process (the
      deterministic test route); ``"off"`` disables it.
    * ``shard_depth`` — the prefix depth at which the augmentation tree
      is split; subtree roots are the level-``shard_depth`` generation
      entries.  Purely a granularity trade — never observable in any
      output stream.
    * ``shard_checkpoints`` — persist per-shard results under
      ``.repro_cache/shards/`` so a killed sweep restarts from its
      completed shards.
    * ``kernel`` — the numpy kernel mode (``"auto"`` | ``"off"``) of
      :mod:`repro.kernel`, read by every sweep for both the Lemma 3.1
      unanimity pass (block-wise labeling evaluation) and orderly
      generation (batched canonicalization searches).  ``"auto"``
      engages the kernels whenever numpy is importable, ``"off"``
      forces the scalar reference loops.  Streams and verdicts are
      byte-identical either way, so this knob never enters a cache key.
    """

    layout_cache: bool = True
    layout_cache_size: int = 4096
    decision_memo: bool = True
    decision_memo_size: int = 65536
    family_cache: bool = True
    canonical_cache: bool = True
    canonical_cache_size: int = 65536
    workers: int = 0
    chunk_size: int | None = None
    warm_start: bool = True
    disk_cache: bool = False
    disk_cache_dir: str | None = None
    symmetry: str = "auto"
    kernel_block_size: int = 4096
    kernel: str = "auto"
    sharding: str = "auto"
    shard_depth: int = 4
    shard_checkpoints: bool = True

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
