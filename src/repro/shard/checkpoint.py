"""Resumable per-shard results in the content-addressed cache store.

One pickle per completed shard under ``.repro_cache/shards/``, keyed by
the sweep's persistent identity (:func:`repro.engine.backends.disk_key`)
plus the shard's ``(generation version, tree, depth, root range)`` —
so a killed sweep restarts from its completed shards, and no checkpoint
can survive a generation-algorithm change, a different sweep, a
different augmentation tree (full or bipartite), or a different
partition of the level.

Pickle, not JSON: shard results carry labeled instances and views whose
certificate labels need no codec, and the files are private to the
cache directory (same trust domain as the process that wrote them).
Corrupt or unreadable checkpoints read as misses, never as errors.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from ..obs.logs import get_logger
from ..perf.persist import cache_dir, digest_for
from ..perf.stats import GLOBAL_STATS, PerfStats
from .spec import Shard

log = get_logger("shard.checkpoint")

#: Checkpoint format version; bump when the shard-result layout changes.
SHARD_FORMAT = 1

_SUBDIR = "shards"


class ShardCheckpointStore:
    """Per-shard result files for one sweep identity."""

    def __init__(self, sweep_key: dict, directory: Path | str | None = None) -> None:
        self.sweep_key = sweep_key
        self.root = Path(directory) if directory is not None else cache_dir()

    @property
    def directory(self) -> Path:
        return self.root / _SUBDIR

    def _path(self, shard: Shard) -> Path:
        key = dict(self.sweep_key)
        key["shard_format"] = SHARD_FORMAT
        key.update(shard.key_fields())
        return self.directory / f"{digest_for(key)}.pkl"

    def load(self, shard: Shard, stats: PerfStats | None = None) -> dict | None:
        """The stored result for *shard*, or ``None`` (miss/corrupt)."""
        stats = stats or GLOBAL_STATS
        path = self._path(shard)
        try:
            blob = path.read_bytes()
        except OSError:
            stats.incr("shard_checkpoint_misses")
            return None
        try:
            result = pickle.loads(blob)
        except Exception:  # noqa: BLE001 — a corrupt checkpoint is a miss
            stats.incr("shard_checkpoint_corrupt")
            log.warning("corrupt shard checkpoint %s; recomputing", path.name)
            return None
        stats.incr("shard_checkpoint_hits")
        return result

    def store(self, shard: Shard, result: dict, stats: PerfStats | None = None) -> bool:
        """Atomically persist *result* (spans stripped — they belong to
        the run that computed them, not to a later resume)."""
        stats = stats or GLOBAL_STATS
        path = self._path(shard)
        stored = dict(result)
        stored["spans"] = []
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError) as exc:
            stats.incr("shard_checkpoint_skips")
            log.warning("skipping shard checkpoint %s: %s", path, exc)
            return False
        stats.incr("shard_checkpoint_writes")
        return True
