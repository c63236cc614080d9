"""Deterministic partition of an augmentation level into work units.

A :class:`Shard` names a contiguous range of the level-``depth``
generation entries (the *subtree roots*); :func:`plan_shards` balances
the level into an ordered :class:`ShardSpec`.  Both are pure functions
of ``(n, depth, shard_count, bipartite)`` — every host planning the same
sweep derives the same shard stream, which is what lets the file queue
of :mod:`repro.shard.queue` coordinate by shard id alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..symmetry.orderly import GENERATION_VERSION, level_entries

#: Queued shards per worker: more smooths skewed subtrees (the work-
#: stealing pool pulls the next unit the moment one finishes), fewer
#: amortizes per-shard overhead.
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class Shard:
    """One subtree work unit: roots ``start .. stop-1`` of level *depth*
    of the full augmentation tree, or of the bipartite one (``k = 2``
    sweeps; see :mod:`repro.symmetry.orderly`)."""

    index: int
    depth: int
    start: int
    stop: int
    bipartite: bool = False

    @property
    def id(self) -> str:
        """Stable identity inside one sweep (the queue's file stem)."""
        return f"d{self.depth}-{self.start:06d}-{self.stop:06d}"

    @property
    def roots(self) -> int:
        return self.stop - self.start

    def key_fields(self) -> dict:
        """The shard's contribution to its checkpoint key.  The root
        range indexes a different level in the bipartite tree, so the
        tree is part of the key."""
        return {
            "generation_version": GENERATION_VERSION,
            "bipartite": self.bipartite,
            "depth": self.depth,
            "start": self.start,
            "stop": self.stop,
        }


@dataclass(frozen=True)
class ShardSpec:
    """The full ordered partition of level *depth* for a sweep to *n*."""

    n: int
    depth: int
    total_roots: int
    shards: tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)


def plan_shards(
    n: int,
    depth: int,
    workers: int,
    shards_per_worker: int = SHARDS_PER_WORKER,
    bipartite: bool = False,
) -> ShardSpec:
    """Partition level *depth* into at most ``workers * shards_per_worker``
    contiguous, near-equal root ranges (never an empty shard).  With
    *bipartite* the level is that of the bipartite augmentation tree.

    Requires ``n > depth`` — at or below the shard depth there is no
    subtree to split.  The split is deterministic: same arguments, same
    spec, on every host.
    """
    if n <= depth:
        raise ValueError(f"sharding needs n > depth (got n={n}, depth={depth})")
    total = len(level_entries(depth, bipartite))
    target = min(total, max(1, workers) * max(1, shards_per_worker))
    shards = []
    for index in range(target):
        start = index * total // target
        stop = (index + 1) * total // target
        shards.append(
            Shard(
                index=index, depth=depth, start=start, stop=stop, bipartite=bipartite
            )
        )
    return ShardSpec(n=n, depth=depth, total_roots=total, shards=tuple(shards))
