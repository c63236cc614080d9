"""A shared process pool for the parallel builder and the shard executor.

Pool spawn/teardown costs hundreds of milliseconds per worker — paying
it once per campaign *cell* dominated small-cell sweeps.  This module
owns one process-wide :class:`~concurrent.futures.ProcessPoolExecutor`
that long-lived drivers (:func:`repro.campaign.driver.run_campaign`, the
benchmark harness) open around their whole loop with
:func:`shared_pool`; inner parallel stages pick it up through
:func:`active_pool` instead of building their own.

Workers are initialized exactly once with every warm cache the parent
can ship: the graph-family representatives *and* the decided entries
of the parent's lazily filled kernel acceptance tables, so a worker
never re-decides an entry the parent already knows.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor

from ..obs.logs import get_logger

log = get_logger("perf.pool")

_ACTIVE_POOL: ProcessPoolExecutor | None = None
_ACTIVE_WORKERS: int = 0


def pool_initializer(family_snapshot: dict, table_snapshot: dict) -> None:
    """Worker initializer: prime the family cache and the kernel tables.

    Runs once per worker process.  Both snapshots are picklable by
    construction (:func:`repro.graphs.families.family_cache_snapshot`,
    :func:`repro.kernel.tables.kernel_tables_snapshot`)."""
    from ..graphs.families import prime_family_cache  # noqa: PLC0415
    from ..kernel.tables import prime_kernel_tables  # noqa: PLC0415

    prime_family_cache(family_snapshot)
    prime_kernel_tables(table_snapshot)


def warm_snapshots() -> tuple[dict, dict]:
    """The parent's current ``(family, kernel-table)`` warm state."""
    from ..graphs.families import family_cache_snapshot  # noqa: PLC0415
    from ..kernel.tables import kernel_tables_snapshot  # noqa: PLC0415

    return family_cache_snapshot(), kernel_tables_snapshot()


def make_pool(workers: int) -> ProcessPoolExecutor:
    """A fresh pool with the standard warm-state initializer."""
    family_snapshot, table_snapshot = warm_snapshots()
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=pool_initializer,
        initargs=(family_snapshot, table_snapshot),
    )


def active_pool(workers: int | None = None) -> ProcessPoolExecutor | None:
    """The shared pool, when one is open and large enough for *workers*.

    Returns ``None`` when no :func:`shared_pool` scope is active or the
    open pool has fewer workers than requested (callers then build their
    own); ``workers=None`` accepts any open pool."""
    if _ACTIVE_POOL is None:
        return None
    if workers is not None and _ACTIVE_WORKERS < workers:
        return None
    return _ACTIVE_POOL


@contextlib.contextmanager
def shared_pool(workers: int):
    """Scope a shared pool: inner parallel stages reuse it via
    :func:`active_pool` instead of paying spawn/teardown per call.

    Re-entrant: a nested scope whose request fits the open pool reuses
    it; a larger request opens its own (and restores the outer pool on
    exit).  ``workers <= 1`` is a no-op scope yielding ``None``.
    """
    global _ACTIVE_POOL, _ACTIVE_WORKERS
    if workers <= 1:
        yield None
        return
    if _ACTIVE_POOL is not None and _ACTIVE_WORKERS >= workers:
        yield _ACTIVE_POOL
        return
    outer_pool, outer_workers = _ACTIVE_POOL, _ACTIVE_WORKERS
    pool = make_pool(workers)
    _ACTIVE_POOL, _ACTIVE_WORKERS = pool, workers
    log.debug("shared pool opened: %d workers", workers)
    try:
        yield pool
    finally:
        _ACTIVE_POOL, _ACTIVE_WORKERS = outer_pool, outer_workers
        pool.shutdown()
        log.debug("shared pool closed: %d workers", workers)
