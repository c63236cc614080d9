"""Performance subsystem: knobs, caches and counters.

The Lemma 3.1 sweep (``yes_instances_up_to`` → ``build_neighborhood_graph``)
is the hot path of the whole repository; everything here exists to make it
run as fast as the hardware allows without changing a single result:

* :mod:`repro.perf.config` — global knobs (:data:`CONFIG`,
  :func:`configure`, :func:`overridden`);
* :mod:`repro.perf.stats` — counters (:class:`PerfStats`,
  :data:`GLOBAL_STATS`);
* :mod:`repro.perf.cache` — the view-layout template cache.

The on-disk verdict store is the engine's disk tier,
:class:`repro.engine.stores.DiskVerdictStore`.

Every sweep runs serially in the calling process.
"""

from .cache import (
    LRUCache,
    ViewLayoutCache,
    clear_shared_caches,
    default_layout_cache,
)
from .config import CONFIG, PerfConfig, configure, overridden
from .stats import GLOBAL_STATS, PerfStats

__all__ = [
    "CONFIG",
    "GLOBAL_STATS",
    "LRUCache",
    "PerfConfig",
    "PerfStats",
    "ViewLayoutCache",
    "clear_shared_caches",
    "configure",
    "default_layout_cache",
    "overridden",
]

