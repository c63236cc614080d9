"""Performance subsystem: knobs, caches and counters.

The Lemma 3.1 sweep (``yes_instances_up_to`` → ``build_neighborhood_graph``)
is the hot path of the whole repository; everything here exists to make it
run as fast as the hardware allows without changing a single result:

* :mod:`repro.perf.config` — global knobs (:data:`CONFIG`,
  :func:`configure`, :func:`overridden`);
* :mod:`repro.perf.stats` — counters and stage timers
  (:class:`PerfStats`, :data:`GLOBAL_STATS`);
* :mod:`repro.perf.cache` — the view-layout template cache and the
  decoder decision memo;
* :mod:`repro.perf.persist` — the on-disk verdict store.

Every sweep runs serially in the calling process.
"""

from .cache import (
    DecisionMemo,
    LRUCache,
    ViewLayoutCache,
    clear_shared_caches,
    default_layout_cache,
    memoized_decide,
    shared_decision_memo,
)
from .config import CONFIG, PerfConfig, configure, overridden
from .persist import (
    CACHE_VERSION,
    PersistentVerdictCache,
    cache_dir,
    default_verdict_cache,
)
from .stats import GLOBAL_STATS, PerfStats

__all__ = [
    "CACHE_VERSION",
    "CONFIG",
    "DecisionMemo",
    "GLOBAL_STATS",
    "LRUCache",
    "PerfConfig",
    "PerfStats",
    "PersistentVerdictCache",
    "ViewLayoutCache",
    "cache_dir",
    "clear_shared_caches",
    "configure",
    "default_layout_cache",
    "default_verdict_cache",
    "memoized_decide",
    "overridden",
    "shared_decision_memo",
]

