"""Counters, gauges, and fixed-bucket histograms for the decision path.

A :class:`MetricsRegistry` is the structured successor of the flat
:class:`~repro.perf.stats.PerfStats` counter bag: counters keep the
existing vocabulary (``instances_scanned``, ``disk_hits``, ...), gauges
record point-in-time values (views in the graph at exit), and histograms
capture distributions (per-decision latency, stage durations) that a
single accumulated total cannot show.

The registry *backs* ``PerfStats`` rather than replacing it: a stats
object bound via :meth:`PerfStats.bind_metrics` mirrors every counter
increment into the registry and feeds each ``time_stage`` interval into a
``<stage>_seconds`` histogram, so the hundreds of existing ``incr`` call
sites light up the metrics layer without being touched.

Everything here is stdlib-only and cheap: a counter increment is one
dict lookup + add; an unbound stats object pays a single attribute test.
"""

from __future__ import annotations

import bisect

#: Default histogram buckets, in seconds: 100 µs to 30 s, roughly one
#: bucket per half order of magnitude — wide enough for a disk reload
#: and a full sweep to land in different buckets.
DEFAULT_TIME_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Default buckets for dimensionless size distributions (views per
#: labeling, instances per chunk, ...).
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | int | None = None

    def set(self, value: float | int) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow
    bucket, with running count/sum for mean derivation."""

    __slots__ = ("buckets", "bucket_counts", "count", "total")

    def __init__(self, buckets: tuple = DEFAULT_TIME_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one run (or process)."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, buckets: tuple | None = None) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                buckets if buckets is not None else DEFAULT_TIME_BUCKETS
            )
        return histogram

    # ------------------------------------------------------------------
    # Recording conveniences
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float | int) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float, buckets: tuple | None = None) -> None:
        self.histogram(name, buckets).observe(value)

    # ------------------------------------------------------------------
    # Reset and export
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def as_dict(self) -> dict:
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


#: Process-wide registry, mirroring :data:`repro.perf.stats.GLOBAL_STATS`
#: for callers that never build an isolated run context.
GLOBAL_METRICS = MetricsRegistry()
