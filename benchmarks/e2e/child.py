"""One benchmark repeat, in a fresh process.

    python child.py MODE WORKLOAD

MODE is ``setup`` (build the workload and exit), ``run`` (build, then
run the operation untraced) or ``traced`` (build, then run it with the
layer timer installed).  The child prints one JSON object on stdout.
``ready`` is read from ``time.monotonic()``, the system-wide
``CLOCK_MONOTONIC`` on Linux, so the parent can subtract the moment it
spawned the child.

Every child times the host-speed probe once it is ready (``probe_s``),
and a child that runs the operation times it again afterwards
(``probe_after_s``), so the parent can scale its times to the reference
host speed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import layers
import workloads

#: Iterations of one round of the host-speed probe: about 0.065 s on the
#: reference host (``run.PROBE_REFERENCE_S``).
PROBE_ITERATIONS = 150_000
#: Timed rounds per probe, after one untimed warm-up round (the first
#: round in a fresh process runs about 20% slow while it grows the heap).
PROBE_ROUNDS = 2


def probe_round() -> float:
    """Seconds a fixed pure-Python loop (tuple keys, dict updates,
    hashing, a sort) takes right now.  It stands for the interpreter
    work the workloads do, and it is part of the benchmark, not of the
    program, so only the host's speed moves it."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key)
    sorted(table.values())
    return time.perf_counter() - start


def host_probe() -> float:
    """Mean seconds of :data:`PROBE_ROUNDS` probe rounds after a warm-up
    round.  The cyclic garbage collector is off meanwhile: the probe's
    allocations would otherwise trigger collections that walk the
    program's live objects, and a change that kept more objects alive
    would slow the probe and so seem to speed the program up."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        probe_round()
        return sum(probe_round() for _ in range(PROBE_ROUNDS)) / PROBE_ROUNDS
    finally:
        if was_enabled:
            gc.enable()


def main(mode: str, name: str) -> int:
    try:
        prepared = workloads.prepare(name)
    except workloads.NumpyMissing as exc:
        print(json.dumps({"error": str(exc), "numpy_missing": True}))
        return 3
    out: dict = {
        "ready": time.monotonic(),
        "backend": prepared.backend,
        "numpy": prepared.numpy_version,
        "python": sys.version.split()[0],
    }
    out["probe_s"] = host_probe()
    if mode == "run":
        start = time.perf_counter()
        outcomes = prepared.execute()
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["probe_after_s"] = host_probe()
        out["ops"] = workloads.check(prepared, outcomes)
    elif mode == "traced":
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        timer = layers.LayerTimer()
        written_before = workloads.directory_bytes(cache)
        stats_before = workloads.stat_snapshot()
        with layers.install(timer) as missing, workloads.bytes_read_under(cache) as read:
            start = timer.clock()
            outcomes = prepared.execute()
            wall = timer.clock() - start
        out["probe_after_s"] = host_probe()
        counters = workloads.counter_metrics(stats_before, workloads.stat_snapshot())
        counters["engine.stores.bytes_written"] = (
            workloads.directory_bytes(cache) - written_before
        )
        counters["engine.stores.bytes_read"] = read[0]
        check = layers.reconcile(timer, wall, prepared.workload.root)
        out.update(
            wall_s=wall,
            self_s=timer.self_s,
            calls=timer.calls,
            reconcile_error=check.error,
            unattributed_share=check.unattributed_share,
            counters=counters,
            missing_targets=missing,
            open_frames=timer.depth,
            ops=workloads.check(prepared, outcomes),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
