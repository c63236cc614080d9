"""Property suite: sharded sweeps are indistinguishable from serial ones.

Sharding splits the canonical-augmentation tree at a fixed prefix depth
into independent subtree work units and merges their emission blocks
back into the exact serial order.  Like the symmetry layer, it is only
allowed to change *how fast* a verdict is reached, never *what* is
reached: for every registry scheme this suite runs the full sweep with
``sharding="on"`` (in-process execution — the deterministic route) and
serially (``workers=0``) and demands byte-identical verdicts — same hiding
decision, same canonical witness, same ``decision_fingerprint``, same
effective instance/view/edge counts, and the same folded
``SymmetryAccount`` totals.

A second group pins the shard plumbing itself: the merged shard
emission stream against the serial orderly walk, the work-unit
partition properties of :func:`plan_shards`, the plan-resolution rules
of the ``sharding`` knob, the ``sharding_effective`` engagement
predicate, and the warm state the pool ships to its workers.
"""

from __future__ import annotations

import pytest

from repro.certification.lcp import parametrized
from repro.core import make_lcp
from repro.core.registry import all_lcps
from repro.engine import (
    ExecutionPlan,
    RunContext,
    clear_engine_state,
    decide_hiding,
)
from repro.kernel import clear_kernel_tables, kernel_available, numpy_or_none
from repro.kernel.tables import kernel_tables_snapshot, prime_kernel_tables
from repro.neighborhood import yes_instances_up_to
from repro.neighborhood.aviews import bipartite_generation
from repro.perf import PerfStats, overridden
from repro.perf.config import FORCE_WORKERS_ENV, forced_workers
from repro.shard import plan_shards, sharding_effective
from repro.symmetry.orderly import build_level, emit_entries, level_entries

SCHEMES = sorted(all_lcps())

#: Full-sweep ceiling per scheme; the two workhorse schemes get n = 5
#: (every scheme's ceiling exceeds the depth-3 prefix, so the shard
#: stage genuinely runs).
DEPTH = {name: 4 for name in SCHEMES}
DEPTH["degree-one"] = 5
DEPTH["even-cycle"] = 5

#: Account counters the engine folds the merged ``SymmetryAccount``
#: into — a sharded sweep must reproduce them exactly.
ACCOUNT_COUNTERS = (
    "instances_scanned",
    "symmetry_labelings_total",
    "symmetry_labelings_pruned",
    "symmetry_bases_pruned",
    "symmetry_instances_suppressed",
)


def _full_sweep_plan(sharding: str, **kwargs) -> ExecutionPlan:
    """A deterministic cold sweep: no early exit, no cache tiers, and no
    pool unless *kwargs* ask for workers — ``"auto"`` is then the serial
    sweep, ``"on"`` the in-process sharded one."""
    fields = {
        "workers": 0,
        "early_exit": False,
        "warm_start": False,
        "memory_cache": False,
        "disk_cache": False,
        "symmetry": "on",
        "sharding": sharding,
        "shard_depth": 3,
    }
    fields.update(kwargs)
    return ExecutionPlan(**fields)


def _sweep(scheme: str, sharding: str, n: int | None = None, **kwargs):
    clear_engine_state()
    ctx = RunContext.isolated()
    lcp = make_lcp(scheme)
    verdict = decide_hiding(
        lcp,
        n if n is not None else DEPTH[scheme],
        _full_sweep_plan(sharding, **kwargs),
        ctx=ctx,
    )
    counters = {name: ctx.stats.get(name) for name in ACCOUNT_COUNTERS}
    return verdict, counters


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sharded_sweep_matches_serial(scheme):
    serial, serial_counters = _sweep(scheme, "auto")
    sharded, sharded_counters = _sweep(scheme, "on")

    assert sharded.hiding == serial.hiding
    assert sharded.witness == serial.witness
    assert sharded.decision_fingerprint() == serial.decision_fingerprint()
    assert (
        sharded.provenance.instances_scanned
        == serial.provenance.instances_scanned
    )
    assert sharded.provenance.views == serial.provenance.views
    assert sharded.provenance.edges == serial.provenance.edges
    assert sharded_counters == serial_counters
    # Provenance reports the shard stage only when it actually ran.
    assert sharded.provenance.shard_count
    assert serial.provenance.shard_count is None


@pytest.mark.parametrize("scheme", ["degree-one", "even-cycle"])
def test_sharded_warm_started_full_sweep_matches_serial(scheme):
    """A full sweep warm-started from a smaller ``n`` — past a found
    witness, on both hiding schemes — shards only the levels above the
    warm floor and still reproduces the cold serial sweep."""
    serial, _ = _sweep(scheme, "auto")
    clear_engine_state()
    ctx = RunContext.isolated()
    lcp = make_lcp(scheme)
    plan = _full_sweep_plan("on", warm_start=True)
    decide_hiding(lcp, DEPTH[scheme] - 1, plan, ctx=ctx)
    sharded = decide_hiding(lcp, DEPTH[scheme], plan, ctx=ctx)
    assert sharded.provenance.warm_started
    assert sharded.provenance.shard_count
    assert sharded.decision_fingerprint() == serial.decision_fingerprint()
    assert sharded.ngraph.views == serial.ngraph.views
    assert sharded.ngraph.edges == serial.ngraph.edges
    assert (
        sharded.provenance.instances_scanned
        == serial.provenance.instances_scanned
    )


@pytest.mark.parametrize("scheme", ["degree-one", "even-cycle"])
def test_sharded_early_exit_matches_serial(scheme):
    serial, _ = _sweep(scheme, "auto", early_exit=True)
    sharded, _ = _sweep(scheme, "on", early_exit=True)
    assert sharded.hiding == serial.hiding
    assert sharded.witness == serial.witness
    assert sharded.decision_fingerprint() == serial.decision_fingerprint()
    assert (
        sharded.provenance.instances_scanned
        == serial.provenance.instances_scanned
    )


@pytest.mark.parametrize("scheme, k", [("degree-one", None), ("watermelon", 3)])
def test_sharded_fingerprint_parity_on_both_trees(scheme, k):
    """A k = 2 sweep shards the bipartite tree, a k = 3 cell the full
    one; either way the merge reproduces the serial verdict."""
    lcp = make_lcp(scheme) if k is None else parametrized(make_lcp(scheme), k=k)
    n = 5

    def sweep(sharding: str):
        clear_engine_state()
        plan = _full_sweep_plan(sharding)
        return decide_hiding(lcp, n, plan, ctx=RunContext.isolated())

    serial, sharded = sweep("auto"), sweep("on")
    assert sharded.decision_fingerprint() == serial.decision_fingerprint()
    assert sharded.witness == serial.witness
    assert (
        sharded.provenance.instances_scanned
        == serial.provenance.instances_scanned
    )
    # Level 3 has 3 bipartite classes and 4 classes overall.
    spec = plan_shards(n, 3, 0, bipartite=bipartite_generation(lcp))
    assert sharded.provenance.shard_count == len(spec) == (3 if k is None else 4)


# ----------------------------------------------------------------------
# Emission parity: merged shard blocks == the serial orderly walk
# ----------------------------------------------------------------------


def _encode(stream):
    return [(mask, tuple(sorted(graph.edges))) for mask, graph in stream]


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_merged_shard_emission_is_byte_identical(depth):
    n = 6
    spec = plan_shards(n, depth, workers=4)
    roots = level_entries(depth)
    assert spec.total_roots == len(roots)
    for size in range(depth + 1, n + 1):
        serial = _encode(emit_entries(level_entries(size), size))
        merged = []
        for shard in spec.shards:
            entries = roots[shard.start : shard.stop]
            for level in range(depth + 1, size + 1):
                entries = build_level(level, entries)
            merged.extend(_encode(emit_entries(entries, size)))
        merged.sort(key=lambda pair: pair[0])
        assert merged == serial


def test_merged_bipartite_shard_emission_is_byte_identical():
    n, depth = 7, 3
    spec = plan_shards(n, depth, workers=4, bipartite=True)
    roots = level_entries(depth, bipartite=True)
    assert spec.total_roots == len(roots)
    for size in range(depth + 1, n + 1):
        serial = _encode(emit_entries(level_entries(size, bipartite=True), size))
        merged = []
        for shard in spec.shards:
            entries = roots[shard.start : shard.stop]
            for level in range(depth + 1, size + 1):
                entries = build_level(level, entries, bipartite=True)
            merged.extend(_encode(emit_entries(entries, size)))
        merged.sort(key=lambda pair: pair[0])
        assert merged == serial


# ----------------------------------------------------------------------
# plan_shards partition properties
# ----------------------------------------------------------------------


def test_plan_shards_partitions_the_root_level():
    for workers in (0, 1, 2, 4, 16):
        spec = plan_shards(6, 3, workers)
        assert len(spec) == len(spec.shards)
        # Contiguous, ordered, nonempty ranges covering [0, total_roots).
        cursor = 0
        for index, shard in enumerate(spec.shards):
            assert shard.index == index
            assert shard.start == cursor
            assert shard.stop > shard.start
            cursor = shard.stop
        assert cursor == spec.total_roots
        assert len(spec.shards) <= max(1, workers) * 4 or len(spec.shards) == 1


def test_plan_shards_is_deterministic():
    assert plan_shards(7, 3, 4) == plan_shards(7, 3, 4)


def test_plan_shards_rejects_empty_subtrees():
    with pytest.raises(ValueError):
        plan_shards(3, 3, 2)
    with pytest.raises(ValueError):
        plan_shards(2, 4, 2)


def test_shard_key_fields_pin_the_generation_version():
    for bipartite in (False, True):
        spec = plan_shards(6, 3, 2, bipartite=bipartite)
        for shard in spec.shards:
            fields = shard.key_fields()
            assert fields["generation_version"] == 2
            assert fields["bipartite"] is bipartite
            assert fields["depth"] == 3
            assert (fields["start"], fields["stop"]) == (shard.start, shard.stop)
            assert shard.id == f"d3-{shard.start:06d}-{shard.stop:06d}"


# ----------------------------------------------------------------------
# Plan resolution and engagement rules
# ----------------------------------------------------------------------


def test_sharded_unpruned_sweep_matches_serial():
    """``symmetry="off"`` only switches orbit pruning off: the unpruned
    sweep still shards, and matches the serial unpruned sweep."""
    serial, serial_counters = _sweep("degree-one", "auto", symmetry="off")
    sharded, sharded_counters = _sweep("degree-one", "on", symmetry="off")
    assert sharded.provenance.shard_count
    assert not sharded.provenance.symmetry_pruned
    assert sharded.decision_fingerprint() == serial.decision_fingerprint()
    assert sharded.witness == serial.witness
    assert sharded.ngraph.views == serial.ngraph.views
    assert sharded.ngraph.edges == serial.ngraph.edges
    assert sharded_counters == serial_counters


def test_sharding_auto_with_symmetry_off_takes_the_pool():
    plan = _full_sweep_plan("auto", symmetry="off", workers=2)
    assert plan.resolve().sharding == "auto"
    serial, serial_counters = _sweep("even-cycle", "auto", symmetry="off")
    pooled, pooled_counters = _sweep("even-cycle", "auto", symmetry="off", workers=2)
    assert pooled.provenance.shard_count
    assert pooled.decision_fingerprint() == serial.decision_fingerprint()
    assert (
        pooled.provenance.instances_scanned == serial.provenance.instances_scanned
    )
    assert pooled_counters == serial_counters


def test_invalid_sharding_mode_and_depth_are_rejected():
    with pytest.raises(ValueError):
        ExecutionPlan(backend="streaming", sharding="sometimes").resolve()
    # A serial sweep is workers=0; "off" is not a sharding mode.
    with pytest.raises(ValueError, match="'off'; known: auto, on$"):
        ExecutionPlan(backend="streaming", sharding="off").resolve()
    with pytest.raises(ValueError):
        ExecutionPlan(backend="streaming", shard_depth=0).resolve()


def test_forced_workers_env_applies_only_when_unset(monkeypatch):
    monkeypatch.setenv(FORCE_WORKERS_ENV, "3")
    assert forced_workers() == 3
    assert ExecutionPlan(backend="streaming").resolve().workers == 3
    assert ExecutionPlan(backend="streaming", workers=1).resolve().workers == 1
    monkeypatch.setenv(FORCE_WORKERS_ENV, "not-a-number")
    assert forced_workers() is None
    monkeypatch.delenv(FORCE_WORKERS_ENV)
    assert forced_workers() is None


def test_sharding_effective_rules():
    lcp = make_lcp("even-cycle")

    def resolved(**kwargs):
        return ExecutionPlan(backend="streaming", **kwargs).resolve()

    on = resolved(sharding="on", shard_depth=3, symmetry="on", workers=0)
    assert sharding_effective(lcp, on, 6)
    assert not sharding_effective(lcp, on, 3)  # n <= depth: nothing to split
    serial = resolved(shard_depth=3, symmetry="on", workers=0, early_exit=False)
    assert not sharding_effective(lcp, serial, 6)
    # "auto" engages only where the pool can pay for itself.
    auto = resolved(
        sharding="auto", shard_depth=3, symmetry="on", workers=4,
        early_exit=False,
    )
    assert sharding_effective(lcp, auto, 6)
    assert not sharding_effective(
        lcp,
        resolved(
            sharding="auto", shard_depth=3, symmetry="on", workers=0,
            early_exit=False,
        ),
        6,
    )
    assert not sharding_effective(
        lcp,
        resolved(
            sharding="auto", shard_depth=3, symmetry="on", workers=4,
            early_exit=True,
        ),
        6,
    )
    # Orbit pruning does not enter the rule: generation is always orderly.
    assert sharding_effective(
        lcp,
        resolved(
            sharding="auto", shard_depth=3, symmetry="off", workers=4,
            early_exit=False,
        ),
        6,
    )


def test_describe_mentions_sharding_only_when_engaged():
    plan = ExecutionPlan(backend="streaming", sharding="on", shard_depth=3)
    assert "sharding=on" in plan.resolve().describe()
    assert "shard_depth=3" in plan.resolve().describe()
    plain = ExecutionPlan(backend="streaming", workers=0)
    assert "sharding" not in plain.resolve().describe()
    # "auto" engages only for pooled full sweeps.
    pooled = ExecutionPlan(backend="streaming", workers=2, early_exit=False)
    assert "sharding=auto" in pooled.resolve().describe()
    early = ExecutionPlan(backend="streaming", workers=2)
    assert "sharding" not in early.resolve().describe()


@pytest.mark.skipif(not kernel_available(), reason="numpy not importable")
def test_pooled_sweeps_with_partial_tables_match_serial():
    """Workers primed with the parent's partly filled acceptance tables
    reproduce the serial full sweep of degree-one at n = 5 on the shard
    pool."""
    clear_kernel_tables()
    lcp = make_lcp("degree-one")
    runs = {}
    for name, plan in (
        ("serial", _full_sweep_plan("auto")),
        ("sharded", _full_sweep_plan("on", workers=2)),
    ):
        clear_engine_state()
        ctx = RunContext.isolated()
        verdict = decide_hiding(lcp, 5, plan, ctx=ctx)
        runs[name] = (verdict, ctx.stats)
        if name == "serial":
            assert kernel_tables_snapshot()
    serial, serial_stats = runs["serial"]
    pooled, stats = runs["sharded"]
    assert pooled.digest() == serial.digest()
    assert pooled.ngraph.views == serial.ngraph.views
    assert pooled.ngraph.edges == serial.ngraph.edges
    assert pooled.provenance.instances_scanned == serial.provenance.instances_scanned
    for name in ACCOUNT_COUNTERS:
        assert stats.get(name) == serial_stats.get(name), name
    # Shard workers run the unanimity pass on the shipped tables and
    # decide no entry the serial sweep already decided.
    assert pooled.provenance.shard_count
    assert stats.get("kernel_table_seed_hits")
    assert not stats.get("kernel_table_entries")
    clear_kernel_tables()


# ----------------------------------------------------------------------
# Warm state shipped to pool workers
# ----------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not kernel_available(), reason="numpy not importable")


def _warm_degree_one_tables(n=4):
    """Run one kernel sweep so the acceptance tables are partly filled."""
    clear_kernel_tables()
    with overridden(kernel="auto"):
        list(
            yes_instances_up_to(
                make_lcp("degree-one"), n, include_all_accepted_labelings=True,
                symmetry="off",
            )
        )


def _live_tables():
    """``(decoder.name, template, alphabet) -> table`` of the cached tables."""
    from repro.kernel.tables import _TABLES

    return {
        (decoder.name, template, alphabet): table
        for (_, template, alphabet), (decoder, table) in _TABLES.items()
    }


@needs_numpy
def test_table_snapshot_carries_only_decided_entries():
    _warm_degree_one_tables()
    live = _live_tables()
    snapshot = kernel_tables_snapshot()
    assert snapshot
    assert set(snapshot) == {key for key, table in live.items() if table.known.any()}
    for key, (indices, values) in snapshot.items():
        table = live[key]
        assert indices.tolist() == table.known.nonzero()[0].tolist()
        assert values.tolist() == table.value[indices].tolist()
    # The join reads only the entries reachable from accepted prefixes.
    assert sum(len(indices) for indices, _ in snapshot.values()) < sum(
        len(live[key].known) for key in snapshot
    )
    clear_kernel_tables()


@needs_numpy
def test_priming_merges_without_overwriting_known_entries():
    from repro.kernel.tables import _SEED_TABLES

    _warm_degree_one_tables()
    live = _live_tables()
    snapshot = kernel_tables_snapshot()
    before = {key: (t.known.copy(), t.value.copy()) for key, t in live.items()}
    np = numpy_or_none()
    forged, adopted = {}, {}
    for key, (indices, values) in snapshot.items():
        # Flip every known verdict and add one entry nobody knows yet.
        unknown = np.flatnonzero(~live[key].known)[:1]
        adopted[key] = len(unknown)
        forged[key] = (
            np.concatenate([indices, unknown]),
            np.concatenate([~values, np.ones(len(unknown), dtype=bool)]),
        )
    prime_kernel_tables(forged)
    # A forked worker's inherited live tables become its seed tables.
    assert all(_SEED_TABLES[key] is live[key] for key in forged)
    for key, table in live.items():
        known, value = before[key]
        assert (table.value[known] == value[known]).all()
        assert table.known.sum() == known.sum() + adopted.get(key, 0)

    # Into a cold worker the same entries land in the seed store and the
    # next sweep decides nothing it was sent.
    snapshot = kernel_tables_snapshot()
    clear_kernel_tables()
    prime_kernel_tables(snapshot)
    stats = PerfStats()
    with overridden(kernel="auto"):
        list(
            yes_instances_up_to(
                make_lcp("degree-one"), 4, include_all_accepted_labelings=True,
                symmetry="off", stats=stats,
            )
        )
    assert stats.get("kernel_table_seed_hits") == len(snapshot)
    assert stats.get("kernel_table_entries") == 0
    clear_kernel_tables()
