"""Plan-equivalence properties of the unified hiding engine.

The engine's contract: every plan (early exit × kernel × workers ×
sharding × cache tiers) that answers the same question yields the
*identical* decision — same hiding flag, byte-identical canonical
witness walk, and on conclusive non-hiding sweeps the same complete
graph and coloring — and the verdict's provenance reports the route and
kernel that actually ran.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.registry import all_lcps, make_lcp
from repro.engine import (
    BACKEND_STREAMING,
    ExecutionPlan,
    RunContext,
    Verdict,
    available_backends,
    clear_engine_state,
    decide_hiding,
)
from repro.graphs.properties import is_odd_closed_walk
from repro.kernel import kernel_available
from repro.perf import PerfStats, configure, overridden
from repro.perf.config import PerfConfig

from .oracle import oracle_verdict

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


#: The two sweep depths, by the ``early_exit`` they run with:
#: ``"materialized"`` builds the complete ``V(D, n)`` (the full sweep
#: that replaced the build-then-decide backend), ``"streaming"`` stops at
#: the first witness.
SWEEPS = {"materialized": False, "streaming": True}

#: The (sweep, kernel) grid: both sweep depths, with the numpy kernels
#: (``"auto"``; scalar when numpy is missing) and forced scalar.
GRID = [(sweep, kernel) for sweep in SWEEPS for kernel in ("auto", "off")]


def _expected_kernel(plan: ExecutionPlan) -> str | None:
    """``Provenance.kernel`` of a fresh sweep under *plan*."""
    return "batch" if plan.resolve().kernel != "off" else None


def _plan_grid(tmp_path):
    """Every (sweep × kernel × workers × cache tier) combination of the
    acceptance criterion.  Disk-tier plans get a private cache dir."""
    plans = []
    for sweep, kernel in GRID:
        for workers in (1, 2):
            for tier, memory_cache, disk_cache in (
                ("nocache", False, False),
                ("memory", True, False),
                ("memory+disk", True, True),
            ):
                label = f"{sweep}-{kernel}-w{workers}-{tier}"
                plan = ExecutionPlan(
                    early_exit=SWEEPS[sweep],
                    kernel=kernel,
                    workers=workers,
                    warm_start=False,
                    memory_cache=memory_cache,
                    disk_cache=disk_cache,
                )
                plans.append(
                    (label, plan, str(tmp_path / label) if disk_cache else None)
                )
    return plans


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
def test_every_plan_yields_the_identical_decision(scheme, tmp_path):
    """The acceptance criterion: for every registry scheme, every plan in
    the grid produces the same decision fingerprint — including the
    canonical witness walk — and honest route and kernel provenance."""
    lcp = make_lcp(scheme)
    n = 4
    fingerprints = {}
    for label, plan, cache_dir in _plan_grid(tmp_path):
        clear_engine_state()
        with overridden(disk_cache_dir=cache_dir):
            verdict = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
        assert isinstance(verdict, Verdict), label
        assert verdict.provenance.backend == BACKEND_STREAMING, label
        assert verdict.provenance.early_exit == plan.early_exit, label
        assert verdict.provenance.kernel == _expected_kernel(plan), label
        assert verdict.hiding in (True, False), label
        if verdict.hiding and lcp.k == 2:
            g = verdict.ngraph
            walk = [g.index[view] for view in verdict.witness]
            assert is_odd_closed_walk(g.to_graph(), walk), label
        fingerprints[label] = verdict.decision_fingerprint()
    distinct = set(fingerprints.values())
    assert len(distinct) == 1, (
        f"{scheme}: plans disagree: "
        f"{ {label: fp[:60] for label, fp in fingerprints.items()} }"
    )


def test_every_campaign_cell_is_plan_equivalent(tmp_path):
    """The campaign-layer acceptance criterion: every cell of a small
    frontier campaign — including off-native ``k`` — answers with the
    identical decision fingerprint across sweeps × kernels × cache tiers."""
    from repro.campaign import CampaignSpec

    spec = CampaignSpec.sweep(
        ("degree-one", "even-cycle"), n_max=4, n_min=3, k_values=(2, 3)
    )
    for cell in spec.cells():
        lcp = make_lcp(cell.scheme)
        fingerprints = {}
        for sweep, kernel in GRID:
            tiers = [
                ("nocache", False, False, None),
                ("memory", True, False, None),
                ("memory+disk", True, True, str(tmp_path / f"{sweep}-{kernel}")),
            ]
            for tier, memory_cache, disk_cache, cache_dir in tiers:
                label = f"{sweep}-{kernel}-{tier}"
                base = ExecutionPlan(
                    early_exit=SWEEPS[sweep],
                    kernel=kernel,
                    warm_start=False,
                    memory_cache=memory_cache,
                    disk_cache=disk_cache,
                )
                clear_engine_state()
                with overridden(disk_cache_dir=cache_dir):
                    verdict = decide_hiding(
                        lcp,
                        cell.n,
                        cell.plan(base),
                        k=cell.k,
                        r=cell.r,
                        ctx=RunContext.isolated(),
                    )
                assert verdict.hiding in (True, False), (cell.label(), label)
                fingerprints[label] = verdict.decision_fingerprint()
        assert len(set(fingerprints.values())) == 1, (
            f"{cell.label()}: plans disagree: "
            f"{ {label: fp[:60] for label, fp in fingerprints.items()} }"
        )


@pytest.mark.parametrize("scheme", ["degree-one", "revealing", "even-cycle"])
def test_plan_equivalence_at_n5_serial(scheme, tmp_path):
    lcp = make_lcp(scheme)
    fps = set()
    for sweep, kernel in GRID:
        clear_engine_state()
        plan = ExecutionPlan(
            early_exit=SWEEPS[sweep],
            kernel=kernel,
            workers=1,
            warm_start=False,
            disk_cache=False,
        )
        fps.add(decide_hiding(lcp, 5, plan).decision_fingerprint())
    assert len(fps) == 1


#: (scheme, n, early_exit) sweeps whose provenance must not depend on
#: the worker count: the default early-exit plan (which never takes the
#: pool) and a full sweep above the default shard depth (which does).
WORKER_CASES = [
    ("degree-one", 5, True),
    ("even-cycle", 7, True),
    ("degree-one", 5, False),
]

#: Stats counters a sweep's provenance is explained by.
SWEEP_COUNTERS = ("instances_scanned", "symmetry_labelings_total", "kernel_labelings")


@pytest.mark.parametrize("scheme, n, early_exit", WORKER_CASES)
def test_worker_count_leaves_provenance_unchanged(scheme, n, early_exit):
    """``workers`` in {0, 2} gives the identical decision, the identical
    ``Provenance`` counts, and the identical sweep counters: an early
    exit scans the same instances whatever the worker count, and a full
    sweep on the shard pool scans exactly what the serial one scans."""
    lcp = make_lcp(scheme)
    runs = {}
    for workers in (0, 2):
        clear_engine_state()
        ctx = RunContext.isolated()
        plan = ExecutionPlan(
            workers=workers,
            early_exit=early_exit,
            warm_start=False,
            memory_cache=False,
            disk_cache=False,
        )
        verdict = decide_hiding(lcp, n, plan, ctx=ctx)
        counters = {name: ctx.stats.get(name) for name in SWEEP_COUNTERS}
        runs[workers] = (verdict, counters)
    (serial, serial_counters), (pooled, pooled_counters) = runs[0], runs[2]
    assert pooled.decision_fingerprint() == serial.decision_fingerprint()
    for field in ("instances_scanned", "views", "edges"):
        assert getattr(pooled.provenance, field) == getattr(
            serial.provenance, field
        ), field
    assert pooled_counters == serial_counters
    # Only the full sweep deeper than the shard depth takes the pool.
    assert bool(pooled.provenance.shard_count) == (not early_exit)


#: ``decision_fingerprint`` digest of full ``V(D, 6)`` of watermelon, as
#: pinned by tests/test_bipartite_generation.py.
WATERMELON_N6_DIGEST = "c032512099dd92e2"


def test_watermelon_n6_full_sweep_has_one_coloring():
    """Full ``V(D, 6)`` of watermelon is 2-colorable with 22 components,
    so its coloring is where two deciders could pick different colors.
    Every plan — cold, warm-started from n=4, scalar kernel, sharded,
    two workers, no orbit pruning — reports the same coloring."""
    lcp = make_lcp("watermelon")
    base = {
        "early_exit": False,
        "workers": 0,
        "warm_start": False,
        "memory_cache": False,
        "disk_cache": False,
    }
    variants = {
        "cold": {},
        "kernel-off": {"kernel": "off"},
        "sharding-on": {"sharding": "on"},
        "workers-2": {"workers": 2},
        "symmetry-off": {"symmetry": "off"},
    }
    digests = {}
    for label, overrides in variants.items():
        clear_engine_state()
        verdict = decide_hiding(
            lcp, 6, ExecutionPlan(**{**base, **overrides}), ctx=RunContext.isolated()
        )
        assert verdict.hiding is False, label
        digests[label] = hashlib.sha256(verdict.decision_fingerprint()).hexdigest()
    clear_engine_state()
    ctx = RunContext.isolated()
    warm_plan = ExecutionPlan(**{**base, "warm_start": True})
    decide_hiding(lcp, 4, warm_plan, ctx=ctx)
    warm = decide_hiding(lcp, 6, warm_plan, ctx=ctx)
    assert warm.provenance.warm_started == lcp.anonymous
    digests["warm-from-4"] = hashlib.sha256(warm.decision_fingerprint()).hexdigest()
    assert {label: d[:16] for label, d in digests.items()} == {
        label: WATERMELON_N6_DIGEST for label in digests
    }


@pytest.mark.skipif(not kernel_available(), reason="numpy not importable")
@pytest.mark.parametrize("scheme", sorted(all_lcps()))
@pytest.mark.parametrize("symmetry", ["off", "on"])
def test_vectorized_matches_streaming_exactly(scheme, symmetry, tmp_path):
    """The batch kernel is a drop-in for the scalar loops on the
    streaming backend: same decision bytes, same witness, and the same
    ``Provenance.instances_scanned`` under early exit (the kernel must
    stop at the same instance) — with and without orbit pruning.  With
    early exit off, the build-then-decide oracle agrees on the graph and
    the count too."""
    lcp = make_lcp(scheme)
    for n, early_exit in itertools.product((3, 4), (True, False)):
        verdicts = {}
        for kernel in ("auto", "off"):
            clear_engine_state()
            plan = ExecutionPlan(
                backend=BACKEND_STREAMING,
                kernel=kernel,
                workers=1,
                early_exit=early_exit,
                warm_start=False,
                memory_cache=False,
                disk_cache=False,
                symmetry=symmetry,
            )
            verdicts[kernel] = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
        vec, stream = verdicts["auto"], verdicts["off"]
        assert vec.decision_fingerprint() == stream.decision_fingerprint()
        assert vec.witness == stream.witness
        assert (
            vec.provenance.instances_scanned == stream.provenance.instances_scanned
        )
        assert vec.provenance.kernel == "batch"
        assert stream.provenance.kernel is None
        if not early_exit:
            mat = oracle_verdict(lcp, n, symmetry=symmetry)
            assert vec.hiding == mat.hiding
            assert vec.ngraph.views == mat.ngraph.views
            assert vec.ngraph.edges == mat.ngraph.edges
            if not vec.hiding:
                assert vec.decision_fingerprint() == mat.decision_fingerprint()
            assert (
                vec.provenance.instances_scanned == mat.provenance.instances_scanned
            )


def test_warm_started_chain_keeps_the_fingerprint():
    """Warm-started sweeps (including the witness shortcut) answer with
    the same decision bytes as cold ones, and say so in provenance."""
    lcp = make_lcp("degree-one")
    cold = {}
    for n in (3, 4, 5):
        clear_engine_state()
        cold[n] = decide_hiding(
            lcp,
            n,
            ExecutionPlan(backend="streaming", warm_start=False, disk_cache=False),
        )
    clear_engine_state()
    warm4 = None
    for n in (3, 4, 5):
        warm = decide_hiding(
            lcp,
            n,
            ExecutionPlan(backend="streaming", warm_start=True, disk_cache=False),
        )
        assert warm.decision_fingerprint() == cold[n].decision_fingerprint()
        if n == 4:
            warm4 = warm
    # degree-one hides at n = 4, so n = 5 was answered by the witness
    # shortcut without a sweep.
    assert warm4.hiding is True
    last = decide_hiding(
        lcp,
        5,
        ExecutionPlan(
            backend="streaming", warm_start=True, disk_cache=False, memory_cache=False
        ),
    )
    assert last.provenance.warm_witness_hit is True


def test_provenance_reports_the_backend_that_ran():
    lcp = make_lcp("degree-one")
    for sweep, kernel in GRID:
        clear_engine_state()
        plan = ExecutionPlan(
            early_exit=SWEEPS[sweep], kernel=kernel, disk_cache=False
        )
        verdict = decide_hiding(lcp, 3, plan)
        assert verdict.provenance.backend == BACKEND_STREAMING
        assert verdict.provenance.early_exit == SWEEPS[sweep]
        assert verdict.provenance.n == 3
        assert verdict.provenance.summary()
        assert verdict.provenance.kernel == _expected_kernel(plan)
        if kernel == "off" or not kernel_available():
            assert verdict.provenance.kernel is None


def test_auto_backend_resolves_to_streaming():
    """``"auto"`` has one route to pick; the default plan is an early-exit
    sweep whatever the session config says."""
    lcp = make_lcp("degree-one")
    for config in (PerfConfig(), PerfConfig(workers=2, warm_start=False)):
        plan = ExecutionPlan().resolve(config)
        assert plan.backend == BACKEND_STREAMING
        assert plan.early_exit is True
    v = decide_hiding(lcp, 3, ExecutionPlan(disk_cache=False))
    assert v.provenance.backend == BACKEND_STREAMING
    assert v.provenance.early_exit is True


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_kernel_modes_share_one_disk_address(sweep, tmp_path):
    """The kernel mode never enters a cache identity: a verdict written
    with ``kernel="off"`` is a disk hit for ``kernel="auto"``."""
    lcp = make_lcp("degree-one")
    with overridden(disk_cache_dir=str(tmp_path)):
        written = decide_hiding(
            lcp,
            4,
            ExecutionPlan(
                early_exit=SWEEPS[sweep],
                kernel="off",
                warm_start=False,
                disk_cache=True,
            ),
            ctx=RunContext.isolated(),
        )
        read = decide_hiding(
            lcp,
            4,
            ExecutionPlan(
                early_exit=SWEEPS[sweep],
                kernel="auto",
                warm_start=False,
                disk_cache=True,
            ),
            ctx=RunContext.isolated(),
        )
    assert written.provenance.disk_cache_hit is False
    assert read.provenance.disk_cache_hit is True
    assert read.decision_fingerprint() == written.decision_fingerprint()


@pytest.mark.parametrize(
    "field, value",
    [("backend", "vectorized"), ("backend", "materialized"), ("kernel", "on")],
)
def test_retired_option_values_are_rejected(field, value):
    """The retired backend and kernel values fail at resolve, naming the
    valid values."""
    with pytest.raises(ValueError) as exc:
        ExecutionPlan(**{field: value}).resolve()
    message = str(exc.value)
    assert repr(value) in message
    known = ("auto", "streaming") if field == "backend" else ("auto", "off")
    for name in known:
        assert name in message


def test_retired_config_field_is_rejected():
    """``PerfConfig.streaming`` picked the route ``"auto"`` resolved to;
    with one route it is gone, and setting it fails loudly."""
    with pytest.raises(TypeError, match="streaming"):
        configure(streaming=True)
    with pytest.raises(TypeError):
        PerfConfig(streaming=True)


def test_memory_tier_returns_the_identical_object():
    lcp = make_lcp("revealing")
    plan = ExecutionPlan(early_exit=False, disk_cache=False)
    first = decide_hiding(lcp, 4, plan)
    again = decide_hiding(lcp, 4, plan)
    assert again is first


def test_disk_tier_round_trip_marks_provenance(tmp_path):
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(
        backend="streaming", warm_start=False, disk_cache=True, memory_cache=False
    )
    with overridden(disk_cache_dir=str(tmp_path)):
        stats = PerfStats()
        first = decide_hiding(lcp, 4, plan, ctx=RunContext(stats=stats))
        assert stats.get("persist_writes") == 1
        assert first.provenance.disk_cache_hit is False
        stats = PerfStats()
        second = decide_hiding(lcp, 4, plan, ctx=RunContext(stats=stats))
        assert stats.get("disk_hits") == 1
    assert second.provenance.disk_cache_hit is True
    assert second.decision_fingerprint() == first.decision_fingerprint()
    assert first.ngraph.has_provenance
    assert not second.ngraph.has_provenance


def test_v1_disk_entries_read_as_stale_misses(tmp_path):
    """A version-1 entry (inline-label views, no label table, no body
    checksum) is a stale miss: no second reader serves it, and the next
    store replaces it with a version-2 entry that then serves."""
    import json

    from repro.engine.backends import disk_key
    from repro.perf.persist import CACHE_VERSION, default_verdict_cache, encode_view

    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(
        backend="streaming", warm_start=False, disk_cache=True, memory_cache=False
    ).resolve()
    with overridden(disk_cache_dir=str(tmp_path)):
        fresh = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
        key = disk_key(lcp, 4, plan)
        assert "backend" not in key
        assert key["engine_version"] == 1
        g = fresh.ngraph
        v1_body = {
            "hiding": fresh.hiding,
            "k": fresh.k,
            "radius": g.radius,
            "include_ids": g.include_ids,
            "early_exit": True,
            "instances_scanned": g.instances_scanned,
            "views": [encode_view(view) for view in g.views],
            "edges": [list(edge) for edge in sorted(g.edges)],
            "odd_cycle": [g.index[view] for view in fresh.witness],
            "coloring": None,
        }
        v1_header = {"version": 1, "key": key, "views": g.order, "edges": g.size}
        path = default_verdict_cache()._path(key)
        path.write_text(json.dumps(v1_header) + "\n" + json.dumps(v1_body) + "\n")

        ctx = RunContext.isolated()
        again = decide_hiding(lcp, 4, plan, ctx=ctx)
        assert ctx.stats.get("disk_misses") == 1
        assert again.provenance.disk_cache_hit is False
        header, body = (json.loads(line) for line in path.read_text().splitlines())
        assert header["version"] == CACHE_VERSION == 2
        assert "body_sha256" in header and "labels" in body
        assert default_verdict_cache().stats_summary()["stale_entries"] == 0

        reloaded = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
    assert reloaded.provenance.disk_cache_hit is True
    assert reloaded.decision_fingerprint() == fresh.decision_fingerprint()
    assert reloaded.legacy.odd_cycle == fresh.legacy.odd_cycle


def test_materialized_disk_entries_do_not_collide_with_streaming(tmp_path):
    """The two sweep depths persist under distinct keys: a full
    (``early_exit=False``) sweep never serves an early-exit request and
    vice versa."""
    lcp = make_lcp("degree-one")
    with overridden(disk_cache_dir=str(tmp_path)):
        mat = decide_hiding(
            lcp,
            4,
            ExecutionPlan(
                early_exit=False,
                warm_start=False,
                disk_cache=True,
                memory_cache=False,
            ),
        )
        assert mat.provenance.disk_cache_hit is False
        stream = decide_hiding(
            lcp,
            4,
            ExecutionPlan(
                backend="streaming",
                warm_start=False,
                disk_cache=True,
                memory_cache=False,
            ),
        )
    assert stream.provenance.disk_cache_hit is False
    assert mat.ngraph.order > stream.ngraph.order
    assert mat.decision_fingerprint() == stream.decision_fingerprint()


def test_decide_hiding_k_is_a_decision_input():
    """``k`` re-parameterizes the scheme instead of raising: the native
    value is a no-op, an off-native value changes the decided question
    (and its fingerprint), and nonsense values still raise."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(disk_cache=False)
    native = decide_hiding(lcp, 3, plan, k=lcp.k)
    assert native.k == lcp.k
    off = decide_hiding(lcp, 4, plan, k=lcp.k + 1)
    assert off.k == lcp.k + 1
    assert off.decision_fingerprint() != decide_hiding(
        lcp, 4, plan
    ).decision_fingerprint()
    with pytest.raises(ValueError):
        decide_hiding(lcp, 3, plan, k=0)
    with pytest.raises(ValueError):
        decide_hiding(lcp, 3, plan, r=0)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutionPlan(backend="quantum").resolve()


def test_legacy_envelope_is_attached():
    lcp = make_lcp("degree-one")
    v = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False, disk_cache=False))
    assert v.legacy.hiding == v.hiding
    # One route, one walk: the legacy envelope carries the canonical
    # stream-order witness (11 views on the Figure 3–4 instance).
    assert len(v.witness) == 12
    assert v.legacy.odd_cycle == v.witness
    assert v.summary() == v.legacy.summary()


if HAVE_HYPOTHESIS:

    @given(
        backend=st.sampled_from(["auto", BACKEND_STREAMING]),
        kernel=st.sampled_from([None, "auto", "off"]),
        workers=st.sampled_from([None, 0, 1, 2, 7]),
        early_exit=st.booleans(),
        warm_start=st.sampled_from([None, True, False]),
        disk_cache=st.sampled_from([None, True, False]),
        config_workers=st.sampled_from([0, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_resolve_plan_invariants(
        backend,
        kernel,
        workers,
        early_exit,
        warm_start,
        disk_cache,
        config_workers,
    ):
        """``ExecutionPlan.resolve`` always produces a fully resolved plan
        honoring the explicit-beats-config precedence, and resolution is
        idempotent."""
        config = PerfConfig(workers=config_workers)
        plan = ExecutionPlan(
            backend=backend,
            kernel=kernel,
            workers=workers,
            early_exit=early_exit,
            warm_start=warm_start,
            disk_cache=disk_cache,
        ).resolve(config)
        assert plan.is_resolved
        assert plan.backend in available_backends()
        assert plan.backend == BACKEND_STREAMING
        assert plan.early_exit == early_exit
        if not kernel_available():
            assert plan.kernel == "off"
        else:
            assert plan.kernel == (kernel if kernel is not None else config.kernel)
        assert plan.workers == (workers if workers is not None else config_workers)
        if warm_start is not None:
            assert plan.warm_start == warm_start
        assert plan.resolve(config) == plan
