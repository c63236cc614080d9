"""Plan-equivalence properties of the unified hiding engine.

The engine's contract: every plan (early exit × cache tiers), on the
numpy kernels or the tests' scalar reference loops, that answers the
same question yields the *identical* decision — same hiding flag,
byte-identical canonical witness walk, and on conclusive non-hiding
sweeps the same complete graph and coloring — and the verdict's
provenance reports the sweep that actually ran.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import fields

import pytest

from repro.core.registry import all_lcps, make_lcp
from repro.engine import (
    BACKEND_STREAMING,
    ExecutionPlan,
    Provenance,
    RunContext,
    Verdict,
    available_backends,
    clear_engine_state,
    decide_hiding,
)
from repro.graphs.properties import is_odd_closed_walk
from repro.perf import PerfStats, configure, overridden
from repro.perf.config import PerfConfig

from .oracle import kernel_route, oracle_verdict

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

#: The (sweep, kernel) grid: both sweep depths, on the numpy kernels
#: (``"auto"``) and on the scalar reference loops (``"off"``; see
#: :func:`~tests.oracle.kernel_route`).
GRID = [(sweep, kernel) for sweep in SWEEPS for kernel in ("auto", "off")]


def _plan_grid(tmp_path):
    """Every (sweep × kernel × cache tier) combination of the acceptance
    criterion, as ``(label, kernel, plan, cache_dir)``.  Disk-tier plans
    get a private cache dir."""
    plans = []
    for sweep, kernel in GRID:
        for tier, memory_cache, disk_cache in (
            ("nocache", False, False),
            ("memory", True, False),
            ("memory+disk", True, True),
        ):
            label = f"{sweep}-{kernel}-{tier}"
            plan = ExecutionPlan(
                early_exit=SWEEPS[sweep],
                memory_cache=memory_cache,
                disk_cache=disk_cache,
            )
            cache_dir = str(tmp_path / label) if disk_cache else None
            plans.append((label, kernel, plan, cache_dir))
    return plans


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
def test_every_plan_yields_the_identical_decision(scheme, tmp_path):
    """The acceptance criterion: for every registry scheme, every plan in
    the grid produces the same decision fingerprint — including the
    canonical witness walk — and honest route provenance."""
    lcp = make_lcp(scheme)
    n = 4
    fingerprints = {}
    for label, kernel, plan, cache_dir in _plan_grid(tmp_path):
        clear_engine_state()
        with kernel_route(kernel), overridden(disk_cache_dir=cache_dir):
            verdict = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
        assert isinstance(verdict, Verdict), label
        assert verdict.provenance.backend == BACKEND_STREAMING, label
        assert verdict.provenance.early_exit == plan.early_exit, label
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
                    memory_cache=memory_cache,
                    disk_cache=disk_cache,
                )
                clear_engine_state()
                with kernel_route(kernel), overridden(disk_cache_dir=cache_dir):
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
        plan = ExecutionPlan(early_exit=SWEEPS[sweep], disk_cache=False)
        with kernel_route(kernel):
            fps.add(
                decide_hiding(
                    lcp, 5, plan, ctx=RunContext.isolated()
                ).decision_fingerprint()
            )
    assert len(fps) == 1


#: ``decision_fingerprint`` digest of full ``V(D, 6)`` of watermelon, as
#: pinned by tests/test_bipartite_generation.py.
WATERMELON_N6_DIGEST = "c032512099dd92e2"


def test_watermelon_n6_full_sweep_has_one_coloring():
    """Full ``V(D, 6)`` of watermelon is 2-colorable with 22 components,
    so its coloring is where two deciders could pick different colors.
    Every plan — cold, after an n=4 sweep on the same context, scalar
    kernel — reports the same coloring.  Watermelon is not anonymous, so
    none of them prunes orbits or warm-starts."""
    lcp = make_lcp("watermelon")
    plan = ExecutionPlan(early_exit=False, memory_cache=False, disk_cache=False)
    digests = {}
    for kernel in ("auto", "off"):
        with kernel_route(kernel):
            verdict = decide_hiding(lcp, 6, plan, ctx=RunContext.isolated())
        assert verdict.hiding is False, kernel
        assert verdict.provenance.symmetry_pruned is False
        digests["cold" if kernel == "auto" else "kernel-off"] = hashlib.sha256(
            verdict.decision_fingerprint()
        ).hexdigest()
    ctx = RunContext.isolated()
    decide_hiding(lcp, 4, plan, ctx=ctx)
    warm = decide_hiding(lcp, 6, plan, ctx=ctx)
    assert warm.provenance.warm_started is False
    digests["warm-from-4"] = hashlib.sha256(warm.decision_fingerprint()).hexdigest()
    assert {label: d[:16] for label, d in digests.items()} == {
        label: WATERMELON_N6_DIGEST for label in digests
    }


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
@pytest.mark.parametrize("prune", [False, True], ids=["off", "on"])
def test_vectorized_matches_streaming_exactly(scheme, prune):
    """The batch kernel is a drop-in for the scalar reference loops on
    the streaming backend: same decision bytes, same witness, and the same
    ``Provenance.instances_scanned`` under early exit (the kernel must
    stop at the same instance); the engine prunes orbits exactly on the
    anonymous schemes.  With early exit off, the build-then-decide
    oracle agrees on the graph and the count too, on both routes, with
    (*prune*, forced on the non-anonymous schemes) or without orbit
    pruning."""
    lcp = make_lcp(scheme)
    for n, early_exit in itertools.product((3, 4), (True, False)):
        verdicts = {}
        for kernel in ("auto", "off"):
            plan = ExecutionPlan(
                backend=BACKEND_STREAMING,
                early_exit=early_exit,
                memory_cache=False,
                disk_cache=False,
            )
            with kernel_route(kernel):
                verdicts[kernel] = decide_hiding(
                    lcp, n, plan, ctx=RunContext.isolated()
                )
        vec, stream = verdicts["auto"], verdicts["off"]
        assert vec.decision_fingerprint() == stream.decision_fingerprint()
        assert vec.witness == stream.witness
        assert (
            vec.provenance.instances_scanned == stream.provenance.instances_scanned
        )
        assert vec.provenance.symmetry_pruned == lcp.anonymous
        if early_exit:
            continue
        for kernel in ("auto", "off"):
            with kernel_route(kernel):
                mat = oracle_verdict(lcp, n, prune=prune)
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
    the same decision bytes as cold ones, and say so in provenance.  Cold
    sweeps run on fresh isolated contexts, the warm chain on the default
    one."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(backend="streaming", disk_cache=False)
    cold = {}
    for n in (3, 4, 5):
        cold[n] = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
        assert not cold[n].provenance.warm_started
        assert not cold[n].provenance.warm_witness_hit
    warm = {n: decide_hiding(lcp, n, plan) for n in (3, 4, 5)}
    for n in (3, 4, 5):
        assert warm[n].decision_fingerprint() == cold[n].decision_fingerprint()
    assert warm[4].provenance.warm_started
    # degree-one hides at n = 4, so n = 5 was answered by the witness
    # shortcut without a sweep.
    assert warm[4].hiding is True
    assert warm[5].provenance.warm_witness_hit is True
    last = decide_hiding(
        lcp, 5, ExecutionPlan(backend="streaming", disk_cache=False, memory_cache=False)
    )
    assert last.provenance.warm_witness_hit is True


def test_isolated_contexts_start_cold():
    """Warm-start states live in a context's memo tier: a fresh isolated
    context never resumes another context's sweep, while the same
    context — isolated or the default one — resumes its own."""
    lcp = make_lcp("even-cycle")
    # A full sweep: an early-exit one would take the witness shortcut.
    plan = ExecutionPlan(early_exit=False, disk_cache=False)
    first = RunContext.isolated()
    assert not decide_hiding(lcp, 4, plan, ctx=first).provenance.warm_started
    fresh = decide_hiding(lcp, 5, plan, ctx=RunContext.isolated())
    assert fresh.provenance.warm_started is False
    same = decide_hiding(lcp, 5, plan, ctx=first)
    assert same.provenance.warm_started is True
    assert same.decision_fingerprint() == fresh.decision_fingerprint()
    decide_hiding(lcp, 4, plan)
    assert decide_hiding(lcp, 5, plan).provenance.warm_started is True
    clear_engine_state()
    assert decide_hiding(lcp, 5, plan).provenance.warm_started is False


def test_provenance_reports_the_backend_that_ran():
    lcp = make_lcp("degree-one")
    for sweep, kernel in GRID:
        clear_engine_state()
        plan = ExecutionPlan(early_exit=SWEEPS[sweep], disk_cache=False)
        with kernel_route(kernel):
            verdict = decide_hiding(lcp, 3, plan)
        assert verdict.provenance.backend == BACKEND_STREAMING
        assert verdict.provenance.early_exit == SWEEPS[sweep]
        assert verdict.provenance.n == 3
        assert verdict.provenance.summary()


def test_auto_backend_resolves_to_streaming():
    """``"auto"`` has one route to pick; the default plan is an early-exit
    sweep whatever the session config says."""
    lcp = make_lcp("degree-one")
    for config in (PerfConfig(), PerfConfig(disk_cache=True, disk_cache_dir="x")):
        plan = ExecutionPlan().resolve(config)
        assert plan.backend == BACKEND_STREAMING
        assert plan.early_exit is True
    v = decide_hiding(lcp, 3, ExecutionPlan(disk_cache=False))
    assert v.provenance.backend == BACKEND_STREAMING
    assert v.provenance.early_exit is True


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_kernel_modes_share_one_disk_address(sweep, tmp_path):
    """The kernel route never enters a cache identity: a verdict written
    by the scalar reference route is a disk hit on the numpy route."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(early_exit=SWEEPS[sweep], disk_cache=True)
    with overridden(disk_cache_dir=str(tmp_path)):
        with kernel_route("off"):
            written = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
        with kernel_route("auto"):
            read = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
    assert written.provenance.disk_cache_hit is False
    assert read.provenance.disk_cache_hit is True
    assert read.decision_fingerprint() == written.decision_fingerprint()


@pytest.mark.parametrize(
    "field, value",
    [("backend", "vectorized"), ("backend", "materialized"), ("kernel", "on")],
)
def test_retired_option_values_are_rejected(field, value):
    """The retired backend values fail at resolve, naming the valid
    values.  The kernel field is retired whole, so its old ``"on"``
    value fails already at construction, naming the field."""
    if field == "kernel":
        with pytest.raises(TypeError, match="kernel"):
            ExecutionPlan(**{field: value})
        return
    with pytest.raises(ValueError) as exc:
        ExecutionPlan(**{field: value}).resolve()
    message = str(exc.value)
    assert repr(value) in message
    for name in ("auto", "streaming"):
        assert name in message


def test_plan_fields_are_pinned():
    """The plan surface is nine fields.  Every sweep admits all
    unanimously accepted labelings, and orbit pruning and warm starts
    follow ``lcp.anonymous``, so no plan field switches any of them
    (the session config's fields are pinned in test_perf_caches)."""
    assert [f.name for f in fields(ExecutionPlan)] == [
        "backend",
        "early_exit",
        "memory_cache",
        "disk_cache",
        "port_limit",
        "id_order_types",
        "labeling_limit",
        "graph_family",
        "alphabet_limit",
    ]
    for name, value in (
        ("include_all_accepted_labelings", True),
        ("symmetry", "off"),
        ("warm_start", False),
    ):
        with pytest.raises(TypeError, match=name):
            ExecutionPlan(**{name: value})


#: Two values per plan field, the first the default.
PLAN_GRID = {
    "backend": ("auto", "streaming"),
    "early_exit": (True, False),
    "memory_cache": (True, False),
    "disk_cache": (None, True),
    "port_limit": (64, 8),
    "id_order_types": (False, True),
    "labeling_limit": (20_000, 0),
    "graph_family": ("all", "even-cycles"),
    "alphabet_limit": (None, 2),
}


def test_family_keys_match_disk_keys_without_n():
    """One sweep identity: over every registry scheme and the grid of
    all nine plan fields, two family keys are equal exactly when the
    disk keys without ``n`` are, and the memory key adds only ``n``."""
    from repro.engine.backends import disk_key, family_key, memory_key

    assert list(PLAN_GRID) == [f.name for f in fields(ExecutionPlan)]
    pairs = set()
    for lcp in all_lcps().values():
        for values in itertools.product(*PLAN_GRID.values()):
            plan = ExecutionPlan(**dict(zip(PLAN_GRID, values)))
            key = disk_key(lcp, 5, plan)
            assert key.pop("n") == 5
            family = family_key(lcp, plan)
            assert memory_key(lcp, 5, plan) == family + (5,)
            pairs.add((family, json.dumps(key, sort_keys=True)))
    families = {family for family, _ in pairs}
    disk_keys = {disk for _, disk in pairs}
    assert len(families) == len(disk_keys) == len(pairs)


def test_provenance_fields_are_pinned():
    """Provenance records the sweep, not a kernel route: every sweep
    runs the numpy kernels, so the retired ``kernel`` field is gone and
    constructing with it fails loudly."""
    assert [f.name for f in fields(Provenance)] == [
        "backend",
        "n",
        "early_exit",
        "instances_scanned",
        "views",
        "edges",
        "disk_cache_hit",
        "warm_started",
        "warm_witness_hit",
        "symmetry_pruned",
        "wall_time_s",
        "trace_id",
    ]
    with pytest.raises(TypeError, match="kernel"):
        Provenance(
            backend="streaming",
            n=3,
            early_exit=True,
            instances_scanned=0,
            views=0,
            edges=0,
            kernel="batch",
        )


@pytest.mark.parametrize("kernel", ["auto", "off"])
def test_kernel_route_reaches_the_route_it_names(kernel):
    """The parity grids above compare two routes only if ``"off"``
    really swaps the reference loop in: the join then evaluates no rows.
    (The generation half of the swap is pinned in
    test_generation_kernel.)"""
    stats = PerfStats()
    plan = ExecutionPlan(early_exit=False, memory_cache=False, disk_cache=False)
    with kernel_route(kernel):
        decide_hiding(make_lcp("degree-one"), 4, plan, ctx=RunContext(stats=stats))
    assert (stats.get("kernel_labelings") > 0) == (kernel == "auto")


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
    plan = ExecutionPlan(backend="streaming", disk_cache=True, memory_cache=False)
    with overridden(disk_cache_dir=str(tmp_path)):
        ctx = RunContext.isolated()
        first = decide_hiding(lcp, 4, plan, ctx=ctx)
        assert ctx.stats.get("persist_writes") == 1
        assert first.provenance.disk_cache_hit is False
        ctx = RunContext.isolated()
        second = decide_hiding(lcp, 4, plan, ctx=ctx)
        assert ctx.stats.get("disk_hits") == 1
    assert second.provenance.disk_cache_hit is True
    assert second.decision_fingerprint() == first.decision_fingerprint()
    assert first.ngraph.has_provenance
    assert not second.ngraph.has_provenance


def _old_format_entries(fresh, key) -> dict:
    """``version -> (header, body)`` of the entry *fresh* had under each
    retired cache format: version 1 (inline-label views, no label table,
    no body checksum) and version 2 (label-interned views that each
    carry their own shape fields)."""
    import json

    from repro.engine.stores import encode_label

    from .oracle import encode_view

    g = fresh.ngraph
    common = {
        "hiding": fresh.hiding,
        "k": fresh.k,
        "radius": g.radius,
        "include_ids": g.include_ids,
        "early_exit": True,
        "instances_scanned": g.instances_scanned,
        "edges": [list(edge) for edge in sorted(g.edges)],
        "odd_cycle": [g.index[view] for view in fresh.witness],
        "coloring": None,
    }
    v1_body = {**common, "views": [encode_view(view) for view in g.views]}
    table: list = []
    v2_views = []
    for view in g.views:
        payload = encode_view(view)
        labels = []
        for label in view.labels:
            encoded = encode_label(label)
            if encoded not in table:
                table.append(encoded)
            labels.append(table.index(encoded))
        payload["labels"] = labels
        v2_views.append(payload)
    v2_body = {**common, "labels": table, "views": v2_views}
    v2_line = json.dumps(v2_body, separators=(",", ":")).encode()
    counts = {"key": key, "views": g.order, "edges": g.size}
    return {
        1: ({"version": 1, **counts}, v1_body),
        2: (
            {"version": 2, **counts, "body_sha256": hashlib.sha256(v2_line).hexdigest()},
            v2_body,
        ),
    }


def test_v1_disk_entries_read_as_stale_misses(tmp_path):
    """A version-1 entry (inline-label views, no label table, no body
    checksum) is a stale miss: no second reader serves it, and the next
    store replaces it with a version-3 entry that then serves."""
    _assert_stale_then_replaced(tmp_path, 1)


def test_v2_disk_entries_read_as_stale_misses(tmp_path):
    """So is a version-2 entry (label-interned views that each carry
    their own shape), checksum and all."""
    _assert_stale_then_replaced(tmp_path, 2)


def _assert_stale_then_replaced(tmp_path, version: int) -> None:
    import json

    from repro.engine.backends import disk_key
    from repro.engine.stores import CACHE_VERSION, DiskVerdictStore

    lcp = make_lcp("degree-one")
    plan = ExecutionPlan(
        backend="streaming", disk_cache=True, memory_cache=False
    ).resolve()
    with overridden(disk_cache_dir=str(tmp_path)):
        fresh = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
        key = disk_key(lcp, 4, plan)
        assert "backend" not in key
        assert key["engine_version"] == 1
        header, body = _old_format_entries(fresh, key)[version]
        path = DiskVerdictStore()._path(key)
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(body, separators=(",", ":")) + "\n"
        )
        assert DiskVerdictStore().stats_summary()["stale_entries"] == 1

        ctx = RunContext.isolated()
        again = decide_hiding(lcp, 4, plan, ctx=ctx)
        assert ctx.stats.get("disk_misses") == 1
        assert again.provenance.disk_cache_hit is False
        header, body = (json.loads(line) for line in path.read_text().splitlines())
        assert header["version"] == CACHE_VERSION == 3
        assert "body_sha256" in header and "shapes" in body and "labels" in body
        assert DiskVerdictStore().stats_summary()["stale_entries"] == 0

        reloaded = decide_hiding(lcp, 4, plan, ctx=RunContext.isolated())
    assert reloaded.provenance.disk_cache_hit is True
    assert reloaded.decision_fingerprint() == fresh.decision_fingerprint()
    assert reloaded.witness == fresh.witness


def test_materialized_disk_entries_do_not_collide_with_streaming(tmp_path):
    """The two sweep depths persist under distinct keys: a full
    (``early_exit=False``) sweep never serves an early-exit request and
    vice versa."""
    lcp = make_lcp("degree-one")
    with overridden(disk_cache_dir=str(tmp_path)):
        mat = decide_hiding(
            lcp,
            4,
            ExecutionPlan(early_exit=False, disk_cache=True, memory_cache=False),
            ctx=RunContext.isolated(),
        )
        assert mat.provenance.disk_cache_hit is False
        stream = decide_hiding(
            lcp,
            4,
            ExecutionPlan(backend="streaming", disk_cache=True, memory_cache=False),
            ctx=RunContext.isolated(),
        )
    assert stream.provenance.disk_cache_hit is False
    assert mat.ngraph.order > stream.ngraph.order
    assert mat.decision_fingerprint() == stream.decision_fingerprint()


def test_decide_hiding_k_is_a_decision_input():
    """``k`` re-parameterizes the scheme instead of raising: the native
    value is a no-op, an off-native value changes the decided question
    (and its fingerprint), and nonsense values of ``k``, ``r`` and ``n``
    still raise."""
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
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            decide_hiding(lcp, n, plan)


@pytest.mark.parametrize("value", [0, -5])
def test_port_limit_below_one_is_rejected(value):
    """``port_limit`` 0 or negative used to sweep exactly what 1 does,
    silently; resolve now rejects it, naming the field and the value."""
    with pytest.raises(ValueError, match=f"port_limit must be positive, got {value}"):
        ExecutionPlan(port_limit=value).resolve()
    with pytest.raises(ValueError, match="port_limit"):
        decide_hiding(make_lcp("degree-one"), 3, ExecutionPlan(port_limit=value))


@pytest.mark.parametrize("value", [0, -5])
def test_labeling_limit_below_zero_is_rejected(value):
    """``labeling_limit`` 0 is a real bound (prover labelings only);
    a negative one is rejected at resolve."""
    plan = ExecutionPlan(labeling_limit=value)
    if value == 0:
        assert plan.resolve().labeling_limit == 0
        return
    with pytest.raises(
        ValueError, match=f"labeling_limit must be non-negative, got {value}"
    ):
        plan.resolve()
    with pytest.raises(ValueError, match="labeling_limit"):
        decide_hiding(make_lcp("degree-one"), 3, plan)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutionPlan(backend="quantum").resolve()


def test_summary_text_is_pinned():
    """``Verdict.summary()`` renders from the envelope's own fields: the
    canonical stream-order witness (11 views on the Figure 3–4
    instance) on a hiding verdict, the colorability claim otherwise."""
    plan = ExecutionPlan(early_exit=False, disk_cache=False)
    hiding = decide_hiding(make_lcp("degree-one"), 4, plan)
    assert len(hiding.witness) == 12
    assert hiding.summary() == "hiding (k=2): YES — odd closed walk of 11 views"
    colorable = decide_hiding(make_lcp("revealing"), 4, plan)
    assert colorable.witness is None
    assert colorable.summary() == "hiding (k=2): NO — V(D, n) is 2-colorable"


if HAVE_HYPOTHESIS:

    @given(
        backend=st.sampled_from(["auto", BACKEND_STREAMING]),
        early_exit=st.booleans(),
        disk_cache=st.sampled_from([None, True, False]),
        config_disk_cache=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_resolve_plan_invariants(
        backend,
        early_exit,
        disk_cache,
        config_disk_cache,
    ):
        """``ExecutionPlan.resolve`` always produces a fully resolved plan
        honoring the explicit-beats-config precedence, and resolution is
        idempotent."""
        config = PerfConfig(disk_cache=config_disk_cache)
        plan = ExecutionPlan(
            backend=backend,
            early_exit=early_exit,
            disk_cache=disk_cache,
        ).resolve(config)
        assert plan.backend in available_backends()
        assert plan.backend == BACKEND_STREAMING
        assert plan.early_exit == early_exit
        assert plan.disk_cache == (
            disk_cache if disk_cache is not None else config_disk_cache
        )
        assert plan.resolve(config) == plan
