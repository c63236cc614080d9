"""Campaign layer: spec expansion, the driver, cache identity, and the
frontier report.

The load-bearing properties:

* a **default cell** (native ``k``/``r``, full family, full alphabet)
  answers with the byte-identical decision fingerprint of a direct
  ``decide_hiding`` call, and its disk key digests to the exact
  pre-campaign content address (existing ``.repro_cache/`` entries keep
  serving);
* cell verdicts round-trip both ``VerdictStore`` tiers, including cells
  off the native parameters;
* the frontier report locates real verdict flips, survives a
  write/load round-trip, and satisfies its own validator.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.campaign import (
    CampaignSpec,
    Cell,
    FrontierReport,
    build_frontier_report,
    run_campaign,
    validate_frontier_report,
)
from repro.campaign.frontier import find_flips
from repro.core.registry import make_lcp
from repro.engine import (
    ExecutionPlan,
    RunContext,
    clear_engine_state,
    decide_hiding,
)
from repro.engine.backends import ENGINE_VERSION, disk_key
from repro.engine.stores import DiskVerdictStore, MemoryVerdictStore
from repro.perf import overridden
from repro.perf.persist import digest_for


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


NO_CACHE = ExecutionPlan(disk_cache=False)


# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------


def test_cells_resolve_native_parameters_and_dedupe():
    """``None`` k/r resolve at expansion; the explicit native value next
    to ``None`` collapses to one cell."""
    native = make_lcp("degree-one")
    spec = CampaignSpec.sweep(
        ("degree-one",), n_max=4, n_min=3, k_values=(None, native.k, 3)
    )
    cells = list(spec.cells())
    assert all(cell.k in (native.k, 3) for cell in cells)
    assert all(cell.r == native.radius for cell in cells)
    assert len(cells) == len({cell.key() for cell in cells})
    assert len(cells) == 4  # 2 n-values x 2 distinct k-values


def test_cells_order_n_innermost_ascending():
    """The stream order keeps ``n`` innermost and ascending so one sweep
    family's cells warm-start each other."""
    spec = CampaignSpec.sweep(
        ("degree-one", "even-cycle"), n_max=5, n_min=3, k_values=(2, 3)
    )
    cells = list(spec.cells())
    for before, after in zip(cells, cells[1:]):
        if before.key()[:-4] == after.key()[:-4] and before.k == after.k:
            assert after.n > before.n
    # scheme is the outermost axis
    schemes = [cell.scheme for cell in cells]
    assert schemes == sorted(schemes, key=("degree-one", "even-cycle").index)


def test_invalid_specs_are_rejected():
    assert CampaignSpec(schemes=(), n_values=(3,)).validate()
    assert CampaignSpec(schemes=("no-such-scheme",), n_values=(3,)).validate()
    assert CampaignSpec(
        schemes=("degree-one",), n_values=(3,), families=("no-such-family",)
    ).validate()
    assert CampaignSpec(schemes=("degree-one",), n_values=(0,)).validate()
    assert CampaignSpec(schemes=("degree-one",), n_values=(3,), k_values=(0,)).validate()
    with pytest.raises(ValueError, match="invalid campaign spec"):
        list(CampaignSpec(schemes=(), n_values=()).cells())
    assert not CampaignSpec.sweep(("degree-one",), n_max=4).validate()


# ----------------------------------------------------------------------
# Default cells reproduce the seed decisions byte-for-byte
# ----------------------------------------------------------------------


def test_default_cells_reproduce_direct_decisions():
    """Every native-parameter cell answers with the byte-identical
    fingerprint of a plain ``decide_hiding`` call — the campaign layer
    adds no decision semantics of its own."""
    spec = CampaignSpec.sweep(
        ("degree-one", "even-cycle"), n_max=5, n_min=3, plan=NO_CACHE
    )
    for cell in spec.cells():
        assert cell.k == make_lcp(cell.scheme).k
        clear_engine_state()
        direct = decide_hiding(
            make_lcp(cell.scheme), cell.n, NO_CACHE, ctx=RunContext.isolated()
        )
        clear_engine_state()
        via_cell = decide_hiding(
            make_lcp(cell.scheme),
            cell.n,
            cell.plan(NO_CACHE.resolve()),
            k=cell.k,
            r=cell.r,
            ctx=RunContext.isolated(),
        )
        assert (
            via_cell.decision_fingerprint() == direct.decision_fingerprint()
        ), cell.label()


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------


def test_default_cell_disk_key_is_the_precampaign_address():
    """The frozen pre-campaign key layout, written out literally: a
    default cell's disk key must digest to this exact content address,
    so every ``.repro_cache/`` entry from before the campaign layer
    still resolves."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan().resolve()
    precampaign_key = {
        "engine_version": ENGINE_VERSION,
        "lcp_type": type(lcp).__name__,
        "lcp_name": lcp.name,
        "decoder": lcp.decoder.name,
        "k": lcp.k,
        "radius": lcp.radius,
        "anonymous": lcp.anonymous,
        "n": 4,
        "port_limit": plan.port_limit,
        "id_order_types": plan.id_order_types,
        "include_all_accepted_labelings": True,
        "labeling_limit": plan.labeling_limit,
        "early_exit": plan.early_exit,
    }
    if plan.backend != "streaming":
        precampaign_key["backend"] = plan.backend
    # Orbit pruning is effective for the anonymous degree-one scheme
    # under the default config, and was already part of the pre-campaign
    # layout when effective.
    precampaign_key["symmetry"] = "on"
    cell = Cell(scheme="degree-one", family="all", n=4, k=lcp.k, r=lcp.radius)
    cell_key = disk_key(cell.lcp(), cell.n, cell.plan(plan))
    assert cell_key == precampaign_key
    assert digest_for(cell_key) == digest_for(precampaign_key)
    assert digest_for(cell_key) == "cb449e10c82a527cf3fbbfc4d3f4415f"


#: Content addresses of the default-plan cells of the benchmark campaign
#: (five schemes, n = 3..5, k = 2, 3), as computed while orbit pruning
#: was still a plan field.  Pruning now follows ``lcp.anonymous``, and
#: the disk key's ``symmetry`` tag with it, so every address is kept.
CAMPAIGN_DISK_KEYS = (
    ("even-cycle[all] n=3 k=2 r=1", "5177a8e2acfe4fa181c3bd91110419d0"),
    ("even-cycle[all] n=4 k=2 r=1", "110cebf1578a2eca38cfe1629b5b15e0"),
    ("even-cycle[all] n=5 k=2 r=1", "d008c73534608907242faafa7115a996"),
    ("even-cycle[all] n=3 k=3 r=1", "8bfd1e325ced840b5a7adc786e26b268"),
    ("even-cycle[all] n=4 k=3 r=1", "c6bbcdfe430d73a4de97189ec1ec5549"),
    ("even-cycle[all] n=5 k=3 r=1", "5247aeb0f952172a2a0ec11e607b42d5"),
    ("union[all] n=3 k=2 r=1", "ebef42fd3d746a8d715ee3d83f326b1a"),
    ("union[all] n=4 k=2 r=1", "75d84aa83b781a73ebe48d0627dc052b"),
    ("union[all] n=5 k=2 r=1", "16d60e70e9e2fab8038a15f59ddab6a9"),
    ("union[all] n=3 k=3 r=1", "b86a2e9ea6bdcd9470871b6689d13bc3"),
    ("union[all] n=4 k=3 r=1", "e427f9129267e2a8e31007f6d253f6ee"),
    ("union[all] n=5 k=3 r=1", "1b427616534e220a13d748596def35b5"),
    ("revealing[all] n=3 k=2 r=1", "dc688c93bda245bce5e320d060a90ad5"),
    ("revealing[all] n=4 k=2 r=1", "834ba95017194cdc2270acd73f94b9dc"),
    ("revealing[all] n=5 k=2 r=1", "4260b51c7339e2b9b295df8719ad7293"),
    ("revealing[all] n=3 k=3 r=1", "1d9a15023db74fd11d843a167ac0283e"),
    ("revealing[all] n=4 k=3 r=1", "68964ef2011e71467fc737fe31b1944b"),
    ("revealing[all] n=5 k=3 r=1", "83a5781b48025918966c23b7d34ad677"),
    ("shatter[all] n=3 k=2 r=1", "fca52d965b480c5d66a4afed91f09c3a"),
    ("shatter[all] n=4 k=2 r=1", "f0548f98ad0c85ea38d0e85b268c42d5"),
    ("shatter[all] n=5 k=2 r=1", "3d227ae88475e1112abdc637f886feab"),
    ("shatter[all] n=3 k=3 r=1", "36af516e71f33ab3aa0a81a81b6e6e82"),
    ("shatter[all] n=4 k=3 r=1", "47c24846dcb2fe2de5374a107e88b02a"),
    ("shatter[all] n=5 k=3 r=1", "91ff4b14acc6764cb6904922865354a7"),
    ("watermelon[all] n=3 k=2 r=1", "bbcbab25948e3842b200fbcb2a6055e7"),
    ("watermelon[all] n=4 k=2 r=1", "59184e0cf00958cad2d01d25ac948ee3"),
    ("watermelon[all] n=5 k=2 r=1", "aa02093f8d16cedb913f81dc92fdd739"),
    ("watermelon[all] n=3 k=3 r=1", "bea349ec75f88da24ac2de8ed30d5030"),
    ("watermelon[all] n=4 k=3 r=1", "48af4407db6af677fd5b845a254099d9"),
    ("watermelon[all] n=5 k=3 r=1", "f87618aec4f5707e3a566f1d20a1d0f5"),
)


def test_campaign_disk_keys_are_pinned():
    """Every default-plan cell of the benchmark campaign keeps its
    content address, so a ``.repro_cache/`` filled before orbit pruning
    and warm starts became scheme-derived still serves; the ``symmetry``
    tag is present exactly on the anonymous schemes."""
    spec = CampaignSpec.sweep(
        ("even-cycle", "union", "revealing", "shatter", "watermelon"),
        n_min=3,
        n_max=5,
        k_values=(2, 3),
        plan=ExecutionPlan(disk_cache=True),
    )
    plan = spec.plan.resolve()
    got = []
    for cell in spec.cells():
        key = disk_key(cell.lcp(), cell.n, cell.plan(plan))
        assert ("symmetry" in key) == cell.lcp().anonymous, cell.label()
        got.append((cell.label(), digest_for(key)))
    assert tuple(got) == CAMPAIGN_DISK_KEYS


def test_off_default_cells_get_distinct_addresses():
    """Off-native k and non-default family/alphabet axes each move the
    content address — a campaign can never poison a default entry."""
    lcp = make_lcp("degree-one")
    plan = ExecutionPlan().resolve()
    default = Cell(scheme="degree-one", family="all", n=4, k=lcp.k, r=lcp.radius)
    digests = {
        digest_for(disk_key(cell.lcp(), cell.n, cell.plan(plan)))
        for cell in (
            default,
            dataclasses.replace(default, k=3),
            dataclasses.replace(default, family="even-cycles"),
            dataclasses.replace(default, alphabet_limit=2),
        )
    }
    assert len(digests) == 4
    # and the non-default axes appear in the readable key only when set
    base_key = disk_key(lcp, 4, plan)
    assert "graph_family" not in base_key
    assert "alphabet_limit" not in base_key
    family_cell = dataclasses.replace(default, family="even-cycles")
    family_key = disk_key(family_cell.lcp(), 4, family_cell.plan(plan))
    assert family_key["graph_family"] == "even-cycles"


def test_precampaign_disk_entries_still_resolve(tmp_path):
    """An entry persisted under the pre-campaign address is served to a
    default campaign cell: write through a plain plan, read through the
    cell-scoped plan."""
    with overridden(disk_cache_dir=str(tmp_path)):
        plan = ExecutionPlan(backend="streaming", memory_cache=False, disk_cache=True)
        first = decide_hiding(
            make_lcp("degree-one"), 4, plan, ctx=RunContext.isolated()
        )
        assert first.provenance.disk_cache_hit is False
        lcp = make_lcp("degree-one")
        cell = Cell(scheme="degree-one", family="all", n=4, k=lcp.k, r=lcp.radius)
        clear_engine_state()
        second = decide_hiding(
            make_lcp(cell.scheme),
            cell.n,
            cell.plan(plan.resolve()),
            k=cell.k,
            r=cell.r,
            ctx=RunContext.isolated(),
        )
    assert second.provenance.disk_cache_hit is True
    assert second.decision_fingerprint() == first.decision_fingerprint()


# ----------------------------------------------------------------------
# VerdictStore round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "cell",
    [
        Cell(scheme="degree-one", family="all", n=4, k=2, r=1),
        Cell(scheme="degree-one", family="all", n=4, k=3, r=1),
        Cell(scheme="even-cycle", family="even-cycles", n=4, k=2, r=1),
    ],
    ids=lambda cell: cell.label(),
)
def test_cell_verdicts_round_trip_both_store_tiers(cell, tmp_path):
    """A cell's verdict survives both tiers: the memory store returns
    the same envelope, the disk store reconstructs one with the same
    decision fingerprint under the cell's own key."""
    plan = cell.plan(ExecutionPlan(backend="streaming", disk_cache=False).resolve())
    verdict = decide_hiding(
        make_lcp(cell.scheme), cell.n, plan, k=cell.k, r=cell.r,
        ctx=RunContext.isolated(),
    )
    memory = MemoryVerdictStore()
    assert memory.load(cell.key()) is None
    memory.store(cell.key(), verdict)
    assert memory.load(cell.key()) is verdict

    disk = DiskVerdictStore()
    key = disk_key(cell.lcp(), cell.n, plan)
    with overridden(disk_cache_dir=str(tmp_path)):
        assert disk.load(key) is None
        assert disk.store(key, verdict)
        restored = disk.load(key)
    assert restored is not None
    assert restored.hiding == verdict.hiding
    assert restored.decision_fingerprint() == verdict.decision_fingerprint()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def test_run_campaign_records_per_cell_provenance():
    spec = CampaignSpec.sweep(("degree-one",), n_max=4, n_min=3, plan=NO_CACHE)
    run = run_campaign(spec, ctx=RunContext.isolated())
    assert len(run.results) == 2
    assert not run.errors
    for result in run.results:
        assert result.hiding in (True, False)
        assert result.colorable == (not result.hiding)
        assert result.fingerprint
        assert result.provenance["backend"] == run.plan.backend
        assert result.provenance["views"] > 0
        assert result.wall_time_s >= 0.0


def test_run_campaign_survives_a_bad_cell(monkeypatch):
    """One raising cell becomes an errored result; the sweep continues."""
    import repro.campaign.driver as driver_mod

    spec = CampaignSpec.sweep(("degree-one",), n_max=4, n_min=3, plan=NO_CACHE)
    real = driver_mod.decide_hiding

    def flaky(lcp, n, plan, **kwargs):
        if n == 3:
            raise RuntimeError("boom")
        return real(lcp, n, plan, **kwargs)

    monkeypatch.setattr(driver_mod, "decide_hiding", flaky)
    run = run_campaign(spec, ctx=RunContext.isolated())
    assert len(run.results) == 2
    assert len(run.errors) == 1
    assert run.errors[0].error == "RuntimeError: boom"
    assert run.results[1].ok


# ----------------------------------------------------------------------
# Frontier report
# ----------------------------------------------------------------------


def _even_cycle_run():
    spec = CampaignSpec.sweep(
        ("even-cycle",), n_max=6, n_min=3, k_values=(2, 3), plan=NO_CACHE
    )
    return run_campaign(spec, ctx=RunContext.isolated())


def test_frontier_locates_the_even_cycle_flip():
    """The acceptance campaign: even-cycle, n <= 6, k in {2, 3} — the
    hiding verdict flips along n at 3 -> 4 for both k values."""
    run = _even_cycle_run()
    report = build_frontier_report(run)
    assert validate_frontier_report(report.payload) == []
    flips = report.payload["flips"]
    assert len(flips) >= 1
    n_flips = [flip for flip in flips if flip["axis"] == "n"]
    assert {(flip["from"]["value"], flip["to"]["value"]) for flip in n_flips} == {
        (3, 4)
    }
    for flip in n_flips:
        assert flip["from"]["hiding"] is False
        assert flip["to"]["hiding"] is True
        assert flip["from"]["colorable"] is True


def test_frontier_of_both_theorem_schemes_validates_and_flips():
    """Both Theorem 1.1 schemes, n = 3..5, k in {2, 3}: every cell
    decides, the report is schema-valid, and it locates the flips."""
    spec = CampaignSpec.sweep(
        ("degree-one", "even-cycle"),
        n_min=3,
        n_max=5,
        k_values=(2, 3),
        plan=NO_CACHE,
    )
    run = run_campaign(spec, ctx=RunContext.isolated())
    assert not run.errors
    report = build_frontier_report(run)
    assert validate_frontier_report(report.payload) == []
    summary = report.payload["summary"]
    assert summary["cells"] == 12
    assert summary["flips"] == 5
    assert summary["flips_by_axis"] == {"n": 3, "k": 2}
    degree_one = [
        (flip["at"]["k"], flip["from"]["value"], flip["to"]["value"])
        for flip in report.payload["flips"]
        if flip["axis"] == "n" and flip["at"]["scheme"] == "degree-one"
    ]
    assert degree_one == [(2, 3, 4)]


def test_frontier_report_round_trips(tmp_path):
    run = _even_cycle_run()
    report = build_frontier_report(run)
    canonical = report.write(directory=tmp_path)
    assert canonical.name == f"{report.digest}.json"
    loaded = FrontierReport.load(report.digest, directory=tmp_path)
    assert loaded.payload == report.payload
    assert loaded.digest == report.digest
    assert validate_frontier_report(loaded.payload) == []
    assert "frontier report" in loaded.render()


def test_frontier_show_renders_a_report_with_retired_plan_fields(tmp_path, capsys):
    """A frontier report written while plans still carried ``symmetry``
    and ``warm_start`` validates and renders: the plan is stored as
    plain data and no reader looks those keys up."""
    import json

    from repro.cli import main

    spec = CampaignSpec.sweep(("even-cycle",), n_max=4, n_min=3, plan=NO_CACHE)
    payload = build_frontier_report(run_campaign(spec, ctx=RunContext.isolated())).payload
    payload["plan"] = {**payload["plan"], "warm_start": True, "symmetry": "auto"}
    path = tmp_path / "old_frontier.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["frontier", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("frontier report ")
    assert "even-cycle[all] n=4" in out


def test_find_flips_skips_errored_and_undecided_cells():
    run = _even_cycle_run()
    flips_before = find_flips(run.results)
    broken = tuple(
        dataclasses.replace(result, hiding=None, colorable=None)
        if result.cell.n == 4
        else result
        for result in run.results
    )
    # with n=4 undecided, adjacency is 3 -> 5 (both hiding=... flips remain
    # only if the verdicts still differ across the gap)
    for flip in find_flips(broken):
        assert flip["from"]["value"] != 4
        assert flip["to"]["value"] != 4
    assert flips_before  # sanity: the unbroken run has flips


def test_validator_flags_corrupt_payloads():
    run = _even_cycle_run()
    payload = build_frontier_report(run).payload
    assert validate_frontier_report(payload) == []

    bad = dict(payload, schema="bogus/v0")
    assert any("schema" in error for error in validate_frontier_report(bad))

    bad = {key: value for key, value in payload.items() if key != "summary"}
    assert any("summary" in error for error in validate_frontier_report(bad))

    bad = dict(payload, cells=[])
    assert any("non-empty" in error for error in validate_frontier_report(bad))

    cells = [dict(record) for record in payload["cells"]]
    cells[0]["colorable"] = cells[0]["hiding"]
    bad = dict(payload, cells=cells)
    assert any("complement" in error for error in validate_frontier_report(bad))

    summary = dict(payload["summary"], cells=999)
    bad = dict(payload, summary=summary)
    assert any("summary.cells" in error for error in validate_frontier_report(bad))

    assert validate_frontier_report([1]) == ["frontier payload must be a JSON object"]


# ----------------------------------------------------------------------
# Pinned decisions of the frontier campaign
# ----------------------------------------------------------------------

#: Cell fingerprints of the benchmark's frontier campaign (five schemes,
#: ``n = 3..5``, ``k in {2, 3}``).  They are independent of
#: ``PYTHONHASHSEED``; a change to any of them changes a decision.
FRONTIER_FINGERPRINTS = (
    ("even-cycle[all] n=3 k=2 r=1", "c0d8188b07e24b77f6e882275dc8caa6"),
    ("even-cycle[all] n=4 k=2 r=1", "17988d03caac585774abe3831d0eb79d"),
    ("even-cycle[all] n=5 k=2 r=1", "17988d03caac585774abe3831d0eb79d"),
    ("even-cycle[all] n=3 k=3 r=1", "d52dae23182748c155d4e5d01210a8c6"),
    ("even-cycle[all] n=4 k=3 r=1", "cbadd768fb881dcadacdb1888b809f75"),
    ("even-cycle[all] n=5 k=3 r=1", "cbadd768fb881dcadacdb1888b809f75"),
    ("union[all] n=3 k=2 r=1", "6f42ea4d374a534edfe239c5f106f8fb"),
    ("union[all] n=4 k=2 r=1", "76378774b610a99bf8df69e94d157ecd"),
    ("union[all] n=5 k=2 r=1", "76378774b610a99bf8df69e94d157ecd"),
    ("union[all] n=3 k=3 r=1", "2a76f703a055aa4263b960175d3bc7a2"),
    ("union[all] n=4 k=3 r=1", "cbadd768fb881dcadacdb1888b809f75"),
    ("union[all] n=5 k=3 r=1", "cbadd768fb881dcadacdb1888b809f75"),
    ("revealing[all] n=3 k=2 r=1", "0de789c4966c062bdda6b7c3c21162b3"),
    ("revealing[all] n=4 k=2 r=1", "e39add40110a85151ea4c8b21b0b2ed3"),
    ("revealing[all] n=5 k=2 r=1", "e52887cdf18035f61d5e9edcec1d7fa9"),
    ("revealing[all] n=3 k=3 r=1", "4a18eb7c62f25e87dc5032f7ac952199"),
    ("revealing[all] n=4 k=3 r=1", "1f42b48cca22ec6876e4ece0b97df18f"),
    ("revealing[all] n=5 k=3 r=1", "22ecb94f8225778f803155023df4d4a3"),
    ("shatter[all] n=3 k=2 r=1", "c0d8188b07e24b77f6e882275dc8caa6"),
    ("shatter[all] n=4 k=2 r=1", "c29e45e3549b0758a2ae6dc0fed9be23"),
    ("shatter[all] n=5 k=2 r=1", "a9e665135c66fbda5c93bfb1abe24bae"),
    ("shatter[all] n=3 k=3 r=1", "d52dae23182748c155d4e5d01210a8c6"),
    ("shatter[all] n=4 k=3 r=1", "628fe59cee190a3051f83b59716294c9"),
    ("shatter[all] n=5 k=3 r=1", "6fee2627b94a394c30f4724c0c6253ed"),
    ("watermelon[all] n=3 k=2 r=1", "8fbebc71cb11209a77b8d166f3b3bf02"),
    ("watermelon[all] n=4 k=2 r=1", "7e0c3f262d2c684533ae6e3d891f9ae2"),
    ("watermelon[all] n=5 k=2 r=1", "736a89c5bcdc8eef840cb10ac2d535b3"),
    ("watermelon[all] n=3 k=3 r=1", "3c90ed11a6971b85ce90d7547f50908d"),
    ("watermelon[all] n=4 k=3 r=1", "275bba6f860797972f27f8320b9eea72"),
    ("watermelon[all] n=5 k=3 r=1", "e4916ee56bf8f5dfa315ce301557c534"),
)


def test_frontier_campaign_fingerprints_are_pinned():
    spec = CampaignSpec.sweep(
        ("even-cycle", "union", "revealing", "shatter", "watermelon"),
        n_min=3,
        n_max=5,
        k_values=(2, 3),
        plan=NO_CACHE,
    )
    run = run_campaign(spec, ctx=RunContext.isolated())
    assert not run.errors
    got = tuple((result.cell.label(), result.fingerprint) for result in run.results)
    assert got == FRONTIER_FINGERPRINTS
    joined = "".join(fingerprint for _label, fingerprint in got)
    assert hashlib.sha256(joined.encode()).hexdigest().startswith("a4be2d056667d819")


def test_frontier_fingerprints_survive_the_disk_tier(tmp_path):
    """The pinned campaign, written to the disk tier and reloaded from
    it as a fresh process would: every cell is a disk hit whose digest,
    read off the parsed body, is the pinned one."""
    spec = CampaignSpec.sweep(
        ("even-cycle", "union", "revealing", "shatter", "watermelon"),
        n_min=3,
        n_max=5,
        k_values=(2, 3),
        plan=ExecutionPlan(disk_cache=True),
    )
    with overridden(disk_cache_dir=str(tmp_path)):
        written = run_campaign(spec, ctx=RunContext.isolated())
        clear_engine_state()
        reloaded = run_campaign(spec, ctx=RunContext.isolated())
    assert not written.errors and not reloaded.errors
    assert not any(r.provenance["disk_cache_hit"] for r in written.results)
    assert all(r.provenance["disk_cache_hit"] for r in reloaded.results)
    for run in (written, reloaded):
        got = tuple((result.cell.label(), result.fingerprint) for result in run.results)
        assert got == FRONTIER_FINGERPRINTS
