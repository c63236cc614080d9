"""The four workloads, run inside a child process, and the per-operation
correctness checks that feed ``fail_rate``.

Nothing here imports ``repro`` at module level: the parent process
reads the workload table without paying for the import, and a child
imports it inside :func:`prepare`, which is exactly the part of its
life that ``setup_s`` measures.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: The frontier task users run: five schemes, n = 3..5, k in {2, 3}.
CAMPAIGN_SCHEMES = ("even-cycle", "union", "revealing", "shatter", "watermelon")
CAMPAIGN_N = (3, 5)
CAMPAIGN_K = (2, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Layer whose entry point is the operation itself (its self time is
    #: the unattributed share).
    root: str
    #: ``(scheme, n)`` for a single full sweep; ``None`` for the campaign.
    sweep: tuple[str, int] | None = None
    #: Each repeat writes into a fresh, empty cache directory.
    fresh_cache: bool = False
    #: Repeats read a cache directory that a campaign-write filled.
    reads_fill: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep-decode",
            "full V(D,6) of degree-one: the unanimity labeling pass (kernel.batch) "
            "dominates and graph generation is a few percent",
            root="engine.core",
            sweep=("degree-one", 6),
        ),
        Workload(
            "sweep-generate",
            "full V(D,8) of even-cycle: orderly generation is ~90% of the time and "
            "the 16^n labeling spaces exceed the cap, so the kernel is idle",
            root="engine.core",
            sweep=("even-cycle", 8),
        ),
        Workload(
            "campaign-write",
            "30-cell frontier campaign (5 schemes, n=3..5, k=2,3) writing the disk "
            "tier into an empty directory: the task users run, time spread wide",
            root="campaign.driver",
            fresh_cache=True,
        ),
        Workload(
            "campaign-reload",
            "the same campaign in fresh processes against a filled directory: all "
            "30 cells are disk hits, so only the cache layer and fingerprints work",
            root="campaign.driver",
            reads_fill=True,
        ),
    )
}


class NumpyMissing(RuntimeError):
    """numpy is not importable: the benchmark would measure the scalar
    fallback, a different program."""


# ----------------------------------------------------------------------
# Preparation and execution (child process)
# ----------------------------------------------------------------------


@dataclass
class Prepared:
    """One workload, built and ready to run."""

    workload: Workload
    backend: str
    numpy_version: str
    subject: object  # (lcp, n, plan) for a sweep, the CampaignSpec otherwise

    def execute(self) -> list:
        """Run the operation; returns ``[(label, k, verdict | None,
        error | None, fingerprint | None)]`` per operation.  Looks the
        entry points up at call time, so wrappers installed around it
        (the layer timer) see every call."""
        if self.workload.sweep is not None:
            core = importlib.import_module("repro.engine.core")
            lcp, n, plan = self.subject
            label = f"{lcp.name} n<={n}"
            try:
                verdict = core.decide_hiding(lcp, n, plan)
            except Exception as exc:  # noqa: BLE001 — a raise is a failed operation
                return [(label, lcp.k, None, f"{type(exc).__name__}: {exc}", None)]
            return [(label, lcp.k, verdict, None, None)]
        driver = importlib.import_module("repro.campaign.driver")
        captured: list = []
        decide = driver.decide_hiding

        def capture(*args, **kwargs):
            try:
                verdict = decide(*args, **kwargs)
            except BaseException:
                captured.append(None)
                raise
            captured.append(verdict)
            return verdict

        driver.decide_hiding = capture
        try:
            run = driver.run_campaign(self.subject)
        finally:
            driver.decide_hiding = decide
        if len(captured) != len(run.results):
            raise RuntimeError(
                f"captured {len(captured)} verdicts for {len(run.results)} cells"
            )
        return [
            (result.cell.label(), result.cell.k, verdict, result.error, result.fingerprint)
            for result, verdict in zip(run.results, captured)
        ]


def resolve_backend() -> str:
    """The backend ``repro hiding``'s auto rule picks: ``vectorized``
    when the engine lists it, otherwise ``streaming``."""
    backends = importlib.import_module("repro.engine.backends")
    return "vectorized" if "vectorized" in backends.available_backends() else "streaming"


def prepare(name: str) -> Prepared:
    workload = WORKLOADS[name]
    try:
        numpy = importlib.import_module("numpy")
    except ImportError as exc:
        raise NumpyMissing(
            "numpy is not importable; the benchmark measures the program with its "
            "numpy kernel and does not measure the scalar fallback"
        ) from exc
    from repro.core.registry import make_lcp
    from repro.engine.plan import ExecutionPlan

    backend = resolve_backend()
    if workload.sweep is not None:
        scheme, n = workload.sweep
        subject = (
            make_lcp(scheme),
            n,
            ExecutionPlan(backend=backend, early_exit=False, disk_cache=False),
        )
    else:
        from repro.campaign.spec import CampaignSpec

        lo, hi = CAMPAIGN_N
        subject = CampaignSpec.sweep(
            CAMPAIGN_SCHEMES,
            n_min=lo,
            n_max=hi,
            k_values=CAMPAIGN_K,
            plan=ExecutionPlan(backend=backend, disk_cache=True),
        )
    return Prepared(workload, backend, numpy.__version__, subject)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def fingerprint(verdict) -> str:
    """The campaign driver's cell fingerprint, for any verdict."""
    return hashlib.sha256(verdict.decision_fingerprint()).hexdigest()[:32]


def check_verdict(verdict, k: int, expect_hiding: bool | None = None) -> str | None:
    """Why *verdict* is wrong, or ``None`` when it holds up.

    A ``k = 2`` hiding verdict must carry an odd closed walk of
    ``V(D, n)``; a non-hiding verdict must carry a proper coloring of
    every view with at most ``k`` colors (Lemma 3.2).  ``hiding=None``
    (inconclusive) is never wrong here, not even against
    *expect_hiding*."""
    from repro.graphs.properties import is_odd_closed_walk, proper_coloring_ok

    if verdict.hiding is None:
        return None
    if expect_hiding is not None and verdict.hiding is not expect_hiding:
        return f"expected hiding={expect_hiding}, got hiding={verdict.hiding}"
    ngraph = verdict.ngraph
    if verdict.hiding is True and k == 2:
        if verdict.witness is None:
            return "hiding verdict without an odd-walk witness"
        try:
            walk = [ngraph.index[view] for view in verdict.witness]
        except KeyError:
            return "witness walks through a view outside V(D, n)"
        if not is_odd_closed_walk(ngraph.to_graph(), walk):
            return "witness is not an odd closed walk of V(D, n)"
    if verdict.hiding is False:
        coloring = verdict.coloring
        if coloring is None:
            return "non-hiding verdict without a coloring"
        if set(coloring) != set(range(ngraph.order)):
            return "coloring does not cover every view"
        if len(set(coloring.values())) > k:
            return f"coloring uses more than {k} colors"
        if not proper_coloring_ok(ngraph.to_graph(), coloring):
            return "coloring is not proper"
    return None


def check(prepared: Prepared, outcomes: list) -> list[dict]:
    """One record per operation: ``status`` is ``ok``, ``inconclusive``
    or ``fail``.  Fingerprint agreement across repeats is judged by the
    parent, which sees every repeat."""
    expect = True if prepared.workload.sweep is not None else None
    records = []
    for label, k, verdict, error, digest in outcomes:
        record = {"label": label, "status": "ok", "reason": None, "fingerprint": digest}
        if error is not None or verdict is None:
            record.update(status="fail", reason=error or "no verdict")
        else:
            record["fingerprint"] = digest or fingerprint(verdict)
            reason = check_verdict(verdict, k, expect)
            if reason is not None:
                record.update(status="fail", reason=reason)
            elif verdict.hiding is None:
                record["status"] = "inconclusive"
        records.append(record)
    return records


def judge_fingerprints(records: list[dict], reference: dict[str, str]) -> None:
    """Fail every record whose fingerprint differs from the *reference*
    one for its label; labels seen for the first time become the
    reference.  Mutates both arguments."""
    for record in records:
        digest = record["fingerprint"]
        if digest is None:
            continue
        expected = reference.setdefault(record["label"], digest)
        if digest != expected and record["status"] != "fail":
            record.update(
                status="fail",
                reason=f"fingerprint {digest} differs from {expected}",
            )


# ----------------------------------------------------------------------
# Counters for the traced run
# ----------------------------------------------------------------------

#: metric -> GLOBAL_STATS counter.
STAT_COUNTERS = {
    "neighborhood.aviews.instances": "instances_scanned",
    "neighborhood.ngraph.views": "stream_views",
    "neighborhood.ngraph.edges": "stream_edges",
    "symmetry.orderly.canonicalizations": "canonicalizations",
    "kernel.batch.labelings": "kernel_labelings",
    "kernel.batch.batches": "kernel_batches",
    "engine.stores.hits": "disk_hits",
    "engine.stores.misses": "disk_misses",
    "engine.core.warm_starts": "warm_starts",
    "engine.core.warm_witness_hits": "warm_witness_hits",
}

#: metric -> (numerator counter, counters whose sum is the denominator).
STAT_RATIOS = {
    "symmetry.prune.labelings_pruned_ratio": (
        "symmetry_labelings_pruned",
        ("symmetry_labelings_total",),
    ),
    "local.views.layout_hit_ratio": ("layout_hits", ("layout_hits", "layout_misses")),
    "certification.decoder.memo_hit_ratio": ("memo_hits", ("memo_hits", "memo_misses")),
}

COUNTER_METRICS = (
    *STAT_COUNTERS,
    *STAT_RATIOS,
    "engine.stores.bytes_written",
    "engine.stores.bytes_read",
)


def stat_snapshot() -> dict[str, int]:
    from repro.perf.stats import GLOBAL_STATS

    return dict(GLOBAL_STATS.counters)


def counter_metrics(before: dict[str, int], after: dict[str, int]) -> dict[str, float]:
    """The traced run's counts and ratios from two GLOBAL_STATS
    snapshots (a ratio with nothing attempted reads 0)."""

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    out: dict[str, float] = {
        metric: delta(counter) for metric, counter in STAT_COUNTERS.items()
    }
    for metric, (numerator, denominator) in STAT_RATIOS.items():
        total = sum(delta(name) for name in denominator)
        out[metric] = delta(numerator) / total if total else 0.0
    return out


def directory_bytes(root: Path) -> int:
    if not root.is_dir():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


@contextmanager
def bytes_read_under(root: Path):
    """Count the bytes of files under *root* opened for reading while
    the block runs; yields a one-item list holding the running total.
    Patches ``open`` itself, so it holds whatever file format the cache
    layer uses."""
    root = root.resolve()
    total = [0]
    original = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        handle = original(file, mode, *args, **kwargs)
        if (
            isinstance(file, (str, os.PathLike))
            and not any(flag in mode for flag in "wax+")
            and Path(file).resolve().is_relative_to(root)
        ):
            total[0] += os.fstat(handle.fileno()).st_size
        return handle

    io.open = builtins.open = counting_open
    try:
        yield total
    finally:
        io.open = builtins.open = original
