"""End-to-end benchmark of the Lemma 3.2 decision, with per-layer self time.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--out FILE]

Run from the repository root.  Without ``--workload`` all four
workloads run in order (``campaign-reload`` then reads the directory
``campaign-write`` filled).  ``--trace 0`` measures untraced repeats
and prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced repeats and prints the per-layer metrics; without ``--trace``
the untraced measurement is followed by one traced repeat and both
sets are printed.  The last line of standard output is one JSON object
per workload: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every operation passed its checks, 1 when one
failed, 2 when the benchmark cannot run here (no ``src/repro``, no
numpy).

Load model: a closed loop with one client.  Every repeat is a fresh
child process started after the previous one exited, so each is as cold
as a new ``repro`` process.  ``wall_s`` and ``setup_s`` are scaled to
the reference host speed by a fixed loop each child times around its
work (:func:`child.host_probe`), so that the drift of a shared host
does not read as a regression; the unscaled times are printed beside
them.  See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
#: Scratch space for each run's cache and run directories, removed when
#: the run ends.
WORK = HERE / ".work"
#: Bytecode of every module the children import, the program's and the
#: standard library's alike; kept from run to run.
PYCACHE = HERE / ".pycache"

#: Untraced repeats per run at least; more while the time budget lasts.
MIN_REPEATS = 2
#: ``setup_s`` is the median of at least this many children.
MIN_SETUP_SAMPLES = 11
#: A run kills its children this long after it started, so it ends in
#: well under three minutes even when a child hangs.
RUN_DEADLINE_S = 170.0
MAX_RECONCILE_ERROR = 0.01
MAX_UNATTRIBUTED_SHARE = 0.05
#: Seconds the host-speed probe takes on the reference host: a time
#: measured while the probe took *p* seconds is reported multiplied by
#: ``PROBE_REFERENCE_S / p``.
PROBE_REFERENCE_S = 0.065
#: ``personality(2)`` flag: no address-space layout randomization.
ADDR_NO_RANDOMIZE = 0x0040000

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Times sampled per repeat, at the reference host speed and unscaled.
SAMPLED = ("wall_s", "setup_s", "raw_wall_s", "raw_setup_s")
COUNTER_UNITS = {
    "engine.stores.bytes_written": "bytes",
    "engine.stores.bytes_read": "bytes",
    **{name: "ratio" for name in workloads.STAT_RATIOS},
}
PER_LAYER = (
    *(
        (f"{layer}.{field}", unit)
        for layer in layers.LAYERS
        for field, unit in (("self_s", "s"), ("calls", "count"))
    ),
    *((name, COUNTER_UNITS.get(name, "count")) for name in workloads.COUNTER_METRICS),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


class CannotRun(RuntimeError):
    """The benchmark cannot measure this checkout (exit code 2)."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def child_env(cache: Path, work: Path) -> dict[str, str]:
    """The isolated environment of every child: private cache and run
    directories, no progress output, one BLAS thread, and none of the
    variables that would switch the program to another code path.
    Bytecode goes to :data:`PYCACHE`, so the children load compiled
    modules as an installed program that has run before does, whatever
    the caller's ``PYTHONDONTWRITEBYTECODE``: a child that compiles a
    module from source peaks up to 11 MB lower than one that loads it.
    A fixed ``PYTHONHASHSEED`` makes the children's memory use repeat as
    well (with a random one, the peak RSS of ``sweep-generate`` landed
    2.5% apart from child to child)."""
    env = dict(os.environ)
    for name in ("REPRO_FORCE_WORKERS", "REPRO_DISABLE_NUMPY", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(
        REPRO_CACHE_DIR=str(cache),
        REPRO_RUNS_DIR=str(work / "runs"),
        REPRO_NO_PROGRESS="1",
        PYTHONPYCACHEPREFIX=str(PYCACHE),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(mode: str, name: str, cache: Path, work: Path, timeout: float) -> dict:
    """Run one child to completion; returns its JSON report plus
    ``setup_s``, or ``{"error": ...}`` when it crashed or timed out."""
    cache.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), mode, name],
        cwd=ROOT,
        env=child_env(cache, work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{mode} child killed at the run's {RUN_DEADLINE_S:.0f} s deadline"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    if report.get("numpy_missing"):
        raise CannotRun(report["error"])
    if proc.returncode != 0 or "ready" not in report:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
    report["raw_setup_s"] = report["ready"] - started
    scale_to_reference(report)
    return report


def scale_to_reference(report: dict) -> None:
    """Add a child's times at the reference host speed to its *report*:
    ``setup_s`` from ``raw_setup_s`` and the probe timed right after
    set-up, ``wall_s`` (when the child ran the operation) from the
    unscaled ``raw_wall_s`` and the mean of the probes timed before and
    after it."""
    report["setup_s"] = report["raw_setup_s"] * PROBE_REFERENCE_S / report["probe_s"]
    if "wall_s" in report:
        report["raw_wall_s"] = report["wall_s"]
        speed = (report["probe_s"] + report["probe_after_s"]) / 2
        report["wall_s"] = report["raw_wall_s"] * PROBE_REFERENCE_S / speed


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def fix_address_space() -> bool:
    """Turn address-space layout randomization off for the children this
    process starts from now on (Linux ``personality(2)``, inherited
    across fork and exec); returns whether it is off.  With it on, the
    program's memory use depends on where its objects land: ten cold
    ``sweep-generate`` children peaked anywhere from 158 to 173 MB, and
    with it off at the same 160.14 MB every time."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)  # query without changing
    if current == -1:
        return False
    if not current & ADDR_NO_RANDOMIZE and personality(current | ADDR_NO_RANDOMIZE) == -1:
        return False
    return bool(personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Session:
    """State shared by the workloads of one invocation."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.env: dict = {}
        self._dirs = 0
        #: Children are killed once this ``time.monotonic()`` passes.
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        #: Directory and cell fingerprints of the last campaign-write.
        self.fill: tuple[Path, dict[str, str]] | None = None

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        return self.work / f"{prefix}-{self._dirs}"

    def spawn(self, mode: str, name: str, cache: Path) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        return spawn(mode, name, cache, self.work, timeout)


class Measurement:
    """Everything one workload's run observed."""

    def __init__(self, name: str) -> None:
        self.workload = workloads.WORKLOADS[name]
        self.samples: dict[str, list[float]] = {
            name: [] for name in (*SAMPLED, "peak_rss_mb", "probe_s")
        }
        self.traced: list[dict] = []
        self.ops: list[dict] = []
        self.reference: dict[str, str] = {}
        self.harness_errors: list[str] = []

    def absorb(self, report: dict, expected_ops: int, setup: bool = True) -> bool:
        """Fold one child's report in; a crashed child counts as
        *expected_ops* failed operations.  *setup* says whether its
        start-up time is a ``setup_s`` sample of this workload."""
        if "error" in report:
            self.ops.extend(
                {"label": "?", "status": "fail", "reason": report["error"], "fingerprint": None}
                for _ in range(expected_ops)
            )
            return False
        ops = report.get("ops", [])
        workloads.judge_fingerprints(ops, self.reference)
        self.ops.extend(ops)
        if setup:
            for metric in ("setup_s", "raw_setup_s", "probe_s"):
                self.samples[metric].append(report[metric])
        return True

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["status"] == "fail")

    @property
    def inconclusive(self) -> int:
        return sum(1 for op in self.ops if op["status"] == "inconclusive")


def expected_ops(workload: workloads.Workload) -> int:
    if workload.sweep is not None:
        return 1
    lo, hi = workloads.CAMPAIGN_N
    return len(workloads.CAMPAIGN_SCHEMES) * (hi - lo + 1) * len(workloads.CAMPAIGN_K)


def repeat_for(budget: float, minimum: int, one) -> None:
    """Call *one* at least *minimum* times, then again while the next
    call is expected to end within *budget* seconds of the first; stop
    early when *one* returns False (its child failed)."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        if not one():
            return
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > budget:
            return


def reload_fill(m: Measurement, session: Session) -> tuple[Path, dict[str, str]] | None:
    """The directory campaign-reload reads and the campaign-write
    fingerprints of its cells: those of this invocation's campaign-write,
    or else of one untimed campaign-write child run now."""
    if session.fill is not None:
        return session.fill
    fill = session.fresh_dir("fill")
    if not m.absorb(session.spawn("run", "campaign-write", fill), expected_ops(m.workload), setup=False):
        return None
    return fill, dict(m.reference)


def measure(name: str, session: Session, seconds: float, trace: int | None) -> Measurement:
    m = Measurement(name)
    workload = m.workload
    ops = expected_ops(workload)
    session.deadline = time.monotonic() + RUN_DEADLINE_S
    if workload.reads_fill:
        fill = reload_fill(m, session)
        if fill is None:
            return m
        cache, reference = fill
        m.reference.update(reference)
    else:
        cache = session.fresh_dir("cache")

    def cache_for_repeat() -> Path:
        return session.fresh_dir("cache") if workload.fresh_cache else cache

    def untraced() -> bool:
        where = cache_for_repeat()
        report = session.spawn("run", name, where)
        ok = m.absorb(report, ops)
        if ok:
            for metric in ("wall_s", "raw_wall_s", "peak_rss_mb"):
                m.samples[metric].append(report[metric])
        finish(where)
        return ok

    def traced() -> bool:
        where = cache_for_repeat()
        report = session.spawn("traced", name, where)
        ok = m.absorb(report, ops)
        if ok:
            m.traced.append(report)
            check_trace(m, report)
        finish(where)
        return ok

    def finish(where: Path) -> None:
        if not workload.fresh_cache:
            return
        if session.fill is not None and session.fill[0] != where:
            shutil.rmtree(session.fill[0], ignore_errors=True)
        session.fill = (where, dict(m.reference))

    if trace == 1:
        repeat_for(seconds / 2, 1, untraced)
        repeat_for(seconds / 2, 1, traced)
    else:
        repeat_for(seconds, MIN_REPEATS, untraced)
        while len(m.samples["setup_s"]) < MIN_SETUP_SAMPLES:
            if not m.absorb(session.spawn("setup", name, session.fresh_dir("empty")), 0):
                m.harness_errors.append("a setup-only child failed")
                break
        if trace is None:
            traced()
    return m


def check_trace(m: Measurement, report: dict) -> None:
    if report["missing_targets"]:
        print(
            f"warning: layer entry points not found: {', '.join(report['missing_targets'])}",
            file=sys.stderr,
        )
    if report["open_frames"]:
        m.harness_errors.append(f"{report['open_frames']} layer frames left open")
    if report["reconcile_error"] > MAX_RECONCILE_ERROR:
        m.harness_errors.append(
            f"layer self times miss the traced wall time by {report['reconcile_error']:.2%}"
        )
    if report["unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        m.harness_errors.append(
            f"unattributed share {report['unattributed_share']:.2%} exceeds "
            f"{MAX_UNATTRIBUTED_SHARE:.0%}"
        )


def end_to_end_metrics(m: Measurement) -> dict[str, dict]:
    metrics = {}
    for metric, unit in END_TO_END:
        values = m.samples[metric]
        if values:
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics


def per_layer_metrics(m: Measurement) -> dict[str, dict]:
    if not m.traced:
        return {}
    values: dict[str, list[float]] = {}
    for report in m.traced:
        row = dict(report["counters"])
        for layer in layers.LAYERS:
            row[f"{layer}.self_s"] = report["self_s"].get(layer, 0.0)
            row[f"{layer}.calls"] = report["calls"].get(layer, 0)
        row["trace.unattributed_share"] = report["unattributed_share"]
        for metric, value in row.items():
            values.setdefault(metric, []).append(value)
    untraced = m.samples["wall_s"]
    if untraced:
        traced_wall = statistics.median(report["wall_s"] for report in m.traced)
        values["trace.overhead"] = [traced_wall / statistics.median(untraced) - 1.0]
    return {
        metric: {"value": statistics.median(values[metric]), "unit": unit}
        for metric, unit in PER_LAYER
        if metric in values
    }


def render(m: Measurement, session: Session, metrics: dict[str, dict]) -> list[str]:
    env = session.env
    lines = [
        f"== {m.workload.name}: {m.workload.why}",
        f"   backend={env.get('backend')} seed={session.seed} nproc={env.get('nproc')} "
        f"python={env.get('python')} numpy={env.get('numpy')} aslr={env.get('aslr')} "
        f"commit={env.get('commit')}",
    ]
    rows = [(metric, unit) for metric, unit in END_TO_END if metric in metrics]
    if rows:
        rows += [("raw_wall_s", "s"), ("raw_setup_s", "s"), ("probe_s", "s")]
    for metric, unit in rows:
        values = m.samples[metric]
        if values:
            q1, median, q3 = quartiles(values)
            lines.append(
                f"   {metric:<14} {median:12.4f} {unit:<5} "
                f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"
            )
    lines.append(
        f"   {'fail_rate':<14} {m.failed}/{len(m.ops)} operations failed, "
        f"{m.inconclusive} inconclusive"
    )
    for op in m.ops:
        if op["status"] == "fail":
            lines.append(f"   FAIL {op['label']}: {op['reason']}")
    for error in m.harness_errors:
        lines.append(f"   HARNESS {error}")
    if m.traced:
        wall = statistics.median(report["raw_wall_s"] for report in m.traced)
        lines.append(
            f"   layers (traced, n={len(m.traced)}, wall {wall:.3f} s):"
            f"{'':<4}{'self_s':>10} {'share':>7} {'calls':>10}"
        )
        for layer in layers.LAYERS:
            self_s = metrics[f"{layer}.self_s"]["value"]
            calls = metrics[f"{layer}.calls"]["value"]
            lines.append(
                f"     {layer:<28}{self_s:10.4f} {self_s / wall:7.1%} {calls:10.0f}"
            )
        for metric, unit in PER_LAYER:
            if not metric.endswith((".self_s", ".calls")) and metric in metrics:
                lines.append(f"     {metric:<40} {metrics[metric]['value']:.6g} {unit}")
    return lines


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise CannotRun(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    record = {}
    status = 0
    try:
        session = Session(work, args.seed)
        fixed_layout = fix_address_space()
        # An untimed first child fills the bytecode cache and probes the
        # environment; it stops the run when numpy is missing.
        probe = session.spawn("setup", names[0], session.fresh_dir("empty"))
        if "error" in probe:
            raise CannotRun(probe["error"])
        session.env = {
            "backend": probe["backend"],
            "numpy": probe["numpy"],
            "python": probe["python"],
            "nproc": nproc(),
            "commit": git_commit(),
            "seed": args.seed,
            "aslr": "off" if fixed_layout else "on",
        }
        for name in names:
            m = measure(name, session, args.seconds, args.trace)
            metrics = {}
            if args.trace != 1:
                metrics.update(end_to_end_metrics(m))
            if args.trace != 0:
                metrics.update(per_layer_metrics(m))
            correct = m.failed == 0 and not m.harness_errors
            status = max(status, 0 if correct else 1)
            print("\n".join(render(m, session, metrics)), flush=True)
            result = {
                "correct": correct,
                "attempted": len(m.ops),
                "failed": m.failed,
                "metrics": metrics,
            }
            record[name] = {
                **result,
                "environment": session.env,
                "samples": m.samples,
                "inconclusive": m.inconclusive,
                "harness_errors": m.harness_errors,
                "traced": m.traced,
            }
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: no input is random")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write every sample and the layer tables as JSON")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the finally blocks like an exception, so a
    # terminated run still kills its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
