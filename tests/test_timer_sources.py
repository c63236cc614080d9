"""Timer-source discipline: every duration, rate, and EMA in the tree
derives from ``time.perf_counter()``; ``time.time()`` is reserved for
wall-clock *metadata* (creation stamps, event timestamps, file ages).

A wall-clock read in duration math is a latent bug — NTP steps and
suspend/resume corrupt measured intervals — so this test enumerates the
``time.time()`` call sites and pins them to an explicit allowlist of
metadata-only locations.  Adding a new ``time.time()`` call means either
using ``perf_counter`` (if you are measuring) or extending the allowlist
here (if you are stamping).
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: file (relative to the repro package) -> substrings that must appear
#: on every allowed ``time.time()`` line in that file.  All are metadata
#: stamps, never interval endpoints.
ALLOWED_WALL_CLOCK = {
    "obs/report.py": ("created",),
    "obs/trace.py": ("start_time",),
    "obs/progress.py": ("ts",),
    "campaign/frontier.py": ("created",),
    "cli.py": ("now",),  # report-list age display, compared to mtimes
}

_CALL = re.compile(r"\btime\.time\(\)")


def _code_lines(path: Path):
    """(lineno, line) pairs with comments and docstring prose excluded
    well enough for this audit: we only flag lines that literally call
    ``time.time()`` outside a comment."""
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0]
        if _CALL.search(stripped):
            yield lineno, line.strip()


def test_wall_clock_only_at_metadata_sites():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        rel = path.relative_to(SRC_ROOT).as_posix()
        allowed = ALLOWED_WALL_CLOCK.get(rel)
        for lineno, line in _code_lines(path):
            # Prose mentions inside docstrings that do not execute are
            # still matched by the regex; only flag actual assignments /
            # expressions (heuristic: the call plus surrounding code).
            if "``" in line:
                continue
            if allowed is None or not any(marker in line for marker in allowed):
                offenders.append(f"{rel}:{lineno}: {line}")
    assert not offenders, (
        "time.time() used outside the metadata allowlist "
        "(use time.perf_counter() for durations):\n" + "\n".join(offenders)
    )


def test_durations_use_perf_counter():
    """The measuring modules must reference perf_counter — a rename or
    refactor that silently drops monotonic timing fails loudly here."""
    for rel in ("engine/core.py", "obs/trace.py", "obs/progress.py",
                "campaign/driver.py", "experiments/runner.py"):
        text = (SRC_ROOT / rel).read_text(encoding="utf-8")
        assert "perf_counter" in text, f"{rel} lost its monotonic clock"
