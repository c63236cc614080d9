"""Live progress: a zero-dependency pub/sub event bus with TTY and
JSONL subscribers.

Long campaigns and deep sweeps previously ran dark — the only feedback
was the final report.  The process-wide :data:`GLOBAL_PROGRESS` bus
gives every layer one place to announce structured events
(``campaign_started``, ``cell_started``, ``instances_scanned`` deltas,
``cell_finished``, ``decision_*``, ``generation_level``) without
knowing who, if anyone, is listening.  Design constraints mirror
:mod:`repro.obs.trace`:

1. **Zero cost when off.**  ``emit()`` starts with one truthiness test
   on the subscriber list; with no subscribers nothing else runs — no
   dict is built, no timestamp is read.  The one hot emitter, the
   neighborhood-graph builder, reads :attr:`ProgressBus.active` once
   per build and then pays one boolean test per scanned instance.
2. **Purely observational.**  Events never feed back into decisions:
   cache keys, verdicts, and decision fingerprints are byte-identical
   whether a bus has a thousand subscribers or none (the acceptance
   contract pins this under ``REPRO_NO_PROGRESS=1``).  A subscriber that
   raises is dropped from the fan-out for that event and counted in
   :attr:`ProgressBus.errors` — it cannot abort the run it watches.
3. **Two stock subscribers.**  :class:`TTYRenderer` keeps a single
   carriage-return status line on a terminal (rate + EMA-based ETA),
   auto-disabled when the stream is not a tty or ``REPRO_NO_PROGRESS``
   is set; :class:`JSONLSink` appends one JSON object per event, with
   wall-clock ``ts`` and whatever ``trace_id`` the emitter attached, so
   event streams join against span exports and run reports.

Timer discipline: every rate, EMA, and redraw interval here derives from
``time.perf_counter()``; ``time.time()`` appears only as the ``ts``
metadata stamped on emitted/serialized events.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import IO, Callable

#: Environment variable that force-disables progress rendering (any
#: non-empty value).  Checked by :func:`progress_enabled`, not by the
#: bus itself — emitters stay oblivious to rendering policy.
NO_PROGRESS_ENV = "REPRO_NO_PROGRESS"

#: The event vocabulary.  Emitters may attach any extra payload keys;
#: these names are the contract subscribers dispatch on.
EVENT_KINDS = (
    "campaign_started",
    "cell_started",
    "cell_finished",
    "campaign_finished",
    "decision_started",
    "instances_scanned",
    "decision_finished",
    "generation_level",
    "experiment_started",
    "experiment_finished",
)

Subscriber = Callable[[dict], None]


class ProgressBus:
    """Synchronous pub/sub fan-out for progress events.

    Subscribers are plain callables taking one dict.  Emission is
    in-line (no queue, no thread): ordering seen by a subscriber is
    exactly emission order.
    """

    __slots__ = ("_subscribers", "errors")

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        #: Events swallowed because a subscriber raised.
        self.errors = 0

    @property
    def active(self) -> bool:
        """True when at least one subscriber would see an event."""
        return bool(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register *subscriber*; returns it (decorator-friendly)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove *subscriber* if present (idempotent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def emit(self, event: str, **payload) -> None:
        """Deliver ``{"event": event, "ts": <wall clock>, **payload}`` to
        every subscriber, in subscription order.  One truthiness test
        when nobody is listening."""
        subscribers = self._subscribers
        if not subscribers:
            return
        record = {"event": event, "ts": time.time()}
        record.update(payload)
        for subscriber in list(subscribers):
            try:
                subscriber(record)
            except Exception:
                self.errors += 1

    def __repr__(self) -> str:
        return f"ProgressBus(subscribers={len(self._subscribers)})"


#: The process's one bus: every emitter announces here, so one
#: subscription observes a whole process.
GLOBAL_PROGRESS = ProgressBus()


def progress_enabled(stream: IO | None = None) -> bool:
    """Whether a live TTY renderer should attach: *stream* (default
    stderr) is a terminal and ``REPRO_NO_PROGRESS`` is unset/empty."""
    if os.environ.get(NO_PROGRESS_ENV):
        return False
    stream = stream if stream is not None else sys.stderr
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


def _format_eta(seconds: float) -> str:
    """Compact ``H:MM:SS`` / ``M:SS`` remaining-time rendering."""
    seconds = max(0, int(round(seconds)))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class TTYRenderer:
    """Single-line live status on a terminal stream.

    Tracks campaign position (``cells_done/total_cells``), instance
    throughput over a sliding window, and an exponential moving average
    of per-cell wall time that turns the campaign spec's known cell
    count into an ETA.  Redraws are rate-limited (*min_interval*
    seconds of ``perf_counter`` time) so hot instance streams cannot
    saturate the terminal.
    """

    #: EMA smoothing for per-cell wall time (0 < alpha <= 1).
    alpha = 0.3

    def __init__(self, stream: IO | None = None, min_interval: float = 0.1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_draw = 0.0
        self._line_len = 0
        # Campaign state
        self.total_cells: int | None = None
        self.cells_done = 0
        self.ema_cell_s: float | None = None
        self._current_label: str | None = None
        # Throughput state (instances)
        self._instances = 0
        self._rate_window_t0 = time.perf_counter()
        self._rate_window_n = 0
        self._rate: float | None = None

    # ------------------------------------------------------------------
    # Subscriber protocol
    # ------------------------------------------------------------------

    def __call__(self, record: dict) -> None:
        event = record.get("event")
        if event == "campaign_started":
            self.total_cells = record.get("total_cells")
            self.cells_done = 0
            self._draw(force=True)
        elif event == "cell_started":
            self._current_label = record.get("label")
            self._instances = 0
            self._draw()
        elif event == "cell_finished":
            self.cells_done += 1
            wall = record.get("wall_time_s")
            if isinstance(wall, (int, float)):
                if self.ema_cell_s is None:
                    self.ema_cell_s = float(wall)
                else:
                    self.ema_cell_s += self.alpha * (wall - self.ema_cell_s)
            self._current_label = None
            self._draw(force=True)
        elif event == "campaign_finished":
            self.close()
        elif event == "decision_started":
            self._current_label = record.get("label")
            self._instances = 0
            self._draw()
        elif event == "instances_scanned":
            delta = record.get("delta", 0)
            self._instances += delta
            self._observe_rate(delta)
            self._draw()
        elif event == "decision_finished":
            if self.total_cells is None:
                # Standalone decision (no campaign frame): clear the line.
                self.close()
            else:
                self._draw()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def _observe_rate(self, delta: int) -> None:
        self._rate_window_n += delta
        now = time.perf_counter()
        elapsed = now - self._rate_window_t0
        if elapsed >= 0.5:
            self._rate = self._rate_window_n / elapsed
            self._rate_window_t0 = now
            self._rate_window_n = 0

    def eta_seconds(self) -> float | None:
        """Remaining campaign time from the per-cell EMA, or ``None``
        before the first cell finishes / outside a campaign."""
        if self.total_cells is None or self.ema_cell_s is None:
            return None
        remaining = max(0, self.total_cells - self.cells_done)
        return remaining * self.ema_cell_s

    def _compose(self) -> str:
        parts = []
        if self.total_cells is not None:
            parts.append(f"[{self.cells_done}/{self.total_cells}]")
        if self._current_label:
            parts.append(str(self._current_label))
        if self._instances:
            parts.append(f"{self._instances} inst")
        if self._rate:
            parts.append(f"{self._rate:,.0f} inst/s")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {_format_eta(eta)}")
        return " · ".join(parts)

    def _draw(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and (now - self._last_draw) < self.min_interval:
            return
        self._last_draw = now
        line = self._compose()
        pad = max(0, self._line_len - len(line))
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._line_len = len(line)

    def close(self) -> None:
        """Clear the status line (end of run)."""
        if self._line_len:
            try:
                self.stream.write("\r" + " " * self._line_len + "\r")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self._line_len = 0


class JSONLSink:
    """Append every event as one JSON line — joinable with span exports
    via the ``trace_id`` payload emitters attach."""

    def __init__(self, target: str | Path | IO) -> None:
        if hasattr(target, "write"):
            self._stream: IO = target  # type: ignore[assignment]
            self._owned = False
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = path.open("a", encoding="utf-8")
            self._owned = True

    def __call__(self, record: dict) -> None:
        self._stream.write(
            json.dumps(record, sort_keys=True, ensure_ascii=False, default=str) + "\n"
        )

    def close(self) -> None:
        try:
            self._stream.flush()
        except (OSError, ValueError):
            pass
        if self._owned:
            self._stream.close()
