"""Frontier reports: where the hiding verdict flips along each axis.

A :class:`FrontierReport` freezes one finished campaign into a single
machine-readable payload: the spec, the resolved base plan (and its
fingerprint), every cell's verdict + provenance, and the **frontier**
itself — each pair of axis-adjacent cells whose hiding verdicts (equiv.
``V(D, n)`` ``k``-colorability) disagree.  It is stored like a run
report (:class:`~repro.obs.report.StoredReport`: content-addressed JSON
under ``.repro_runs/`` or ``$REPRO_RUNS_DIR``), with a declared schema
and a validator the tests gate on (:func:`validate_frontier_report`).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any

from ..obs.report import StoredReport, plan_fingerprint
from .driver import CampaignRun, CellResult

#: Schema identifier embedded in (and required of) every frontier report.
FRONTIER_SCHEMA = "repro.frontier-report/v1"

#: Top-level keys every frontier report must carry.
FRONTIER_REQUIRED_KEYS = (
    "schema",
    "created",
    "campaign",
    "plan",
    "plan_fingerprint",
    "cells",
    "flips",
    "summary",
)

#: Cell axes a flip can run along (the numeric/ordered axes; scheme and
#: family are categorical, so "adjacent" is not defined for them).
FLIP_AXES = ("n", "k", "r", "alphabet_limit")

#: Axes of a cell record (spec.Cell.axes() keys).
CELL_AXES = ("scheme", "family", "n", "k", "r", "alphabet_limit")


def _axis_sort_key(value: Any):
    # alphabet_limit=None means "full alphabet": larger than any cap.
    return (value is None, value)


def find_flips(results: tuple[CellResult, ...] | list[CellResult]) -> list[dict]:
    """Verdict flips between axis-adjacent decided cells.

    For each axis in :data:`FLIP_AXES`: cells agreeing on every *other*
    axis are sorted along it, and each adjacent pair with differing
    ``hiding`` verdicts (errored and ``None``-verdict cells excluded)
    is one flip record.
    """
    flips = []
    decided = [r for r in results if r.ok and r.hiding is not None]
    for axis in FLIP_AXES:
        groups: dict[tuple, list[CellResult]] = {}
        for result in decided:
            axes = result.cell.axes()
            anchor = tuple((name, axes[name]) for name in CELL_AXES if name != axis)
            groups.setdefault(anchor, []).append(result)
        for anchor, members in groups.items():
            members.sort(key=lambda r: _axis_sort_key(r.cell.axes()[axis]))
            for before, after in zip(members, members[1:]):
                if before.hiding == after.hiding:
                    continue
                flips.append(
                    {
                        "axis": axis,
                        "at": dict(anchor),
                        "from": {
                            "value": before.cell.axes()[axis],
                            "hiding": before.hiding,
                            "colorable": before.colorable,
                        },
                        "to": {
                            "value": after.cell.axes()[axis],
                            "hiding": after.hiding,
                            "colorable": after.colorable,
                        },
                    }
                )
    return flips


class FrontierReport(StoredReport):
    """One finished campaign's frontier, stored like a run report."""

    kind = "frontier report"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_run(cls, run: CampaignRun, meta: dict | None = None) -> "FrontierReport":
        flips = find_flips(run.results)
        by_axis: dict[str, int] = {}
        for flip in flips:
            by_axis[flip["axis"]] = by_axis.get(flip["axis"], 0) + 1
        decided = [r for r in run.results if r.ok and r.hiding is not None]
        payload = {
            "schema": FRONTIER_SCHEMA,
            "created": time.time(),
            "campaign": run.spec.as_dict(),
            "plan": dataclasses.asdict(run.plan),
            "plan_fingerprint": plan_fingerprint(run.plan),
            "cells": [result.as_dict() for result in run.results],
            "flips": flips,
            "summary": {
                "cells": len(run.results),
                "errors": sum(1 for r in run.results if not r.ok),
                "hiding": sum(1 for r in decided if r.hiding),
                "colorable": sum(1 for r in decided if r.colorable),
                "undecided": sum(1 for r in run.results if r.ok and r.hiding is None),
                "flips": len(flips),
                "flips_by_axis": by_axis,
                "wall_time_s": round(run.wall_time_s, 6),
                "cells_per_sec": (
                    None if run.cells_per_sec is None else round(run.cells_per_sec, 3)
                ),
            },
        }
        if meta:
            payload["meta"] = meta
        return cls(payload)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Human summary: header, the frontier, then one line per cell."""
        p = self.payload
        summary = p["summary"]
        campaign = p["campaign"]
        lines = [
            f"frontier report {self.digest}",
            f"  schema:     {p['schema']}",
            f"  campaign:   schemes={','.join(campaign['schemes'])} "
            f"n={min(campaign['n_values'])}..{max(campaign['n_values'])} "
            f"k={campaign['k_values']} r={campaign['r_values']} "
            f"families={','.join(campaign['families'])}",
            f"  plan fp:    {p['plan_fingerprint']}",
            f"  cells:      {summary['cells']} "
            f"({summary['hiding']} hiding / {summary['colorable']} colorable / "
            f"{summary['undecided']} undecided / {summary['errors']} errors)",
            f"  throughput: {summary['cells_per_sec']} cells/s "
            f"in {summary['wall_time_s']}s",
            f"  flips:      {summary['flips']} {summary['flips_by_axis']}",
        ]
        for flip in p["flips"]:
            at = flip["at"]
            fixed = " ".join(f"{name}={at[name]}" for name in sorted(at))
            lines.append(
                f"    {flip['axis']}: {flip['from']['value']} -> "
                f"{flip['to']['value']}  hiding {flip['from']['hiding']} -> "
                f"{flip['to']['hiding']}  [{fixed}]"
            )
        lines.append("  cells:")
        for record in p["cells"]:
            cell = record["cell"]
            verdict = (
                f"ERROR: {record['error']}"
                if record["error"] is not None
                else f"hiding={record['hiding']}"
            )
            provenance = record.get("provenance") or {}
            detail = ""
            if provenance:
                detail = (
                    f"  ({provenance.get('views')} views, "
                    f"{provenance.get('edges')} edges, "
                    f"{provenance.get('backend')})"
                )
            lines.append(
                f"    {cell['scheme']}[{cell['family']}] n={cell['n']} "
                f"k={cell['k']} r={cell['r']} "
                f"alphabet={cell['alphabet_limit'] or 'full'}: {verdict}{detail}"
            )
        return "\n".join(lines)


def validate_frontier_report(payload: dict) -> list[str]:
    """Schema-gate a frontier payload; returns every violation found
    (empty list = valid).  Checked: the schema tag, required keys, cell
    record shape, flip records referencing known axes with genuinely
    differing verdicts, and summary counts agreeing with the cell list.
    """
    if not isinstance(payload, dict):
        return ["frontier payload must be a JSON object"]
    errors = []
    if payload.get("schema") != FRONTIER_SCHEMA:
        errors.append(
            f"schema is {payload.get('schema')!r}, expected {FRONTIER_SCHEMA!r}"
        )
    for key in FRONTIER_REQUIRED_KEYS:
        if key not in payload:
            errors.append(f"missing key {key!r}")
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells must be a non-empty list")
        cells = []
    for i, record in enumerate(cells):
        if not isinstance(record, dict):
            errors.append(f"cells[{i}] is not an object")
            continue
        # ``trace_id`` is required as a key (joinability contract) but
        # may be null — untraced campaigns have nothing to join.
        for key in ("cell", "hiding", "colorable", "fingerprint", "error", "trace_id"):
            if key not in record:
                errors.append(f"cells[{i}] missing {key!r}")
        axes = record.get("cell")
        if not isinstance(axes, dict):
            errors.append(f"cells[{i}].cell is not an object")
            continue
        for axis in CELL_AXES:
            if axis not in axes:
                errors.append(f"cells[{i}].cell missing axis {axis!r}")
        if record.get("error") is None and record.get("hiding") is not None:
            if record.get("colorable") != (not record["hiding"]):
                errors.append(
                    f"cells[{i}]: colorable must be the complement of hiding"
                )
            if not record.get("fingerprint"):
                errors.append(f"cells[{i}]: decided cell without a fingerprint")
    flips = payload.get("flips")
    if not isinstance(flips, list):
        errors.append("flips must be a list")
        flips = []
    for i, flip in enumerate(flips):
        if flip.get("axis") not in FLIP_AXES:
            errors.append(f"flips[{i}]: unknown axis {flip.get('axis')!r}")
        for side in ("from", "to"):
            if not isinstance(flip.get(side), dict):
                errors.append(f"flips[{i}] missing side {side!r}")
        if (
            isinstance(flip.get("from"), dict)
            and isinstance(flip.get("to"), dict)
            and flip["from"].get("hiding") == flip["to"].get("hiding")
        ):
            errors.append(f"flips[{i}]: verdicts do not differ")
    summary = payload.get("summary")
    if isinstance(summary, dict) and cells:
        recounted = {
            "cells": len(cells),
            "errors": sum(
                1 for c in cells if isinstance(c, dict) and c.get("error") is not None
            ),
            "flips": len(flips),
        }
        for name, expected in recounted.items():
            if summary.get(name) != expected:
                errors.append(
                    f"summary.{name} is {summary.get(name)}, expected {expected}"
                )
    elif not isinstance(summary, dict):
        errors.append("summary must be an object")
    return errors
