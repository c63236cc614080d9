"""Campaign layer: the paper's parameter space as a first-class object.

Lemma 3.2 is a predicate over (scheme, graph family, ``n``, ``k``,
``r``, certificate alphabet); this package sweeps that space.  A
declarative :class:`CampaignSpec` expands the axes into an ordered
stream of immutable :class:`Cell` work units, :func:`run_campaign`
executes each cell through :func:`repro.engine.decide_hiding` with
per-cell provenance, and the :class:`FrontierReport` records where the
hiding verdict — equivalently, the ``k``-colorability of ``V(D, n)`` —
flips along each axis.
"""

from .driver import CampaignRun, CellResult, run_campaign
from .frontier import (
    FRONTIER_SCHEMA,
    FrontierReport,
    validate_frontier_report,
)
from .spec import CampaignSpec, Cell

__all__ = [
    "CampaignSpec",
    "Cell",
    "CellResult",
    "CampaignRun",
    "run_campaign",
    "FrontierReport",
    "FRONTIER_SCHEMA",
    "validate_frontier_report",
]
