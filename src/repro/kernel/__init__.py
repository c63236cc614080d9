"""Vectorized batch kernel for the Lemma 3.1 unanimity sweep.

The hot loop of every experiment asks, for one ``(graph, ports, ids)``
base, which of the ``|alphabet| ** n`` labelings every node accepts.
Rather than deciding one labeling at a time, this package joins the
nodes' local constraints:

* :mod:`repro.kernel.tables` keeps, per view-layout template, a lazily
  filled boolean **acceptance table** indexed by the mixed-radix
  encoding of the certificate choices visible in that view —
  acceptance depends only on the template and the labels at its
  positions, never on the rest of the labeling;
* :mod:`repro.kernel.batch` extends partial labelings node by node as
  integer digit matrices, drops each row as soon as a fully labeled
  view rejects it, and yields the accepted labelings in
  ``itertools.product`` order — with the exact ``seen``-set and
  :class:`~repro.symmetry.prune.SymmetryAccount` semantics of a
  labeling-by-labeling scan — so streaming early exit, orbit pruning,
  and warm-start parity all survive.

numpy is a dependency: every unanimity pass runs the join, and orderly
generation runs its canonicalization searches through
:mod:`repro.kernel.generate` up to :data:`MAX_GENERATION_NODES` nodes.
The labeling-by-labeling loops the join must match are the tests'
reference (``tests/oracle.py``).
"""

from __future__ import annotations

#: Name of the unanimity-join evaluator, as carried by the sweep's
#: ``kernel:batch`` trace span.
KERNEL_BATCH = "batch"

from .batch import batch_unanimous_labelings, kernel_supports  # noqa: E402
from .generate import (  # noqa: E402
    MAX_GENERATION_NODES,
    batch_min_edge_mask,
    generation_supported,
)
from .tables import acceptance_table, clear_kernel_tables  # noqa: E402

__all__ = [
    "KERNEL_BATCH",
    "MAX_GENERATION_NODES",
    "acceptance_table",
    "batch_min_edge_mask",
    "batch_unanimous_labelings",
    "clear_kernel_tables",
    "generation_supported",
    "kernel_supports",
]
