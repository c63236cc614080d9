"""Vectorized batch kernel for the Lemma 3.1 unanimity sweep.

The hot loop of every experiment asks, for one ``(graph, ports, ids)``
base, which of the ``|alphabet| ** n`` labelings every node accepts.
The scalar loops in :mod:`repro.certification.enumeration` decide one
labeling at a time; this package joins the nodes' local constraints:

* :mod:`repro.kernel.tables` keeps, per view-layout template, a lazily
  filled boolean **acceptance table** indexed by the mixed-radix
  encoding of the certificate choices visible in that view —
  acceptance depends only on the template and the labels at its
  positions, never on the rest of the labeling;
* :mod:`repro.kernel.batch` extends partial labelings node by node as
  integer digit matrices, drops each row as soon as a fully labeled
  view rejects it, and yields the accepted labelings in the exact
  order — with the exact ``seen``-set and
  :class:`~repro.symmetry.prune.SymmetryAccount` semantics — of the
  scalar generators, so streaming early exit, orbit pruning, and
  warm-start parity all survive.

numpy is optional.  :func:`numpy_or_none` is the one switch every
kernel call site asks: without numpy (or with ``REPRO_DISABLE_NUMPY``
set in the environment) it returns ``None``, callers fall back to the
pure-Python loops — the tests' reference — and the package keeps its
zero-dependency contract.
"""

from __future__ import annotations

import os

#: Name of the unanimity-join evaluator, as carried by ``ExecutionPlan``
#: routing and ``Provenance.kernel``.
KERNEL_BATCH = "batch"

#: Environment switch that forces the pure-Python fallback even when
#: numpy is importable (used by the no-numpy CI leg and fallback tests).
DISABLE_ENV = "REPRO_DISABLE_NUMPY"

#: Probe cache: ``None`` = not probed yet, ``False`` = import failed,
#: otherwise the numpy module itself.
_NUMPY: object = None


def _probe():
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy  # noqa: PLC0415

            _NUMPY = numpy
        except ImportError:  # pragma: no cover - exercised via DISABLE_ENV
            _NUMPY = False
    return _NUMPY


def numpy_or_none():
    """The numpy module, or ``None`` when missing or disabled.

    The environment switch is re-read on every call so tests (and the
    no-numpy CI leg) can flip availability without reimporting; the
    import itself is probed once per process.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    module = _probe()
    return module if module is not False else None


def kernel_available() -> bool:
    """Whether the batch kernel can run in this process."""
    return numpy_or_none() is not None


def numpy_version() -> str | None:
    """The numpy version string, or ``None`` when unavailable."""
    np = numpy_or_none()
    return None if np is None else np.__version__


from .batch import batch_unanimous_labelings, kernel_supports  # noqa: E402
from .generate import (  # noqa: E402
    MAX_GENERATION_NODES,
    batch_colex_canonical,
    batch_min_edge_mask,
    generation_supported,
)
from .tables import acceptance_table, clear_kernel_tables  # noqa: E402

__all__ = [
    "DISABLE_ENV",
    "KERNEL_BATCH",
    "MAX_GENERATION_NODES",
    "acceptance_table",
    "batch_colex_canonical",
    "batch_min_edge_mask",
    "batch_unanimous_labelings",
    "clear_kernel_tables",
    "generation_supported",
    "kernel_available",
    "kernel_supports",
    "numpy_or_none",
    "numpy_version",
]
