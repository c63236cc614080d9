"""Symmetry layer: orderly generation and automorphism-orbit pruning.

The Lemma 3.1 sweep is invariant under instance automorphisms (the
paper's schemes are anonymous — Theorem 1.1 — and its impossibility
machinery reduces to order-invariant decoders, Lemmas 5.2/6.2).  This
package exploits that:

* :mod:`~repro.symmetry.canon` — exact canonical labelings on bitset
  adjacency (prefix-incremental form for generation, minimal edge mask
  for edge-subset-walk-identical emission);
* :mod:`~repro.symmetry.orderly` — McKay-style canonical augmentation:
  each isomorphism class generated exactly once, no post-hoc dedup,
  byte-identical to the edge-subset walk's stream;
* :mod:`~repro.symmetry.groups` — automorphism groups (generators +
  node orbits), held as graph facts and seeded by the generator;
* :mod:`~repro.symmetry.prune` — labeling-orbit and base-signature
  pruning with exact suppressed-instance accounting.

No knob: the engine prunes orbits exactly when the scheme is anonymous
(it hands the sweep a :class:`SymmetryAccount`); generation is always
orderly.
"""

from .canon import colex_canonical, min_edge_mask
from .groups import AutomorphismGroup, automorphism_group, seed_automorphisms
from .orderly import clear_orderly_cache, count_classes, orderly_graphs_exactly
from .prune import SymmetryAccount, base_signature, instance_stabilizer

__all__ = [
    "AutomorphismGroup",
    "SymmetryAccount",
    "automorphism_group",
    "base_signature",
    "clear_orderly_cache",
    "colex_canonical",
    "count_classes",
    "instance_stabilizer",
    "min_edge_mask",
    "orderly_graphs_exactly",
    "seed_automorphisms",
]
