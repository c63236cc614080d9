"""Realizability of neighborhood-graph subgraphs (Section 5): view
compatibility, the G_bad merge of Lemma 5.1, walk surgery (Lemmas
5.4/5.5), and the identifier remapping of Lemma 5.2."""

from .compatibility import (
    identifiers_in,
    node_compatible_with,
    occurrences_of_identifier,
)
from .realize import (
    RealizationResult,
    realize_walk_component_wise,
    build_g_bad,
    candidates_from_witnesses,
    choose_realizing_views,
    realize_views,
)
from .surgery import ComposedWalk, compose_with_escape_walks, order_preserving_remap
from .walks import (
    debacktrack_odd_cycle,
    escape_walk,
    forgotten_node,
    is_closed,
    is_non_backtracking,
    is_valid_walk,
    lift_walk,
    non_backtracking_walk_between,
    walk_length,
)

__all__ = [
    "ComposedWalk",
    "RealizationResult",
    "build_g_bad",
    "candidates_from_witnesses",
    "choose_realizing_views",
    "compose_with_escape_walks",
    "debacktrack_odd_cycle",
    "escape_walk",
    "forgotten_node",
    "identifiers_in",
    "is_closed",
    "is_non_backtracking",
    "is_valid_walk",
    "lift_walk",
    "node_compatible_with",
    "non_backtracking_walk_between",
    "occurrences_of_identifier",
    "order_preserving_remap",
    "realize_views",
    "realize_walk_component_wise",
    "walk_length",
]
