"""LOCAL-model substrate: ports, identifiers, labelings, instances, views,
and local algorithms."""

from .algorithms import (
    FunctionAlgorithm,
    LocalAlgorithm,
    OrderInvariantLift,
    is_anonymous_on,
    is_order_invariant_on,
)
from .identifiers import (
    IdentifierAssignment,
    all_identifier_assignments,
    all_order_types,
    same_order_type,
)
from .instance import Instance
from .labeling import (
    Certificate,
    Labeling,
    all_labelings,
    count_labelings,
    labeling_key,
    node_sort_order,
)
from .ports import PortAssignment, all_port_assignments, count_port_assignments
from .views import View, extract_all_views, extract_view

__all__ = [
    "Certificate",
    "FunctionAlgorithm",
    "IdentifierAssignment",
    "Instance",
    "Labeling",
    "LocalAlgorithm",
    "OrderInvariantLift",
    "PortAssignment",
    "View",
    "all_identifier_assignments",
    "all_labelings",
    "all_order_types",
    "all_port_assignments",
    "count_labelings",
    "labeling_key",
    "node_sort_order",
    "count_port_assignments",
    "extract_all_views",
    "extract_view",
    "is_anonymous_on",
    "is_order_invariant_on",
    "same_order_type",
]
