"""The accepting neighborhood graph ``V(D, n)`` and the hiding
characterization of Lemma 3.2, with the extraction decoder for the
converse direction."""

from .aviews import labeled_yes_instances, yes_instances_between, yes_instances_up_to
from .extraction import (
    UNKNOWN_VIEW,
    ExtractionDecoder,
    ExtractionOutcome,
    build_extraction_decoder,
    run_extraction,
)
from .hiding import HidingVerdict, hiding_verdict_from_instances
from .ngraph import GraphConsumer, NeighborhoodGraph, build_neighborhood_graph
from .streaming import StreamingHidingEngine

__all__ = [
    "ExtractionDecoder",
    "ExtractionOutcome",
    "GraphConsumer",
    "HidingVerdict",
    "NeighborhoodGraph",
    "StreamingHidingEngine",
    "UNKNOWN_VIEW",
    "build_extraction_decoder",
    "build_neighborhood_graph",
    "hiding_verdict_from_instances",
    "labeled_yes_instances",
    "run_extraction",
    "yes_instances_between",
    "yes_instances_up_to",
]
