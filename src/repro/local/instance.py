"""Instances: a graph together with ports, identifiers, and a labeling.

The paper's decoders run on tuples ``(G, prt, Id, I)`` where the input
``I(v) = (N, ℓ(v))`` bundles the identifier bound with the certificate.
:class:`Instance` is that tuple as a value object; the labeling part is
optional so the same instance can be re-labeled by provers and adversaries
without copying the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import CertificationError
from ..graphs.graph import Graph, Node
from .identifiers import IdentifierAssignment
from .labeling import Labeling
from .ports import PortAssignment


@dataclass(frozen=True)
class Instance:
    """A configured network: graph, ports, identifiers, id bound, labels.

    *id_bound* is the paper's ``N = poly(n)``, known to every node.
    *labeling* may be ``None`` for an instance awaiting certificates.
    """

    graph: Graph
    ports: PortAssignment
    ids: IdentifierAssignment
    id_bound: int
    labeling: Labeling | None = None

    @classmethod
    def build(
        cls,
        graph: Graph,
        ports: PortAssignment | None = None,
        ids: IdentifierAssignment | None = None,
        id_bound: int | None = None,
        labeling: Labeling | None = None,
    ) -> "Instance":
        """Assemble an instance, filling in canonical defaults.

        Defaults: canonical ports (sorted-neighbor order), canonical
        identifiers ``1..n``, and ``id_bound = max(n, max id)``.
        """
        if ports is None:
            ports = PortAssignment.canonical(graph)
        if ids is None:
            ids = IdentifierAssignment.canonical(graph)
        if id_bound is None:
            id_bound = max(graph.order, ids.max_id())
        instance = cls(graph=graph, ports=ports, ids=ids, id_bound=id_bound, labeling=labeling)
        instance.validate()
        return instance

    def validate(self) -> None:
        """Check that ports, ids, and labels all fit the graph."""
        self.ports.validate(self.graph)
        self.ids.validate(self.graph, self.id_bound)
        if self.labeling is not None:
            self.labeling.validate(self.graph)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.order

    def with_labeling(self, labeling: Labeling) -> "Instance":
        """The same network carrying a (new) certificate assignment."""
        labeling.validate(self.graph)
        return Instance(self.graph, self.ports, self.ids, self.id_bound, labeling)

    def without_labeling(self) -> "Instance":
        return replace(self, labeling=None)

    def with_ids(self, ids: IdentifierAssignment, id_bound: int | None = None) -> "Instance":
        """The same network with different identifiers."""
        bound = id_bound if id_bound is not None else max(self.id_bound, ids.max_id())
        ids.validate(self.graph, bound)
        return replace(self, ids=ids, id_bound=bound)

    def require_labeling(self) -> Labeling:
        """The labeling, or an error if certificates were never assigned."""
        if self.labeling is None:
            raise CertificationError("instance has no labeling; assign certificates first")
        return self.labeling

    def relabeled_nodes(self, mapping: dict[Node, Node]) -> "Instance":
        """Rename the nodes of the whole instance through *mapping*."""
        return Instance(
            graph=self.graph.relabeled(mapping),
            ports=self.ports.relabeled(mapping),
            ids=self.ids.relabeled(mapping),
            id_bound=self.id_bound,
            labeling=self.labeling.relabeled(mapping) if self.labeling else None,
        )

    def __repr__(self) -> str:
        labeled = "labeled" if self.labeling is not None else "unlabeled"
        return f"Instance(n={self.n}, N={self.id_bound}, {labeled})"
