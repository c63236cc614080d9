"""Labelings — the certificate assignments of the LCP model (Section 2.2).

A labeling maps each node to a certificate.  Certificates in this library
are structured Python values (tuples, small enums) rather than raw
bitstrings; each LCP supplies a codec measuring how many bits its
certificates would occupy, which is what the certificate-size experiments
report.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from itertools import product

from ..errors import LabelingError
from ..graphs.graph import Graph, Node

Certificate = Hashable


class Labeling:
    """An immutable assignment of certificates to nodes."""

    __slots__ = ("_labels",)

    def __init__(self, labels: dict[Node, Certificate]) -> None:
        self._labels = dict(labels)

    def of(self, v: Node) -> Certificate:
        """The certificate of node *v*."""
        try:
            return self._labels[v]
        except KeyError:
            raise LabelingError(f"node {v!r} has no label") from None

    def get(self, v: Node, default: Certificate = None) -> Certificate:
        return self._labels.get(v, default)

    def as_dict(self) -> dict[Node, Certificate]:
        return dict(self._labels)

    def nodes(self) -> list[Node]:
        return list(self._labels)

    def validate(self, graph: Graph) -> None:
        """Every node of *graph* must carry a label."""
        labels = self._labels
        if not graph._adj.keys() <= labels.keys():
            missing = [v for v in graph._adj if v not in labels]
            raise LabelingError(f"nodes without labels: {sorted(map(repr, missing))}")

    def with_label(self, v: Node, certificate: Certificate) -> "Labeling":
        """A copy with the label of *v* replaced."""
        labels = dict(self._labels)
        labels[v] = certificate
        return Labeling(labels)

    def relabeled(self, mapping: dict[Node, Node]) -> "Labeling":
        """Transport the labeling through a node renaming."""
        return Labeling({mapping[v]: c for v, c in self._labels.items()})

    @classmethod
    def uniform(cls, graph: Graph, certificate: Certificate) -> "Labeling":
        """The same certificate on every node."""
        return cls({v: certificate for v in graph.nodes})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"Labeling(nodes={len(self._labels)})"


def labeling_key(labeling: Labeling, node_order: tuple[Node, ...] | None = None) -> tuple:
    """A hashable identity key for a labeling: sorted (node, certificate)
    pairs, ordered by node ``repr`` so arbitrary hashable node types get a
    deterministic key.  Two labelings of the same node set get equal keys
    iff they assign the same certificates — the dedup key of the
    enumeration sweeps (Lemma 3.1) and the search prover.

    Callers deduplicating many labelings of one fixed node set can pass a
    precomputed *node_order* (any fixed ordering of exactly the labeled
    nodes); the key is then just the certificate tuple in that order,
    skipping the per-call sort."""
    if node_order is not None:
        return tuple(labeling.of(v) for v in node_order)
    return tuple(sorted(labeling.as_dict().items(), key=lambda kv: repr(kv[0])))


def node_sort_order(graph: Graph) -> tuple[Node, ...]:
    """The deterministic node ordering used by :func:`labeling_key`."""
    return tuple(sorted(graph.nodes, key=repr))


def all_labelings(graph: Graph, alphabet: list[Certificate]) -> Iterator[Labeling]:
    """Every labeling of *graph* over a finite *alphabet*.

    This is the exhaustive adversary for constant-size certificates: the
    strong-soundness checks of Theorem 1.1 quantify over all of these.
    The count is ``|alphabet| ** n``.
    """
    nodes = graph.nodes
    for combo in product(alphabet, repeat=len(nodes)):
        yield Labeling(dict(zip(nodes, combo)))


def count_labelings(graph: Graph, alphabet_size: int) -> int:
    """``alphabet_size ** n`` — the size of the exhaustive adversary space."""
    return alphabet_size**graph.order
