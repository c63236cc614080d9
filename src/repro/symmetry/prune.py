"""Orbit pruning of the Lemma 3.1 labeling sweep.

Decoder verdicts are invariant under instance automorphisms: relabeling
a labeled instance through a graph automorphism that preserves ports
(and identifiers, when the decoder sees them) permutes the multiset of
node views without changing any of them.  The sweep may therefore

* decide only one labeling per orbit of the base's **stabilizer** (the
  automorphisms fixing ports/ids) and suppress the rest, and
* skip entire ``(ports, ids)`` bases whose **signature** — the orbit of
  their port/id tables under the graph's automorphism group — was
  already scanned: every labeled instance of the duplicate base is a
  relabeling of one from the representative base, contributing the
  identical canonical views and edges.

Suppressed instances never reach the builders, so the engine adds
:attr:`SymmetryAccount.instances_suppressed` back into
``Provenance.instances_scanned`` (and the matching stats counter) after
the sweep — reports and the obs consistency block stay truthful about
the brute-force-equivalent count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.graph import Graph
from ..local.identifiers import IdentifierAssignment
from ..local.ports import PortAssignment
from .groups import AutomorphismGroup


@dataclass
class SymmetryAccount:
    """Running totals of what a pruned sweep skipped.

    * ``labelings_total`` — labelings enumerated (pruned or not) by the
      exhaustive unanimity loops; the denominator of the orbit-pruning
      ratio reported by the benchmarks.
    * ``labelings_pruned`` — labelings skipped as non-minimal orbit
      members (never decided).
    * ``bases_total`` / ``bases_pruned`` — ``(ports, ids)`` bases seen /
      skipped as signature duplicates.
    * ``instances_suppressed`` — labeled yes-instances the brute-force
      sweep would have yielded that the pruned sweep did not; the engine
      folds this back into ``instances_scanned``.
    """

    labelings_total: int = 0
    labelings_pruned: int = 0
    bases_total: int = 0
    bases_pruned: int = 0
    instances_suppressed: int = 0

    @property
    def pruning_ratio(self) -> float:
        """``labelings_pruned / labelings_total`` (0.0 when nothing ran)."""
        if not self.labelings_total:
            return 0.0
        return self.labelings_pruned / self.labelings_total


def _index_tables(
    group: AutomorphismGroup,
    ports: PortAssignment,
    ids: IdentifierAssignment,
    include_ids: bool,
) -> tuple[list[dict[int, int]], list[int] | None]:
    """The base over group-node indices: the port table ``table[i][j]``
    (port of ``nodes[i]`` toward ``nodes[j]``; its keys are the
    neighbors) and the id row (``None`` when the decoder does not see
    identifiers).  Read once per base, so each automorphism only
    permutes indices."""
    nodes = group.nodes
    index = {v: i for i, v in enumerate(nodes)}
    table = [{index[u]: p for u, p in ports._ports[v].items()} for v in nodes]
    return table, ([ids.id_of(v) for v in nodes] if include_ids else None)


def instance_stabilizer(
    group: AutomorphismGroup,
    graph: Graph,
    ports: PortAssignment,
    ids: IdentifierAssignment,
    include_ids: bool,
) -> tuple[tuple[int, ...], ...]:
    """The automorphisms fixing *ports* (and *ids* when the decoder sees
    identifiers) — the subgroup under which labelings of this base may
    be orbit-pruned.  Index permutations, identity first.
    """
    identity, *others = group.perms
    if not others:
        return (identity,)
    table, id_row = _index_tables(group, ports, ids, include_ids)
    if id_row is not None:
        others = [sigma for sigma in others if [id_row[w] for w in sigma] == id_row]
    stabilizer = [identity]
    for sigma in others:
        for i, row in enumerate(table):
            image = table[sigma[i]]
            if any(image[sigma[j]] != p for j, p in row.items()):
                break
        else:
            stabilizer.append(sigma)
    return tuple(stabilizer)


def base_signature(
    group: AutomorphismGroup,
    graph: Graph,
    ports: PortAssignment,
    ids: IdentifierAssignment,
    include_ids: bool,
) -> tuple:
    """A canonical key for the ``(ports, ids)`` base under ``Aut(G)``.

    Two bases of the same graph get equal signatures iff one is the
    other transported through a graph automorphism — in which case their
    labeled yes-instances are relabelings of each other and produce
    identical view/edge streams.  The signature is the minimum, over the
    group, of the base's port table (and id row, when the decoder sees
    identifiers) relabeled through the automorphism.
    """
    table, id_row = _index_tables(group, ports, ids, include_ids)
    # The table relabeled through an automorphism reads row i as
    # table[inv[i]][inv[j]] over i's sorted neighbors j.  Aut(G) is a
    # group, so ranging over the inverses is ranging over its elements:
    # each element serves as ``inv`` directly.  The minimum is found row
    # by row, keeping only the elements that tie on every row so far.
    survivors = group.perms
    port_rows = []
    for i, row in enumerate(table):
        neighbors = sorted(row)
        best_row = None
        tied = []
        for inv in survivors:
            image = table[inv[i]]
            candidate = tuple([image[inv[j]] for j in neighbors])
            if best_row is None or candidate < best_row:
                best_row = candidate
                tied = [inv]
            elif candidate == best_row:
                tied.append(inv)
        port_rows.append(best_row)
        survivors = tied
    if id_row is None:
        return (tuple(port_rows),)
    return (
        tuple(port_rows),
        min(tuple(map(id_row.__getitem__, inv)) for inv in survivors),
    )
