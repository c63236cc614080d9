"""Bipartite-pruned generation leaves every sweep exactly as it was.

Every yes-instance of a ``k = 2`` LCP is bipartite, so its Lemma 3.1
sweep generates only the bipartite augmentation tree
(:func:`repro.neighborhood.aviews.bipartite_generation`).  The pruning
must be invisible downstream: the labeled yes-instance stream equals the
one filtered out of the full graph family, and decision fingerprints,
witnesses and disk keys equal the values pinned before the pruning
existed.  ``k >= 3`` sweeps keep the full tree and are pinned the same
way.  The bipartite family helpers of :mod:`repro.graphs.families`,
which now read the pruned tree too, are pinned against their filtered
definitions.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.certification.lcp import LCP, parametrized
from repro.core.registry import make_lcp, scheme_names
from repro.engine import ExecutionPlan, RunContext, decide_hiding
from repro.engine.backends import disk_key
from repro.graphs.families import (
    all_graphs_up_to,
    bipartite_graphs_up_to,
    bipartite_min_degree_one_graphs_up_to,
    bipartite_shatter_graphs_up_to,
)
from repro.graphs.properties import is_bipartite
from repro.graphs.shatter import has_shatter_point
from repro.neighborhood.aviews import (
    bipartite_generation,
    labeled_yes_instances,
    yes_instances_up_to,
)

from .oracle import encode_view

#: Every registry scheme at its native k (all k = 2), plus one k = 3
#: parametrized cell, which keeps the full tree.
CELLS = [(name, None) for name in scheme_names()] + [("watermelon", 3)]

#: ``(scheme, k, n) -> (hiding, fingerprint, witness, disk key)`` digests
#: of the default early-exit streaming decision, recorded before
#: generation was pruned.
PINS = {
    ("revealing", None, 5): (False, "e52887cdf18035f6", None, "4fad90386428fba5"),
    ("degree-one", None, 5): (True, "f71bf15c4d39d057", "7b8ea8ba3c0d504f", "fa5cac8eddf110b1"),
    ("even-cycle", None, 5): (True, "17988d03caac5857", "6495f474c6915e9b", "e1c83b8520ae41a1"),
    ("union", None, 5): (True, "76378774b610a99b", "93aad435321d6e18", "552f23bdc96024b6"),
    ("shatter", None, 5): (False, "a9e665135c66fbda", None, "c2de0c22c2b28f61"),
    ("watermelon", None, 5): (False, "736a89c5bcdc8eef", None, "a96d51396eaf60ec"),
    ("universal", None, 5): (False, "9a4e19f53d267e9f", None, "0c0d81417ea0f5bc"),
    ("watermelon", 3, 5): (False, "e4916ee56bf8f5df", None, "6ab959e87c3636db"),
    ("revealing", None, 6): (False, "2b7a6f116cbf0960", None, "fc1452c9c1d226b8"),
    ("degree-one", None, 6): (True, "f71bf15c4d39d057", "7b8ea8ba3c0d504f", "1ce89e0c570dc576"),
    ("even-cycle", None, 6): (True, "17988d03caac5857", "6495f474c6915e9b", "7cede5a66c66351e"),
    ("union", None, 6): (True, "76378774b610a99b", "93aad435321d6e18", "0afe31e60fde7343"),
    ("shatter", None, 6): (False, "efa22cab6a44b3b2", None, "dddfc3a291ca625b"),
    ("watermelon", None, 6): (False, "c032512099dd92e2", None, "dea79e3973d48ad1"),
    ("universal", None, 6): (False, "319eacedbe224d04", None, "6d920546ae9194e6"),
    ("watermelon", 3, 6): (False, "0cb65906e7eb4724", None, "0a85b6c8ff384d23"),
}


def _lcp(scheme: str, k: int | None) -> LCP:
    return make_lcp(scheme) if k is None else parametrized(make_lcp(scheme), k=k)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _decision_digests(lcp: LCP, n: int) -> tuple:
    plan = ExecutionPlan(backend="streaming", memory_cache=False, disk_cache=False)
    verdict = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
    witness = (
        None
        if verdict.witness is None
        else _digest(json.dumps([encode_view(v) for v in verdict.witness]).encode())
    )
    key = json.dumps(disk_key(lcp, n, plan.resolve()), sort_keys=True)
    return (
        verdict.hiding,
        _digest(verdict.decision_fingerprint()),
        witness,
        _digest(key.encode()),
    )


def test_pruning_follows_k():
    for name in scheme_names():
        assert bipartite_generation(make_lcp(name)) is (make_lcp(name).k == 2)
    assert not bipartite_generation(_lcp("watermelon", 3))


def test_pruning_stays_off_when_yes_instances_are_redefined():
    class Redefined(type(make_lcp("even-cycle"))):
        def is_yes_instance(self, graph):
            return True

    assert not bipartite_generation(Redefined())


@pytest.mark.parametrize("scheme, k", CELLS)
def test_yes_instance_stream_equals_the_unpruned_filter(scheme, k):
    lcp = _lcp(scheme, k)
    pruned = list(yes_instances_up_to(lcp, 6))
    unpruned = list(
        labeled_yes_instances(
            lcp,
            all_graphs_up_to(6, mutable=False),
            id_bound=6,
            include_all_accepted_labelings=True,
        )
    )
    assert pruned
    assert [tuple(i.graph.edges) for i in pruned] == [
        tuple(i.graph.edges) for i in unpruned
    ]
    assert pruned == unpruned


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("scheme, k", CELLS)
def test_decisions_match_their_pinned_values(scheme, k, n):
    assert _decision_digests(_lcp(scheme, k), n) == PINS[(scheme, k, n)]


@pytest.mark.parametrize(
    "helper, predicate",
    [
        (bipartite_graphs_up_to, is_bipartite),
        (
            bipartite_min_degree_one_graphs_up_to,
            lambda g: g.order >= 2 and g.min_degree() == 1 and is_bipartite(g),
        ),
        (
            bipartite_shatter_graphs_up_to,
            lambda g: has_shatter_point(g) and is_bipartite(g),
        ),
    ],
)
def test_bipartite_family_helpers_match_their_filtered_definition(helper, predicate):
    streamed = [tuple(g.edges) for g in helper(7)]
    filtered = [tuple(g.edges) for g in all_graphs_up_to(7) if predicate(g)]
    assert streamed
    assert streamed == filtered
