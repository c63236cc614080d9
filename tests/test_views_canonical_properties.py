"""Property tests pinning down view canonicalization: views are values
that depend only on the rooted port/id/label structure — never on node
names, insertion order, or extraction order — and the one-pass
canonicalizer agrees with the callback-driven oracle of
:mod:`tests.oracle` on every route that builds views."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import random_graph
from repro.graphs.traversal import is_connected
from repro.local import (
    IdentifierAssignment,
    Instance,
    Labeling,
    PortAssignment,
    extract_view,
)
from repro.local.views import extract_view_layouts, relabel_view

from .oracle import reference_view
from .simulator import simulate_views


def _connected(n, p, seed):
    g = random_graph(n, p, seed)
    if not is_connected(g):
        nodes = g.nodes
        for a, b in zip(nodes, nodes[1:]):
            g.add_edge(a, b)
    return g


class TestNameInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 7),
        p=st.floats(0.3, 0.8),
        seed=st.integers(0, 10**5),
        shift=st.integers(1, 50),
        radius=st.integers(1, 2),
    )
    def test_node_renaming_preserves_views(self, n, p, seed, shift, radius):
        """Renaming graph nodes (keeping ports/ids/labels attached) must
        not change any extracted view."""
        g = _connected(n, p, seed)
        labeling = Labeling({v: f"L{v % 3}" for v in g.nodes})
        instance = Instance.build(g, labeling=labeling)
        mapping = {v: v + shift for v in g.nodes}
        renamed = instance.relabeled_nodes(mapping)
        for v in g.nodes:
            assert extract_view(instance, v, radius) == extract_view(
                renamed, mapping[v], radius
            )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 7),
        p=st.floats(0.3, 0.8),
        seed=st.integers(0, 10**5),
        port_seed=st.integers(0, 10**5),
    )
    def test_same_structure_same_view(self, n, p, seed, port_seed):
        """Two extractions of the same node agree regardless of when or
        how often we extract (no hidden state)."""
        g = _connected(n, p, seed)
        instance = Instance.build(g, ports=PortAssignment.random(g, port_seed))
        v = g.nodes[0]
        first = extract_view(instance, v, 2)
        # Interleave other extractions.
        for u in g.nodes:
            extract_view(instance, u, 1)
        assert extract_view(instance, v, 2) == first


class TestLayoutFastPath:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(3, 7),
        p=st.floats(0.3, 0.8),
        seed=st.integers(0, 10**5),
        radius=st.integers(1, 2),
    )
    def test_relabel_view_equals_full_extraction(self, n, p, seed, radius):
        """The exhaustive-adversary fast path must agree with full
        extraction for every labeling."""
        from repro.local.views import extract_view_layouts, relabel_view

        g = _connected(n, p, seed)
        instance = Instance.build(g)
        layouts = extract_view_layouts(instance, radius)
        for labels in ({v: v % 2 for v in g.nodes}, {v: "x" for v in g.nodes}):
            labeling = Labeling(labels)
            labeled = instance.with_labeling(labeling)
            for v, (template, order) in layouts.items():
                assert relabel_view(template, order, labeling) == extract_view(
                    labeled, v, radius
                )

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 7), p=st.floats(0.3, 0.8), seed=st.integers(0, 10**5))
    def test_layouts_anonymous(self, n, p, seed):
        from repro.local.views import extract_view_layouts, relabel_view

        g = _connected(n, p, seed)
        instance = Instance.build(g)
        layouts = extract_view_layouts(instance, 1, include_ids=False)
        labeling = Labeling.uniform(g, "c")
        labeled = instance.with_labeling(labeling)
        for v, (template, order) in layouts.items():
            rebuilt = relabel_view(template, order, labeling)
            assert rebuilt == extract_view(labeled, v, 1, include_ids=False)
            assert rebuilt.is_anonymous


#: Node renamings under which ``repr`` order disagrees with index order
#: ("n10" < "n2"; tuples sort on their first field first).
_NAMINGS = {
    "int": lambda v: v,
    "str": lambda v: f"n{v}",
    "tuple": lambda v: (v % 3, f"t{v}"),
}


def _fields(view):
    return (
        view.radius,
        view.dist,
        view.edges,
        view.ports,
        view.ids,
        view.id_bound,
        view.labels,
    )


class TestOracleAgreement:
    """Every view route equals :func:`tests.oracle.reference_view`, field
    for field and in ``hash()``, on random ports and ids, radius 1–3,
    both identifier modes, non-integer node names and disconnected
    graphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        p=st.floats(0.0, 0.9),
        seed=st.integers(0, 10**5),
        naming=st.sampled_from(sorted(_NAMINGS)),
        radius=st.integers(1, 3),
        include_ids=st.booleans(),
    )
    def test_every_route_matches_the_oracle(
        self, n, p, seed, naming, radius, include_ids
    ):
        rename = _NAMINGS[naming]
        g = random_graph(n, p, seed).relabeled({v: rename(v) for v in range(n)})
        id_bound = 2 * n + 3
        instance = Instance.build(
            g,
            ports=PortAssignment.random(g, seed),
            ids=IdentifierAssignment.random(g, id_bound, seed + 1),
            id_bound=id_bound,
        )
        labeling = Labeling({v: (i * 7 + seed) % 3 for i, v in enumerate(g.nodes)})
        labeled = instance.with_labeling(labeling)
        expected = {
            v: reference_view(labeled, v, radius, include_ids=include_ids)
            for v in g.nodes
        }
        simulated, _stats = simulate_views(labeled, radius, include_ids=include_ids)
        layouts = extract_view_layouts(instance, radius, include_ids=include_ids)
        assert list(layouts) == g.nodes
        for v, want in expected.items():
            template, order = layouts[v]
            for got in (
                extract_view(labeled, v, radius, include_ids=include_ids),
                relabel_view(template, order, labeling),
                simulated[v],
            ):
                assert _fields(got) == _fields(want)
                assert hash(got) == hash(want)
            assert template == reference_view(
                instance, v, radius, include_ids=include_ids
            )
