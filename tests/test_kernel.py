"""The numpy batch kernel (:mod:`repro.kernel`).

The kernel's contract is *exact* parity with the labeling-by-labeling
reference of :func:`tests.oracle.reference_unanimous_labelings`: same
yield stream, same ``seen``-set mutations, and the same
``SymmetryAccount`` totals at every yield point — including under
streaming early exit, where a closed generator must leave the account in
the same state the reference generator would.  Plus the edges of the
join's domain: an empty alphabet, a one-node graph, a space too large
for int64 indices, and the ``SearchProver`` searches of the Theorem 1.2
candidate catalog.
"""

from __future__ import annotations

import zlib
from unittest import mock

import pytest

from repro.certification.enumeration import unanimously_accepted_labelings
from repro.core.registry import all_lcps, make_lcp
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.kernel import batch, clear_kernel_tables
from repro.kernel.batch import MAX_INT64_SPACE, kernel_supports
from repro.local.instance import Instance
from repro.local.labeling import labeling_key, node_sort_order
from repro.perf import PerfStats
from repro.symmetry.prune import SymmetryAccount

from .oracle import reference_unanimous_labelings

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def _account_state(account):
    if account is None:
        return None
    return (
        account.labelings_total,
        account.labelings_pruned,
        account.instances_suppressed,
    )


def _sweep_args(lcp, graph, stabilized):
    """(decoder, base, alphabet, stabilizer) for one unanimity sweep, or
    None when the scheme has no finite alphabet on this graph."""
    alphabet = lcp.certificate_alphabet(graph)
    if alphabet is None or len(alphabet) ** graph.order > 20_000:
        return None
    base = Instance.build(graph)
    stabilizer = None
    if stabilized:
        from repro.symmetry.groups import automorphism_group
        from repro.symmetry.prune import instance_stabilizer

        group = automorphism_group(graph)
        if group.is_trivial:
            return None
        stabilizer = instance_stabilizer(
            group, graph, base.ports, base.ids, not lcp.anonymous
        )
    return lcp.decoder, base, alphabet, stabilizer


def _run_pair(lcp, graph, stabilized, prefix=None, block_size=None):
    """Drive the reference and the batch generator; compare the
    yields, the seen sets, and the account state after every pull (and
    after closing both when *prefix* truncates the stream)."""
    args = _sweep_args(lcp, graph, stabilized)
    if args is None:
        return False
    decoder, base, alphabet, stabilizer = args
    _compare_streams(
        decoder,
        base,
        alphabet,
        lcp.radius,
        not lcp.anonymous,
        stabilizer,
        prefix=prefix,
        block_size=block_size,
        label=(lcp.name, graph.order, stabilized),
    )
    return True


def _compare_streams(
    decoder,
    base,
    alphabet,
    radius,
    include_ids,
    stabilizer,
    prefix=None,
    block_size=None,
    label=None,
):
    """The lockstep comparison behind :func:`_run_pair`, for any decoder."""
    node_order = node_sort_order(base.graph)
    streams = {}
    for route in (reference_unanimous_labelings, unanimously_accepted_labelings):
        seen = set()
        account = SymmetryAccount()
        with mock.patch.object(
            batch, "KERNEL_BLOCK_SIZE", block_size or batch.KERNEL_BLOCK_SIZE
        ):
            gen = route(
                decoder,
                base,
                alphabet,
                radius,
                include_ids=include_ids,
                seen=seen,
                stabilizer=stabilizer,
                account=account,
            )
            yielded, states = [], []
            for labeling in gen:
                yielded.append(labeling_key(labeling, node_order))
                states.append((frozenset(seen), _account_state(account)))
                if prefix is not None and len(yielded) >= prefix:
                    break
            gen.close()
        streams[route] = (yielded, states, frozenset(seen), _account_state(account))
    assert streams[unanimously_accepted_labelings] == streams[reference_unanimous_labelings], (
        label
    )


@pytest.mark.parametrize("scheme", sorted(all_lcps()))
@pytest.mark.parametrize("stabilized", [False, True])
def test_batch_matches_scalar_stream_and_accounts(scheme, stabilized):
    lcp = make_lcp(scheme)
    ran = 0
    for graph in (path_graph(2), path_graph(3), cycle_graph(4), star_graph(3)):
        ran += _run_pair(lcp, graph, stabilized)
    if not ran:
        pytest.skip("no finite-alphabet base for this scheme/mode")


@pytest.mark.parametrize("prefix", [1, 2])
def test_early_exit_leaves_identical_accounts(prefix):
    """Closing both generators after *prefix* yields must leave the
    account in the same state — the post-yield suppressed commit of the
    reference orbit path must not run on either side."""
    ran = 0
    for scheme in sorted(all_lcps()):
        lcp = make_lcp(scheme)
        for stabilized in (False, True):
            ran += _run_pair(lcp, path_graph(3), stabilized, prefix=prefix)
            ran += _run_pair(lcp, cycle_graph(4), stabilized, prefix=prefix)
    assert ran


@pytest.mark.parametrize("block_size", [1, 2, 7, 4096])
def test_block_boundaries_are_unobservable(block_size):
    """The stream and every account state are block-size independent."""
    lcp = make_lcp("degree-one")
    assert _run_pair(lcp, path_graph(3), False, block_size=block_size)
    assert _run_pair(lcp, star_graph(3), True, block_size=block_size)


def _table_decoder(table, salt, radius):
    """An anonymous decoder whose verdict on a view is one entry of the
    drawn *table*, picked by a port- and id-free summary of the view
    (center label, sorted ``(distance, label)`` pairs of the rest).  The
    summary is automorphism-invariant, so the full automorphism group of
    a base is a sound orbit-pruning stabilizer for it."""
    from repro.certification.decoder import FunctionDecoder

    def accept(view):
        rest = sorted(zip(view.dist[1:], view.labels[1:]))
        digest = zlib.crc32(repr((salt, view.labels[0], rest)).encode())
        return table[digest % len(table)]

    return FunctionDecoder(accept, radius=radius, anonymous=True, name=f"table-{salt}-{table}")


def _property_bases():
    """``(base, stabilizer)`` on path, cycle, star and paw bases, each
    without a stabilizer and under its full automorphism group."""
    from repro.graphs.generators import pan_graph
    from repro.symmetry.groups import automorphism_group

    bases = []
    for graph in (path_graph(4), cycle_graph(4), star_graph(3), pan_graph(3, 1)):
        base = Instance.build(graph)
        bases.append((base, None))
        bases.append((base, automorphism_group(graph).perms))
    return bases


PROPERTY_BASES = _property_bases()


def test_property_bases_cover_stabilized_sweeps():
    stabilizers = [stabilizer for _, stabilizer in PROPERTY_BASES if stabilizer]
    assert len(stabilizers) == 4
    assert all(len(stabilizer) > 1 for stabilizer in stabilizers)


if HAVE_HYPOTHESIS:

    @given(
        table=st.one_of(
            st.just([True]),
            st.just([False]),
            st.lists(st.booleans(), min_size=2, max_size=8),
        ),
        salt=st.integers(0, 2**16),
        radius=st.sampled_from([1, 2]),
        letters=st.integers(1, 3),
        base_index=st.integers(0, 7),
        block_size=st.sampled_from([1, 2, 7, 4096]),
        prefix=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_join_matches_scalar_on_drawn_tables(
        table, salt, radius, letters, base_index, block_size, prefix
    ):
        """Decoders built from drawn acceptance tables — accept-all (no
        pruning, so the chunk bound splits every stage), reject-all, and
        everything between — give the reference stream, ``seen`` set and
        account state after every pull, with and without a stabilizer,
        at every block size, also when closed after a few yields."""
        clear_kernel_tables()
        base, stabilizer = PROPERTY_BASES[base_index]
        _compare_streams(
            _table_decoder(table, salt, radius),
            base,
            list(range(letters)),
            radius,
            False,
            stabilizer,
            prefix=prefix,
            block_size=block_size,
            label=(table, salt, radius, letters, base_index, block_size, prefix),
        )


def test_mixed_alphabet_parity():
    """Certificate alphabets mixing ints, strings, and tuples must not
    break the index encoding (indices compare; values never do)."""
    from repro.certification.enumeration import EnumerativeLCP
    from repro.core import DegreeOneLCP

    inner = DegreeOneLCP()
    lcp = EnumerativeLCP(inner.decoder, [0, "far", ("d1", 1)], k=2)
    graph = path_graph(3)
    base = Instance.build(graph)
    node_order = node_sort_order(graph)
    results = {}
    for route in (reference_unanimous_labelings, unanimously_accepted_labelings):
        seen = set()
        stream = [
            labeling_key(labeling, node_order)
            for labeling in route(
                lcp.decoder,
                base,
                lcp.certificate_alphabet(graph),
                lcp.radius,
                include_ids=not lcp.anonymous,
                seen=seen,
            )
        ]
        results[route] = (stream, frozenset(seen))
    assert results[unanimously_accepted_labelings] == results[reference_unanimous_labelings]


def test_acceptance_tables_are_shared_across_bases():
    """Re-sweeping a base with the same decoder reuses its tables."""
    clear_kernel_tables()
    lcp = make_lcp("degree-one")
    stats = PerfStats()
    args = _sweep_args(lcp, path_graph(3), False)
    decoder, base, alphabet, _ = args
    for _ in range(2):
        list(
            unanimously_accepted_labelings(
                decoder,
                base,
                alphabet,
                lcp.radius,
                include_ids=not lcp.anonymous,
                stats=stats,
            )
        )
    assert stats.get("kernel_table_misses") >= 1
    assert stats.get("kernel_table_hits") >= stats.get("kernel_table_misses")
    clear_kernel_tables()


def test_unknown_kernel_name_is_rejected():
    """The unanimity pass has one route: it takes no ``kernel`` argument,
    whatever its value."""
    lcp = make_lcp("degree-one")
    args = _sweep_args(lcp, path_graph(3), False)
    decoder, base, alphabet, _ = args
    for kernel in (None, "batch", "simd"):
        with pytest.raises(TypeError, match="kernel"):
            next(
                unanimously_accepted_labelings(
                    decoder, base, alphabet, lcp.radius, include_ids=True, kernel=kernel
                )
            )


def test_kernel_supports_bounds():
    """A space the int64 indices cannot address is counted as capped by
    the sweep and refused by a direct call — never handed to another
    route."""
    from repro.certification.enumeration import EnumerativeLCP
    from repro.neighborhood.aviews import _admitted_alphabet

    assert kernel_supports(path_graph(3), [0, 1])
    assert kernel_supports(path_graph(3), [])
    # 3 ** 64 overflows int64 index arithmetic.
    big = path_graph(64)
    assert 3**64 > MAX_INT64_SPACE
    assert not kernel_supports(big, [0, 1, 2])

    lcp = EnumerativeLCP(make_lcp("degree-one").decoder, [0, 1, 2])
    stats = PerfStats()
    # A labeling limit that admits the space leaves the index bound.
    assert _admitted_alphabet(lcp, big, None, 3**64, stats) is None
    assert stats.get("labelings_capped") == 1
    assert _admitted_alphabet(lcp, path_graph(3), None, 3**64, stats) == [0, 1, 2]
    assert stats.get("labelings_capped") == 1

    with pytest.raises(ValueError, match="int64"):
        next(
            unanimously_accepted_labelings(
                lcp.decoder, Instance.build(big), [0, 1, 2], lcp.radius, include_ids=False
            )
        )


def test_sweep_counts_an_unindexable_space_as_capped():
    """A labeling limit above the int64 index space does not reach the
    join: the sweep yields the prover's labelings, counts the base as
    ``labelings_capped`` and keeps going."""
    from repro.neighborhood.aviews import labeled_yes_instances

    lcp = make_lcp("degree-one")  # 4 letters: 4 ** 32 = 2 ** 64 labelings
    graph = path_graph(32)
    stats = PerfStats()
    instances = list(
        labeled_yes_instances(
            lcp,
            [graph],
            port_limit=1,
            include_all_accepted_labelings=True,
            labeling_limit=4**32,
            stats=stats,
        )
    )
    assert instances
    assert stats.get("labelings_capped") == 1
    assert stats.get("kernel_labelings") == 0


def _edge_bases():
    """``pytest.param(decoder, base, alphabet, radius, include_ids)`` at
    the edges of the join's domain: empty alphabets on paths, a star and
    a cycle, and one-node graphs under every registry scheme's
    alphabet."""
    from repro.graphs.graph import Graph

    lcp = make_lcp("degree-one")
    cases = [
        pytest.param(
            lcp.decoder, Instance.build(graph), [], lcp.radius, False, id=f"empty-{name}"
        )
        for name, graph in (
            ("P1", path_graph(1)),
            ("P2", path_graph(2)),
            ("P3", path_graph(3)),
            ("S3", star_graph(3)),
            ("C4", cycle_graph(4)),
        )
    ]
    single = Graph(nodes=[0], edges=[])
    for scheme in sorted(all_lcps()):
        lcp = make_lcp(scheme)
        alphabet = lcp.certificate_alphabet(single)
        if alphabet is not None:
            cases.append(
                pytest.param(
                    lcp.decoder,
                    Instance.build(single),
                    alphabet,
                    lcp.radius,
                    not lcp.anonymous,
                    id=f"one-node-{scheme}",
                )
            )
    return cases


@pytest.mark.parametrize("decoder, base, alphabet, radius, include_ids", _edge_bases())
def test_empty_alphabet_and_one_node_match_the_oracle(
    decoder, base, alphabet, radius, include_ids
):
    """An empty alphabet yields nothing and counts nothing (the reference
    loop's product is empty); a one-node graph is a one-column join."""
    _compare_streams(decoder, base, alphabet, radius, include_ids, None)
    if not alphabet:
        assert not list(
            unanimously_accepted_labelings(decoder, base, alphabet, radius, include_ids)
        )


def _candidate_catalog():
    from repro.experiments.theorems import _candidate_decoders

    return [pytest.param(name, lcp, id=name) for name, lcp in _candidate_decoders()]


@pytest.mark.parametrize("name, lcp", _candidate_catalog())
def test_search_prover_matches_the_oracle_up_to_5_nodes(name, lcp):
    """``SearchProver`` runs the join: on every connected graph of up to
    5 nodes within its search limit, each Theorem 1.2 candidate's prover
    yields the reference loop's stream."""
    from .oracle import reference_graphs

    prover = lcp.prover
    bases = 0
    for size in range(1, 6):
        for graph in reference_graphs(size):
            alphabet = lcp.certificate_alphabet(graph)
            if len(alphabet) ** graph.order > prover.search_limit:
                continue
            base = Instance.build(graph)
            order = node_sort_order(graph)
            expected = [
                labeling_key(labeling, order)
                for labeling in reference_unanimous_labelings(
                    lcp.decoder, base, alphabet, lcp.radius, not lcp.anonymous
                )
            ]
            assert [
                labeling_key(labeling, order)
                for labeling in prover.all_certifications(base)
            ] == expected, (name, tuple(graph.edges))
            bases += 1
    assert bases == 31
