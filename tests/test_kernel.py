"""The numpy batch kernel (:mod:`repro.kernel`).

The kernel's contract is *exact* parity with the scalar unanimity
generators: same yield stream, same ``seen``-set mutations, and the same
``SymmetryAccount`` totals at every yield point — including under
streaming early exit, where a closed generator must leave the account in
the same state the scalar generator would.  Plus the capability probe:
without numpy (simulated via ``REPRO_DISABLE_NUMPY``) everything falls
back to the pure-Python loops and sweeps report no kernel in their
provenance.
"""

from __future__ import annotations

import zlib
from unittest import mock

import pytest

from repro.core.registry import all_lcps, make_lcp
from repro.engine import (
    ExecutionPlan,
    RunContext,
    available_backends,
    clear_engine_state,
    decide_hiding,
)
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.kernel import (
    DISABLE_ENV,
    clear_kernel_tables,
    kernel_available,
    numpy_or_none,
    numpy_version,
)
from repro.kernel import batch
from repro.kernel.batch import kernel_supports
from repro.local.instance import Instance
from repro.local.labeling import labeling_key, node_sort_order
from repro.perf import PerfConfig, PerfStats
from repro.symmetry.prune import SymmetryAccount

HAVE_NUMPY = kernel_available()
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")

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
    """Drive the scalar and the batch generator in lockstep; compare the
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
    from repro.certification.enumeration import unanimously_accepted_labelings

    node_order = node_sort_order(base.graph)
    streams = {}
    for kernel in (None, "batch"):
        seen = set()
        account = SymmetryAccount()
        with mock.patch.object(
            batch, "KERNEL_BLOCK_SIZE", block_size or batch.KERNEL_BLOCK_SIZE
        ):
            gen = unanimously_accepted_labelings(
                decoder,
                base,
                alphabet,
                radius,
                include_ids=include_ids,
                seen=seen,
                stabilizer=stabilizer,
                account=account,
                kernel=kernel,
            )
            yielded, states = [], []
            for labeling in gen:
                yielded.append(labeling_key(labeling, node_order))
                states.append((frozenset(seen), _account_state(account)))
                if prefix is not None and len(yielded) >= prefix:
                    break
            gen.close()
        streams[kernel] = (yielded, states, frozenset(seen), _account_state(account))
    assert streams["batch"] == streams[None], label


@needs_numpy
@pytest.mark.parametrize("scheme", sorted(all_lcps()))
@pytest.mark.parametrize("stabilized", [False, True])
def test_batch_matches_scalar_stream_and_accounts(scheme, stabilized):
    lcp = make_lcp(scheme)
    ran = 0
    for graph in (path_graph(2), path_graph(3), cycle_graph(4), star_graph(3)):
        ran += _run_pair(lcp, graph, stabilized)
    if not ran:
        pytest.skip("no finite-alphabet base for this scheme/mode")


@needs_numpy
@pytest.mark.parametrize("prefix", [1, 2])
def test_early_exit_leaves_identical_accounts(prefix):
    """Closing both generators after *prefix* yields must leave the
    account in the same state — the post-yield suppressed commit of the
    scalar orbit path must not run on either side."""
    ran = 0
    for scheme in sorted(all_lcps()):
        lcp = make_lcp(scheme)
        for stabilized in (False, True):
            ran += _run_pair(lcp, path_graph(3), stabilized, prefix=prefix)
            ran += _run_pair(lcp, cycle_graph(4), stabilized, prefix=prefix)
    assert ran


@needs_numpy
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

    @needs_numpy
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
        everything between — give the scalar stream, ``seen`` set and
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


@needs_numpy
def test_mixed_alphabet_parity():
    """Certificate alphabets mixing ints, strings, and tuples must not
    break the index encoding (indices compare; values never do)."""
    from repro.certification.enumeration import (
        EnumerativeLCP,
        unanimously_accepted_labelings,
    )
    from repro.core import DegreeOneLCP

    inner = DegreeOneLCP()
    lcp = EnumerativeLCP(inner.decoder, [0, "far", ("d1", 1)], k=2)
    graph = path_graph(3)
    base = Instance.build(graph)
    node_order = node_sort_order(graph)
    results = {}
    for kernel in (None, "batch"):
        seen = set()
        stream = [
            labeling_key(labeling, node_order)
            for labeling in unanimously_accepted_labelings(
                lcp.decoder,
                base,
                lcp.certificate_alphabet(graph),
                lcp.radius,
                include_ids=not lcp.anonymous,
                seen=seen,
                kernel=kernel,
            )
        ]
        results[kernel] = (stream, frozenset(seen))
    assert results["batch"] == results[None]


@needs_numpy
def test_acceptance_tables_are_shared_across_bases():
    """Re-sweeping a base with the same decoder reuses its tables."""
    clear_kernel_tables()
    lcp = make_lcp("degree-one")
    stats = PerfStats()
    args = _sweep_args(lcp, path_graph(3), False)
    decoder, base, alphabet, _ = args
    from repro.certification.enumeration import unanimously_accepted_labelings

    for _ in range(2):
        list(
            unanimously_accepted_labelings(
                decoder,
                base,
                alphabet,
                lcp.radius,
                include_ids=not lcp.anonymous,
                kernel="batch",
                stats=stats,
            )
        )
    assert stats.get("kernel_table_misses") >= 1
    assert stats.get("kernel_table_hits") >= stats.get("kernel_table_misses")
    clear_kernel_tables()


def test_unknown_kernel_name_is_rejected():
    from repro.certification.enumeration import unanimously_accepted_labelings

    lcp = make_lcp("degree-one")
    args = _sweep_args(lcp, path_graph(3), False)
    decoder, base, alphabet, _ = args
    with pytest.raises(ValueError, match="unknown sweep kernel"):
        next(
            unanimously_accepted_labelings(
                decoder, base, alphabet, lcp.radius, include_ids=True, kernel="simd"
            )
        )


def test_kernel_supports_bounds():
    assert kernel_supports(path_graph(3), [0, 1])
    # 3 ** 64 overflows int64 index arithmetic -> scalar fallback.
    assert not kernel_supports(path_graph(64), [0, 1, 2])


def _sweep_kernel() -> str | None:
    """``Provenance.kernel`` of a fresh, uncached degree-one sweep."""
    clear_engine_state()
    plan = ExecutionPlan(warm_start=False, memory_cache=False, disk_cache=False)
    verdict = decide_hiding(make_lcp("degree-one"), 3, plan, ctx=RunContext.isolated())
    return verdict.provenance.kernel


class TestCapabilityProbe:
    def test_disable_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert numpy_or_none() is None
        assert not kernel_available()
        assert numpy_version() is None
        assert available_backends() == ["streaming"]
        # auto routes to the streaming backend, which runs the scalar loops.
        plan = ExecutionPlan(disk_cache=False).resolve(PerfConfig())
        assert plan.backend == "streaming"
        assert _sweep_kernel() is None

    @needs_numpy
    def test_probe_reports_numpy(self, monkeypatch):
        monkeypatch.delenv(DISABLE_ENV, raising=False)
        assert numpy_or_none() is not None
        assert isinstance(numpy_version(), str)
        assert available_backends() == ["streaming"]
        assert _sweep_kernel() == "batch"

    def test_sweep_falls_back_without_numpy(self, monkeypatch):
        """kernel='batch' without numpy silently runs the scalar loop —
        zero-dependency operation, identical stream."""
        from repro.certification.enumeration import unanimously_accepted_labelings

        lcp = make_lcp("degree-one")
        decoder, base, alphabet, _ = _sweep_args(lcp, path_graph(3), False)
        node_order = node_sort_order(path_graph(3))

        def run():
            return [
                labeling_key(lab, node_order)
                for lab in unanimously_accepted_labelings(
                    decoder,
                    base,
                    alphabet,
                    lcp.radius,
                    include_ids=not lcp.anonymous,
                    kernel="batch",
                )
            ]

        monkeypatch.setenv(DISABLE_ENV, "1")
        disabled = run()
        monkeypatch.delenv(DISABLE_ENV)
        assert disabled == run()
