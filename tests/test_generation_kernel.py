"""Property suite: the generation kernel is byte-identical to the scalar path.

The batched canonicalization and orderly-generation kernels of
:mod:`repro.kernel.generate` are pure accelerations: for every
isomorphism class up to ``n = 7`` the vectorized canonical key, the
minimizing-assignment order (hence the automorphism tuples), the level
build, and the emission stream must match the scalar
``colex_canonical`` / ``min_edge_mask`` / ``_build_level`` reference
bit for bit.  OEIS A000088 / A001349 pin the class counts so a parity
bug that drops or duplicates classes on *both* routes cannot hide.

Both kernel routes are also pinned to the edge-subset walk of the test
oracle up to ``n = 6``.  The suite covers the capability seams too: the
``REPRO_DISABLE_NUMPY`` fallback, the ``kernel`` plan knob, and the
raised ``kernel_labeling_limit`` admission (content parity with a
plainly raised limit, normalization on ``kernel="off"`` plans).
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.core.even_cycle import EvenCycleLCP
from repro.engine import ExecutionPlan, clear_engine_state, decide_hiding
from repro.graphs.graph import Graph
from repro.graphs.properties import is_bipartite
from repro.kernel import DISABLE_ENV, kernel_available, numpy_or_none
from repro.kernel.generate import (
    MAX_GENERATION_NODES,
    batch_colex_canonical,
    batch_min_edge_mask,
    generation_supported,
    orbit_minimal_subsets,
    subset_bit_matrix,
)
from repro.symmetry.canon import (
    automorphisms_from_perms,
    colex_canonical,
    min_edge_mask,
)
from repro.symmetry.groups import (
    AutomorphismGroup,
    automorphism_group,
    clear_automorphism_cache,
)
from repro.symmetry.orderly import (
    _build_level,
    _build_level_batched,
    _level,
    clear_orderly_cache,
    count_classes,
    orderly_graphs_exactly,
)

from .oracle import reference_graphs

HAVE_NUMPY = kernel_available()
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")

#: Isomorphism classes on exactly n nodes, n = 1..7 (OEIS A000088).
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
#: Connected classes on exactly n nodes, n = 1..7 (OEIS A001349).
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]


@pytest.fixture(autouse=True)
def _fresh_generation_caches():
    """The kernel-vs-scalar comparisons below rebuild the memoized
    levels under different routes; never let one leak into other tests."""
    clear_orderly_cache()
    clear_automorphism_cache()
    clear_engine_state()
    yield
    clear_orderly_cache()
    clear_automorphism_cache()
    clear_engine_state()


def _scalar_levels(n: int, bipartite: bool = False):
    """Levels 1..n built strictly by the scalar reference path."""
    levels = {1: (((0,), ((0,),)),)}
    for k in range(2, n + 1):
        levels[k] = _build_level(k, levels[k - 1], bipartite)
    return levels


def _bipartite_entries(entries, n: int):
    """The bipartite subsequence of a level's generation entries."""
    return tuple(
        (rows, auts)
        for rows, auts in entries
        if is_bipartite(
            Graph(
                range(n),
                [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1],
            )
        )
    )


def _class_matrices(n: int, np):
    """Adjacency-row matrices for every class on *n* nodes plus a few
    deterministic relabelings — canonical and non-canonical inputs."""
    perms = list(permutations(range(n)))
    perms = perms[:: max(1, len(perms) // 5)]
    rows_out = []
    for rows, _ in _scalar_levels(n)[n]:
        for sigma in perms:
            rows_out.append(
                [
                    sum(
                        (rows[sigma[u]] >> sigma[v] & 1) << v
                        for v in range(n)
                    )
                    for u in range(n)
                ]
            )
    return np.array(rows_out, dtype=np.int64)


@needs_numpy
class TestBatchCanonicalization:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_colex_matches_scalar_including_perm_order(self, n):
        np = numpy_or_none()
        matrix = _class_matrices(n, np)
        perms, gid = batch_colex_canonical(matrix, n, np)
        bounds = np.searchsorted(gid, np.arange(len(matrix) + 1))
        for g, adj in enumerate(matrix.tolist()):
            _, scalar_perms = colex_canonical(adj, n)
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            batched = tuple(tuple(p) for p in perms[lo:hi].tolist())
            # Same minimizing assignments in the same DFS order — the
            # automorphism tuples derived from them inherit the parity.
            assert batched == scalar_perms
            assert automorphisms_from_perms(batched, n) == (
                automorphisms_from_perms(scalar_perms, n)
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_min_edge_mask_matches_scalar(self, n):
        np = numpy_or_none()
        matrix = _class_matrices(n, np)
        firsts = []
        for adj in matrix.tolist():
            _, cperms = colex_canonical(adj, n)
            group = AutomorphismGroup(
                nodes=tuple(range(n)),
                perms=automorphisms_from_perms(cperms, n),
            )
            firsts.append(group.orbit_representatives())
        masks, final = batch_min_edge_mask(matrix, n, firsts, np)
        for g, adj in enumerate(matrix.tolist()):
            mask, perm = min_edge_mask(adj, n, first_candidates=firsts[g])
            assert int(masks[g]) == mask
            # Scalar keeps the *last* minimizing assignment; so must we.
            assert tuple(final[g].tolist()) == perm

    def test_orbit_minimal_subsets_matches_scalar_filter(self):
        np = numpy_or_none()
        for m in range(0, 6):
            bits = subset_bit_matrix(m, np)
            for sigma_tuple in (
                (),
                (tuple(range(m))[::-1],) if m else (),
                tuple(permutations(range(m)))[:3] if m else (),
            ):
                sigma = (
                    np.array(sigma_tuple, dtype=np.int64)
                    if sigma_tuple
                    else np.zeros((0, m), dtype=np.int64)
                )
                keep = orbit_minimal_subsets(bits, sigma, np)
                for s in range(1 << m):
                    minimal = all(
                        sum(
                            ((s >> i) & 1) << sig[i] for i in range(m)
                        )
                        >= s
                        for sig in sigma_tuple
                    )
                    assert bool(keep[s]) == minimal


@needs_numpy
class TestLevelBuildParity:
    def test_batched_levels_identical_to_scalar(self):
        np = numpy_or_none()
        scalar = _scalar_levels(7)
        for k in range(2, 8):
            assert _build_level_batched(k, scalar[k - 1], np) == scalar[k]

    def test_batched_bipartite_levels_are_the_filtered_full_levels(self):
        np = numpy_or_none()
        full = _scalar_levels(7)
        pruned = _scalar_levels(7, bipartite=True)
        for k in range(2, 8):
            assert _build_level_batched(k, pruned[k - 1], np, bipartite=True) == (
                _bipartite_entries(full[k], k)
            )

    def test_generation_supported_bounds(self):
        assert generation_supported(1)
        assert generation_supported(MAX_GENERATION_NODES)
        assert not generation_supported(MAX_GENERATION_NODES + 1)


class TestBipartiteLevelBuild:
    def test_scalar_bipartite_levels_are_the_filtered_full_levels(self):
        # Entry for entry — rows and automorphism tuples — the pruned
        # tree is the bipartite subsequence of the full one.
        full = _scalar_levels(7)
        pruned = _scalar_levels(7, bipartite=True)
        for k in range(1, 8):
            assert pruned[k] == _bipartite_entries(full[k], k)
            assert pruned[k]


def _emission_stream(n: int, connected_only: bool, kernel: str):
    """(edges, seeded automorphisms) per emitted graph, in stream order."""
    from repro.perf.config import CONFIG  # noqa: PLC0415

    clear_orderly_cache()
    clear_automorphism_cache()
    with CONFIG.overridden(kernel=kernel):
        return [
            (tuple(g.edges), automorphism_group(g).perms)
            for g in orderly_graphs_exactly(n, connected_only=connected_only)
        ]


class TestEmissionParity:
    @needs_numpy
    @pytest.mark.parametrize("connected_only", [False, True])
    def test_stream_byte_identical_to_scalar_up_to_7(self, connected_only):
        counts = CONNECTED_COUNTS if connected_only else ALL_COUNTS
        for n in range(1, 8):
            scalar = _emission_stream(n, connected_only, "off")
            batched = _emission_stream(n, connected_only, "auto")
            assert batched == scalar
            assert len(batched) == counts[n - 1]

    @needs_numpy
    def test_oeis_counts_on_kernel_route(self):
        from repro.perf.config import CONFIG  # noqa: PLC0415

        with CONFIG.overridden(kernel="auto"):
            for n in range(1, 8):
                assert count_classes(n) == ALL_COUNTS[n - 1]
                assert (
                    count_classes(n, connected_only=True)
                    == CONNECTED_COUNTS[n - 1]
                )

    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("kernel", ["auto", "off"])
    def test_both_routes_match_the_legacy_walk_up_to_6(self, kernel, connected_only):
        """Either kernel mode emits exactly the edge-subset walk's
        representatives, in its order."""
        for n in range(1, 7):
            emitted = [
                edges for edges, _ in _emission_stream(n, connected_only, kernel)
            ]
            legacy = [tuple(g.edges) for g in reference_graphs(n, connected_only)]
            assert emitted == legacy

    def test_disabled_numpy_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert numpy_or_none() is None
        for n in range(1, 7):
            stream = _emission_stream(n, True, "auto")
            assert len(stream) == CONNECTED_COUNTS[n - 1]

    @needs_numpy
    def test_levels_memoized_identically_across_routes(self, monkeypatch):
        # A level built by the kernel then read under the fallback (or
        # vice versa) must be indistinguishable: same memoized tuples.
        batched = {k: _level(k) for k in range(1, 7)}
        clear_orderly_cache()
        monkeypatch.setenv(DISABLE_ENV, "1")
        for k in range(1, 7):
            assert _level(k) == batched[k]


class TestKernelLabelingLimit:
    @needs_numpy
    def test_raised_limit_content_parity(self):
        # 16^4 = 65,536 > the 20,000 scalar cap: only the raised limit
        # admits the exhaustive unanimity pass.  Admitting it through
        # kernel_labeling_limit must decide exactly what a plainly
        # raised labeling_limit decides.
        def sweep(**kwargs):
            clear_engine_state()
            plan = ExecutionPlan(
                backend="streaming",
                workers=0,
                early_exit=False,
                warm_start=False,
                memory_cache=False,
                disk_cache=False,
                **kwargs,
            )
            return decide_hiding(EvenCycleLCP(), 4, plan)

        raised = sweep(labeling_limit=20_000, kernel_labeling_limit=70_000)
        plain = sweep(labeling_limit=70_000)
        assert raised.decision_fingerprint() == plain.decision_fingerprint()
        assert raised.provenance.kernel == "batch"

    @needs_numpy
    def test_normalized_away_on_non_vectorized_plans(self):
        """The raised limit is a no-op on ``kernel="off"`` plans (full or
        early-exit sweeps), so resolve drops it there."""
        for early_exit in (False, True):
            scalar = ExecutionPlan(
                early_exit=early_exit, kernel="off", kernel_labeling_limit=70_000
            ).resolve()
            assert scalar.kernel_labeling_limit is None
            batch = ExecutionPlan(
                early_exit=early_exit, kernel="auto", kernel_labeling_limit=70_000
            ).resolve()
            assert batch.kernel_labeling_limit == 70_000
            assert "kernel_labeling_limit=70000" in batch.describe()
        # A raise that is not actually a raise is normalized away too.
        lowered = ExecutionPlan(kernel_labeling_limit=10).resolve()
        assert lowered.kernel_labeling_limit is None

    def test_invalid_raised_limit_rejected(self):
        with pytest.raises(ValueError, match="kernel_labeling_limit"):
            ExecutionPlan(kernel_labeling_limit=0).resolve()

    def test_generation_kernel_on_requires_numpy(self, monkeypatch):
        """The kernels need numpy: without it ``"auto"`` resolves to
        ``"off"``, and with it ``"auto"`` stays."""
        assert ExecutionPlan(kernel="off").resolve().kernel == "off"
        expected = "auto" if HAVE_NUMPY else "off"
        assert ExecutionPlan(kernel="auto").resolve().kernel == expected
        monkeypatch.setenv(DISABLE_ENV, "1")
        assert ExecutionPlan(kernel="auto").resolve().kernel == "off"
        assert ExecutionPlan().resolve().kernel == "off"

    def test_invalid_generation_kernel_rejected(self):
        for mode in ("on", "sometimes"):
            with pytest.raises(ValueError, match="known: auto, off"):
                ExecutionPlan(kernel=mode).resolve()

