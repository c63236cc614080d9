"""Property suite: the generation kernel is byte-identical to the scalar path.

The batched canonicalization and orderly-generation kernels of
:mod:`repro.kernel.generate` are pure accelerations: for every
isomorphism class up to ``n = 7`` the vectorized canonical key, the
minimizing-assignment order (hence the packed automorphism blocks), the
level build, and the emission stream must match the scalar
``colex_canonical`` / ``min_edge_mask`` / ``_build_level`` reference
bit for bit.  OEIS A000088 / A001349 pin the class counts so a parity
bug that drops or duplicates classes on *both* routes cannot hide.

Both routes are also pinned to the edge-subset walk of the test oracle
up to ``n = 6``; :func:`tests.oracle.kernel_route` reaches the scalar one
in a sweep.  The suite covers the route seams too: the rejection of the
retired kernel knobs, and kernel/reference parity at a labeling limit
only the kernel route used to admit.
"""

from __future__ import annotations

import hashlib
import random
from itertools import permutations
from math import factorial
from unittest import mock

import numpy as np
import pytest

from repro.core.even_cycle import EvenCycleLCP
from repro.engine import ExecutionPlan, clear_engine_state, decide_hiding
from repro.engine.backends import disk_key, family_key
from repro.graphs.graph import Graph
from repro.graphs.properties import is_bipartite
from repro.kernel.generate import (
    MAX_GENERATION_NODES,
    batch_colex_canonical,
    batch_colex_core,
    batch_min_edge_mask,
    generation_supported,
    isolated_arrangements,
    lowest_isolated_subsets,
    orbit_minimal_subsets,
    subset_bit_matrix,
)
from repro.perf import configure
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
    level_entries,
    orderly_graphs_exactly,
    pack_perms,
    unpack_perms,
)

from .oracle import kernel_route, reference_graphs

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
    levels = {1: (((0,), b"\x00"),)}
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


def _class_matrices(n: int):
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


class TestBatchCanonicalization:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_colex_matches_scalar_including_perm_order(self, n):
        matrix = _class_matrices(n)
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
        matrix = _class_matrices(n)
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


def _with_isolated(core, n: int, rng):
    """*core* (adjacency rows of a graph without isolated nodes) plus
    ``n - len(core)`` isolated nodes, all relabeled at random."""
    labels = list(range(n))
    rng.shuffle(labels)
    rows = [0] * n
    for u, row in enumerate(core):
        for v in range(len(core)):
            if row >> v & 1:
                rows[labels[u]] |= 1 << labels[v]
    return rows


class TestIsolatedNodes:
    """The batched colex search canonicalizes a graph's non-isolated core
    only and rebuilds the isolated nodes' ``z!`` arrangements exactly."""

    def test_arrangements_are_itertools_permutations(self):
        for z in range(0, 8):
            assert isolated_arrangements(z, np).tolist() == [
                list(pi) for pi in permutations(range(z))
            ]

    def test_clear_orderly_cache_drops_arrangements(self):
        isolated_arrangements(5, np)
        assert isolated_arrangements.cache_info().currsize > 0
        clear_orderly_cache()
        assert isolated_arrangements.cache_info().currsize == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_colex_matches_scalar_with_isolated_nodes(self, n):
        rng = random.Random(n)
        levels = _scalar_levels(n - 2)
        graphs = [[0] * n]  # edgeless: n! tying assignments (8! at n = 8)
        for z in range(2, n):
            cores = [rows for rows, _ in levels[n - z] if all(rows)]
            for rows in rng.sample(cores, min(4, len(cores))):
                graphs.append(_with_isolated(rows, n, rng))
        matrix = np.array(graphs, dtype=np.int64)
        perms, gid = batch_colex_canonical(matrix, n, np)
        core, core_gid = batch_colex_core(matrix, n, np)
        bounds = np.searchsorted(gid, np.arange(len(matrix) + 1))
        core_bounds = np.searchsorted(core_gid, np.arange(len(matrix) + 1))
        for g, adj in enumerate(graphs):
            _, scalar_perms = colex_canonical(adj, n)
            batched = tuple(map(tuple, perms[bounds[g] : bounds[g + 1]].tolist()))
            assert batched == scalar_perms
            # The core search keeps one arrangement in z!.
            z = adj.count(0)
            assert (core_bounds[g + 1] - core_bounds[g]) * factorial(z) == len(batched)

    def test_product_rule_matches_the_full_group_filter(self):
        for bipartite, top in ((False, 7), (True, 8)):
            clear_orderly_cache()
            for m in range(2, top + 1):
                bits = subset_bit_matrix(m, np)
                for rows, auts in level_entries(m, bipartite):
                    isolated = [v for v, row in enumerate(rows) if not row]
                    if len(isolated) < 2:
                        continue
                    group = np.frombuffer(auts, np.uint8).reshape(-1, m).astype(np.int64)
                    core = group[: len(group) // factorial(len(isolated))]
                    # The leading rows are the pointwise stabilizer.
                    assert (core[:, isolated] == isolated).all()
                    factored = orbit_minimal_subsets(bits, core[1:], np)
                    factored &= lowest_isolated_subsets(bits, isolated, np)
                    full = orbit_minimal_subsets(bits, group[1:], np)
                    assert (factored == full).all()

    def test_level_bytes_are_pinned(self):
        """Every ``(rows, automorphism block)`` byte of the bipartite levels
        up to 9 and the full levels up to 8, hashed as computed before the
        isolated nodes were factored out of the search."""

        def digest(bipartite: bool, top: int) -> str:
            h = hashlib.sha256()
            for n in range(1, top + 1):
                for rows, auts in level_entries(n, bipartite):
                    h.update(f"{n}:{','.join(map(str, rows))}:{len(auts)}:".encode())
                    h.update(auts)
            return h.hexdigest()

        assert digest(True, 9) == (
            "edf24a6da307f7952411840cfda07e74364f9b84d036466b44be8e523750486f"
        )
        assert digest(False, 8) == (
            "ccd31df7435fa24de09164498e3e8f1117992348fc5ad57ca9660759dc2edd0b"
        )


class TestLevelBuildParity:
    def test_batched_levels_identical_to_scalar(self):
        scalar = _scalar_levels(7)
        for k in range(2, 8):
            assert _build_level_batched(k, scalar[k - 1]) == scalar[k]

    def test_batched_bipartite_levels_are_the_filtered_full_levels(self):
        full = _scalar_levels(7)
        pruned = _scalar_levels(7, bipartite=True)
        for k in range(2, 8):
            assert _build_level_batched(k, pruned[k - 1], bipartite=True) == (
                _bipartite_entries(full[k], k)
            )

    def test_generation_supported_bounds(self):
        assert generation_supported(1)
        assert generation_supported(MAX_GENERATION_NODES)
        assert not generation_supported(MAX_GENERATION_NODES + 1)


def _route_levels(n: int, bipartite: bool, route: str):
    """Levels 1..n built strictly by one route from the level-1 literal."""
    if route == "scalar":
        return _scalar_levels(n, bipartite)
    levels = {1: _scalar_levels(1)[1]}
    for k in range(2, n + 1):
        levels[k] = _build_level_batched(k, levels[k - 1], bipartite)
    return levels


def _union_find_orbits(perms, n: int):
    """Orbits by union-find over every permutation: the oracle for the
    column-minimum :meth:`AutomorphismGroup.orbits`."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in perms:
        for v in range(n):
            rv, ri = find(v), find(sigma[v])
            if rv != ri:
                parent[ri] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    # A union-find root need not be its orbit's smallest member: order
    # the orbits by smallest member, the documented contract.
    return tuple(sorted(tuple(members) for members in groups.values()))


class TestPackedAutomorphisms:
    """Every level entry keeps its class's group as one ``bytes`` block:
    row-major permutations, a byte per image, identity first, in
    ``automorphisms_from_perms`` order."""

    @pytest.mark.parametrize("bipartite", [False, True])
    @pytest.mark.parametrize("route", ["scalar", "batched"])
    def test_level_blocks_pack_the_class_group(self, route, bipartite):
        levels = _route_levels(7, bipartite, route)
        for n in range(1, 8):
            assert levels[n]
            for rows, auts in levels[n]:
                assert type(auts) is bytes
                assert len(auts) % n == 0
                perms = unpack_perms(auts, n)
                assert perms[0] == tuple(range(n))
                assert all(sorted(sigma) == list(range(n)) for sigma in perms)
                _, minimizers = colex_canonical(list(rows), n)
                assert auts == pack_perms(automorphisms_from_perms(minimizers, n))

    def test_orbits_match_the_union_find_oracle(self):
        assert AutomorphismGroup(nodes=(), perms=((),)).orbits() == ()
        levels = _scalar_levels(7)
        for n in range(1, 8):
            for _, auts in levels[n]:
                perms = unpack_perms(auts, n)
                group = AutomorphismGroup(nodes=tuple(range(n)), perms=perms)
                assert group.orbits() == _union_find_orbits(perms, n)


class TestBipartiteLevelBuild:
    def test_scalar_bipartite_levels_are_the_filtered_full_levels(self):
        # Entry for entry — rows and automorphism blocks — the pruned
        # tree is the bipartite subsequence of the full one.
        full = _scalar_levels(7)
        pruned = _scalar_levels(7, bipartite=True)
        for k in range(1, 8):
            assert pruned[k] == _bipartite_entries(full[k], k)
            assert pruned[k]


def _emission_stream(n: int, connected_only: bool, kernel: str):
    """(edges, seeded automorphisms) per emitted graph, in stream order."""
    clear_orderly_cache()
    clear_automorphism_cache()
    with kernel_route(kernel):
        return [
            (tuple(g.edges), automorphism_group(g).perms)
            for g in orderly_graphs_exactly(n, connected_only=connected_only)
        ]


class TestEmissionParity:
    @pytest.mark.parametrize("connected_only", [False, True])
    def test_stream_byte_identical_to_scalar_up_to_7(self, connected_only):
        counts = CONNECTED_COUNTS if connected_only else ALL_COUNTS
        for n in range(1, 8):
            scalar = _emission_stream(n, connected_only, "off")
            batched = _emission_stream(n, connected_only, "auto")
            assert batched == scalar
            assert len(batched) == counts[n - 1]

    def test_oeis_counts_on_kernel_route(self):
        for n in range(1, 8):
            assert count_classes(n) == ALL_COUNTS[n - 1]
            assert count_classes(n, connected_only=True) == CONNECTED_COUNTS[n - 1]

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

    def test_levels_memoized_identically_across_routes(self):
        # A level built by the kernel then read on the scalar route (or
        # vice versa) must be indistinguishable: same memoized tuples.
        batched = {k: _level(k) for k in range(1, 7)}
        clear_orderly_cache()
        with kernel_route("off"):
            for k in range(1, 7):
                assert _level(k) == batched[k]


class TestKernelLabelingLimit:
    """The labeling limit is one bound for both routes: the kernel route
    admits exactly what the reference loops admit, and no plan or config
    field selects the route."""

    def test_raised_limit_content_parity(self):
        # 16^4 = 65,536 > the default 20,000 cap: only a raised
        # labeling_limit admits the exhaustive unanimity pass.  The
        # numpy join and the reference loops must then decide identically.
        def sweep():
            clear_engine_state()
            plan = ExecutionPlan(
                backend="streaming",
                early_exit=False,
                warm_start=False,
                memory_cache=False,
                disk_cache=False,
                labeling_limit=70_000,
            )
            return decide_hiding(EvenCycleLCP(), 4, plan)

        batch = sweep()
        with kernel_route("off"):
            scalar = sweep()
        assert batch.decision_fingerprint() == scalar.decision_fingerprint()
        assert (
            batch.provenance.instances_scanned == scalar.provenance.instances_scanned
        )

    def test_normalized_away_on_non_vectorized_plans(self):
        """The route is not part of a plan: a plan resolves, describes
        itself and keys every cache tier identically on either route."""
        lcp = EvenCycleLCP()

        def identity():
            plan = ExecutionPlan(labeling_limit=70_000).resolve()
            return plan, plan.describe(), family_key(lcp, plan), disk_key(lcp, 4, plan)

        with_numpy = identity()
        with kernel_route("off"):
            assert identity() == with_numpy
        assert "kernel" not in with_numpy[1]

    def test_generation_kernel_on_requires_numpy(self):
        """Orderly generation builds its levels with the batched kernel
        exactly when ``generation_supported`` holds: always up to 11
        nodes, never on the scalar reference route."""
        from repro.symmetry import orderly  # noqa: PLC0415

        def batched_builds() -> int:
            clear_orderly_cache()
            with mock.patch.object(
                orderly, "_build_level_batched", wraps=_build_level_batched
            ) as batched:
                assert count_classes(5) == ALL_COUNTS[4]
            return batched.call_count

        assert batched_builds() > 0
        with kernel_route("off"):
            assert batched_builds() == 0

    def test_invalid_generation_kernel_rejected(self):
        """The kernel route is not a knob: neither the plan nor the
        session config takes a ``kernel`` field, whatever its value."""
        for mode in ("auto", "off", "on"):
            with pytest.raises(TypeError, match="kernel"):
                ExecutionPlan(kernel=mode)
            with pytest.raises(TypeError, match="kernel"):
                configure(kernel=mode)

    def test_invalid_raised_limit_rejected(self):
        """``labeling_limit`` is the one admission bound; no plan takes a
        second, kernel-only one."""
        with pytest.raises(TypeError, match="kernel_labeling_limit"):
            ExecutionPlan(kernel_labeling_limit=70_000)
