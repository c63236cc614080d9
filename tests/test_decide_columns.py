"""Bulk decisions: :meth:`Decoder.decide_columns` against ``decide``.

The acceptance tables of the unanimity join (:mod:`repro.kernel.tables`)
decide their fresh entries through ``decide_columns``.  The degree-one,
even-cycle and union decoders answer it with numpy column operations;
the scalar ``decide`` stays the definition.  These tests hold every
override to it row by row: on every view template of ``V(D, 5)`` and the
radius-2 templates of ``V(D, 4)``, on the schemes' alphabets, their
prefixes, and alphabets mixing in symbols foreign to the scheme.
"""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np
import pytest

from repro.certification.decoder import FunctionDecoder
from repro.certification.enumeration import unanimously_accepted_labelings
from repro.certification.lcp import parametrized
from repro.core.degree_one import DegreeOneDecoder
from repro.core.even_cycle import EvenCycleDecoder
from repro.core.registry import make_lcp
from repro.core.union import UnionDecoder
from repro.engine import ExecutionPlan, decide_hiding
from repro.graphs import cycle_graph, path_graph, star_graph
from repro.kernel import clear_kernel_tables
from repro.local.instance import Instance
from repro.local.labeling import labeling_key, node_sort_order
from repro.local.views import view_with_labels
from repro.perf import PerfStats

from .oracle import reference_unanimous_labelings

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: Symbols no scheme issues, mixed with look-alikes of real ones: numbers
#: equal to a color, tuples of the wrong shape or tag, a malformed edge
#: certificate whose entries only compare equal to valid ones.
FOREIGN = (
    "far",
    ("d1", 1),
    True,
    1.0,
    None,
    ("H1",),
    ("H3", 0),
    ("H1", "top"),
    ("H2", ((1, 0), (2, 1))),
    ((1, 0), (2, 1)),
    ((True, 0), (2, 1.0)),
    ((1, 0), (3, 1)),
)


@cache
def templates() -> tuple:
    """The distinct label-free templates of the full ``V(D, 5)`` of each
    column-decided scheme, and of its radius-2 ``V(D, 4)``."""
    plan = ExecutionPlan(early_exit=False, disk_cache=False)
    found = {}
    for scheme in ("degree-one", "even-cycle", "union"):
        for lcp, n in ((make_lcp(scheme), 5), (parametrized(make_lcp(scheme), radius=2), 4)):
            for view in decide_hiding(lcp, n, plan).ngraph.views:
                found.setdefault(view.unlabeled(), None)
    return tuple(found)


def _decoders() -> dict:
    return {
        "degree-one": (DegreeOneDecoder(), "degree-one"),
        "degree-one-weakened": (DegreeOneDecoder(require_common_beta=False), "degree-one"),
        "even-cycle": (EvenCycleDecoder(), "even-cycle"),
        "union": (UnionDecoder(), "union"),
    }


DECODERS = _decoders()


def _alphabet(scheme: str) -> tuple:
    return tuple(make_lcp(scheme).certificate_alphabet(path_graph(2)))


def _row_wise(decoder, template, alphabet, digits) -> np.ndarray:
    return np.array(
        [
            decoder.decide(view_with_labels(template, tuple(alphabet[d] for d in row)))
            for row in digits.tolist()
        ],
        dtype=bool,
    )


def _assert_columns_match(decoder, template, alphabet, digits) -> None:
    got = decoder.decide_columns(template, alphabet, digits)
    want = _row_wise(decoder, template, alphabet, digits)
    assert got.dtype == bool and got.shape == (len(digits),)
    mismatch = np.flatnonzero(got != want)
    assert not len(mismatch), (decoder.name, template, digits[mismatch[:3]].tolist())


def _all_rows(a: int, m: int) -> np.ndarray:
    return np.array(list(itertools.product(range(a), repeat=m)), dtype=np.int64).reshape(-1, m)


def test_templates_cover_both_radii_and_every_degree():
    found = templates()
    assert {t.radius for t in found} == {1, 2}
    assert {t.center_degree for t in found} >= {1, 2, 3}
    assert len(found) == 42


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_prefixes_of_the_alphabet_decide_as_the_scalar_rule(name):
    """Prefixes an ``alphabet_limit`` can cut, on every template:
    exhaustively where the space is small, else on a seeded sample."""
    decoder, scheme = DECODERS[name]
    alphabet = _alphabet(scheme)
    a = len(alphabet)
    rng = np.random.default_rng(7)
    for cut in sorted({1, 2, 3, 4, 5, a // 2, a - 1, a} & set(range(1, a + 1))):
        prefix = alphabet[:cut]
        for template in templates():
            if cut**template.size <= 1_000:
                digits = _all_rows(cut, template.size)
            else:
                digits = rng.integers(0, cut, size=(300, template.size))
            _assert_columns_match(decoder, template, prefix, digits)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_mixed_foreign_alphabet_decides_as_the_scalar_rule(name):
    """Ints, strings, tuples of any shape, and values that only compare
    equal to the scheme's symbols, like the mixed alphabet of the
    decision-memo test."""
    decoder, scheme = DECODERS[name]
    for alphabet in ((0, "far", ("d1", 1)), _alphabet(scheme) + FOREIGN):
        rng = np.random.default_rng(len(alphabet))
        for template in templates():
            if len(alphabet) ** template.size <= 2_000:
                digits = _all_rows(len(alphabet), template.size)
            else:
                digits = rng.integers(0, len(alphabet), size=(500, template.size))
            _assert_columns_match(decoder, template, alphabet, digits)


def test_empty_block():
    for decoder, scheme in DECODERS.values():
        template = templates()[0]
        digits = np.zeros((0, template.size), dtype=np.int64)
        verdicts = decoder.decide_columns(template, _alphabet(scheme), digits)
        assert verdicts.dtype == bool and verdicts.shape == (0,)


class _Flipped(DegreeOneDecoder):
    def decide(self, view) -> bool:
        return not super().decide(view)


class _FlippedEvenCycle(EvenCycleDecoder):
    def decide(self, view) -> bool:
        return not super().decide(view)


class _FlippedUnion(UnionDecoder):
    def decide(self, view) -> bool:
        return not super().decide(view)


class _Renamed(UnionDecoder):
    """A subclass that keeps ``decide``: the column override still
    applies."""

    @property
    def name(self) -> str:
        return "renamed-union"


@pytest.mark.parametrize(
    "decoder, scheme",
    [(_Flipped(), "degree-one"), (_FlippedEvenCycle(), "even-cycle"), (_FlippedUnion(), "union")],
)
def test_subclass_redefining_decide_takes_the_base_loop(decoder, scheme, monkeypatch):
    alphabet = _alphabet(scheme)
    rng = np.random.default_rng(3)
    calls = []
    decide = type(decoder).decide
    monkeypatch.setattr(
        type(decoder), "decide", lambda self, view: calls.append(view) or decide(self, view)
    )
    for template in templates():
        digits = rng.integers(0, len(alphabet), size=(50, template.size))
        calls.clear()
        got = decoder.decide_columns(template, alphabet, digits)
        assert len(calls) == len(digits)
        assert (got == _row_wise(decoder, template, alphabet, digits)).all()


def test_subclass_keeping_decide_keeps_the_columns(monkeypatch):
    decoder = _Renamed()
    alphabet = _alphabet("union")
    monkeypatch.setattr(
        UnionDecoder, "decide", lambda self, view: pytest.fail("the row loop ran")
    )
    template = templates()[0]
    digits = np.zeros((4, template.size), dtype=np.int64)
    assert decoder.decide_columns(template, alphabet, digits).shape == (4,)


def test_base_loop_is_the_decide_loop():
    decoder = FunctionDecoder(lambda view: view.labels.count("x") % 2 == 1, anonymous=True)
    alphabet = ("x", "y", 3)
    for template in templates()[:10]:
        _assert_columns_match(decoder, template, alphabet, _all_rows(3, template.size)[:500])


@pytest.mark.parametrize(
    "decoder, scheme, graph",
    [
        (_Flipped(), "degree-one", path_graph(4)),
        (_FlippedEvenCycle(), "even-cycle", cycle_graph(3)),
        (_Renamed(), "union", path_graph(3)),
        (DegreeOneDecoder(require_common_beta=False), "degree-one", star_graph(4)),
    ],
)
def test_join_over_bulk_tables_matches_the_reference(decoder, scheme, graph):
    """The join fills its tables through ``decide_columns`` (columns or
    the base loop) and yields the labeling-by-labeling reference stream."""
    clear_kernel_tables()
    alphabet = make_lcp(scheme).certificate_alphabet(graph)
    base = Instance.build(graph)
    order = node_sort_order(graph)
    stats = PerfStats()
    streams = []
    for route in (reference_unanimous_labelings, unanimously_accepted_labelings):
        streams.append(
            [
                labeling_key(labeling, order)
                for labeling in route(
                    decoder, base, alphabet, 1, include_ids=False, seen=set(), stats=stats
                )
            ]
        )
    assert streams[0] == streams[1]
    assert stats.get("kernel_table_entries") > 0
    clear_kernel_tables()


if HAVE_HYPOTHESIS:

    @given(
        name=st.sampled_from(sorted(DECODERS)),
        pool=st.sampled_from(["full", "first-block", "last-block", "foreign"]),
        rows=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decide_columns_matches_decide_on_drawn_rows(name, pool, rows, seed):
        """Random rows for every template.  Rows drawn from one block of
        the alphabet (union: one tag; even-cycle: certificates sharing
        a first entry) accept far more often than uniform ones, so both
        verdicts are exercised."""
        decoder, scheme = DECODERS[name]
        alphabet = _alphabet(scheme)
        a = len(alphabet)
        symbols = {
            "full": range(a),
            "first-block": range(min(4, a)),
            "last-block": range(4 if a > 4 else 0, a),
            "foreign": range(a + len(FOREIGN)),
        }[pool]
        if pool == "foreign":
            alphabet = alphabet + FOREIGN
        rng = np.random.default_rng(seed)
        choices = np.array(symbols, dtype=np.int64)
        for template in templates():
            digits = rng.choice(choices, size=(rows, template.size))
            _assert_columns_match(decoder, template, alphabet, digits)
