"""The disk tier's codec: shape- and label-interned bodies, the payload
digest, and the strict decoder.

* ``Verdict.digest()`` equals the SHA-256 of the oracle's inline
  serialization (``tests/oracle.py: reference_fingerprint``) on fresh,
  memory-hit, disk-reloaded and traced verdicts, and the digest a write
  computes from its payload equals the one a reload computes from the
  parsed payload — without either calling ``decision_fingerprint``.
* The fragment-assembled fingerprint bytes equal the oracle's for
  arbitrary mixed-type labels, with and without identifiers.
* ``encode_label(decode_label(p)) == p`` for every encoded label, and
  interning never merges labels that compare equal but encode
  differently (``1`` / ``True`` / ``1.0``).
* A body the strict decoder, the certificate check or the checksum
  rejects is a miss followed by a correct fresh verdict that overwrites
  the entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
from functools import cache

import pytest

from repro.core.registry import make_lcp, scheme_names
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.engine.backends import disk_key
from repro.engine.stores import _body_from_verdict, _verdict_from_body
from repro.engine.verdict import Verdict, fingerprint_bytes
from repro.local.views import View
from repro.perf import PerfStats, overridden, persist
from repro.perf.persist import (
    MalformedEntry,
    decode_label,
    decode_views,
    default_verdict_cache,
    encode_label,
    encode_views,
)

from .oracle import reference_fingerprint, reference_fingerprint_bytes

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@pytest.fixture(autouse=True)
def _fresh_engine_state():
    clear_engine_state()
    yield
    clear_engine_state()


def _reference(verdict: Verdict) -> str:
    return hashlib.sha256(reference_fingerprint(verdict)).hexdigest()[:32]


def _plan(**overrides) -> ExecutionPlan:
    fields = {"disk_cache": True, "memory_cache": True}
    fields.update(overrides)
    return ExecutionPlan(**fields)


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Counts ``Verdict.decision_fingerprint`` calls."""
    calls = []
    original = Verdict.decision_fingerprint

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Verdict, "decision_fingerprint", counting)
    return calls


# ----------------------------------------------------------------------
# Digest parity across every cache tier
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("early_exit", [True, False])
@pytest.mark.parametrize("scheme", scheme_names())
def test_digest_matches_fingerprint_on_every_tier(
    tmp_path, fingerprint_calls, scheme, early_exit, k
):
    lcp = make_lcp(scheme)
    plan = _plan(early_exit=early_exit)
    with overridden(disk_cache_dir=str(tmp_path)):
        ctx = RunContext.isolated()
        fresh = decide_hiding(lcp, 4, plan, k=k, ctx=ctx)
        assert fresh.provenance.disk_cache_hit is False
        written = fresh.digest()
        memo = decide_hiding(lcp, 4, plan, k=k, ctx=ctx)
        assert memo is fresh
        reloaded = decide_hiding(lcp, 4, plan, k=k, ctx=RunContext.isolated())
        assert reloaded.provenance.disk_cache_hit is True
        read = reloaded.digest()
        traced_ctx = RunContext.observed()
        traced = decide_hiding(lcp, 4, plan, k=k, ctx=traced_ctx)
        assert traced.provenance.trace_id == traced_ctx.tracer.trace_id
        # The provenance-only stamp carried the payload digest over.
        assert traced._digest == read
    # Writes and reloads took their digests from the payload.
    assert fingerprint_calls == []
    assert written == read == traced.digest()
    for verdict in (fresh, reloaded, traced):
        assert verdict.decision_fingerprint() == reference_fingerprint(verdict)
        assert verdict.digest() == _reference(verdict) == written


def test_campaign_fingerprints_use_the_payload_digest(tmp_path, fingerprint_calls):
    """A campaign written and then reloaded never calls
    ``decision_fingerprint``, and both runs agree cell for cell."""
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec.sweep(
        ("even-cycle", "revealing", "watermelon"),
        n_min=3,
        n_max=4,
        k_values=(2, 3),
        plan=ExecutionPlan(disk_cache=True),
    )
    with overridden(disk_cache_dir=str(tmp_path)):
        first = run_campaign(spec, ctx=RunContext.isolated())
        clear_engine_state()  # what a fresh process starts from
        second = run_campaign(spec, ctx=RunContext.isolated())
    assert fingerprint_calls == []
    assert all(r.provenance["disk_cache_hit"] for r in second.results)
    assert [r.fingerprint for r in first.results] == [
        r.fingerprint for r in second.results
    ]


def test_body_round_trips_through_the_strict_decoder():
    """``encode(decode(body)) == body`` for real verdict bodies, and the
    decoded graph shares one label object per distinct label and one
    set of shape tuples per distinct shape."""
    for scheme in ("watermelon", "union", "shatter"):
        lcp = make_lcp(scheme)
        fresh = decide_hiding(
            lcp, 4, ExecutionPlan(early_exit=False), ctx=RunContext.isolated()
        )
        body = json.loads(json.dumps(_body_from_verdict(fresh)))
        assert len(body["shapes"]) < len(body["views"]) == len(body["view_shapes"])
        decoded = _verdict_from_body({"n": 4}, body)
        assert decoded.ngraph.views == fresh.ngraph.views
        assert _body_from_verdict(decoded) == body
        assert decoded.digest() == _reference(decoded) == _reference(fresh)
        views = decoded.ngraph.views
        labels = [label for view in views for label in view.labels]
        assert len({id(label) for label in labels}) <= len(body["labels"])
        for name in persist.SHAPE_FIELDS[1:5]:
            assert len({id(getattr(view, name)) for view in views}) <= len(body["shapes"])


# ----------------------------------------------------------------------
# The label codec
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    _PRIMITIVES = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False),
        st.text(max_size=4),
    )
    _HASHABLE = st.recursive(
        _PRIMITIVES,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(tuple),
            st.frozensets(children, max_size=3),
        ),
        max_leaves=12,
    )
    _LABELS = st.recursive(
        _HASHABLE,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(tuple),
            st.lists(children, max_size=3),
        ),
        max_leaves=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(_LABELS)
    def test_label_codec_round_trips(label):
        payload = encode_label(label)
        assert encode_label(decode_label(payload)) == payload
        parsed = json.loads(json.dumps(payload))
        assert encode_label(decode_label(parsed)) == parsed == payload

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_HASHABLE, min_size=1, max_size=6))
    def test_label_table_round_trips(labels):
        views = [_view(labels), _view(labels[::-1]), _view(labels, ids=True)]
        encoded = encode_views(views)
        assert len(encoded[0]) <= len(labels)
        assert len(encoded[1]) <= 2
        parsed = json.loads(json.dumps(encoded))
        assert encode_views(decode_views(*parsed)) == encoded

    _DECISIONS = st.tuples(
        st.lists(st.lists(_LABELS, min_size=1, max_size=4), min_size=1, max_size=5),
        st.lists(st.booleans(), min_size=5, max_size=5),
        st.sampled_from([True, False, None]),
        st.integers(min_value=2, max_value=4),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    )

    @settings(max_examples=200, deadline=None)
    @given(_DECISIONS)
    def test_assembled_fingerprint_equals_the_inline_serialization(decision):
        """Mixed-type labels (``1``/``True``/``1.0``, tuples, lists,
        frozensets, non-ASCII text), anonymous and identified views,
        views that share a shape: the bytes assembled from the interned
        encoding — fresh, and after a JSON round trip as the disk tier
        parses it — equal the oracle's one ``json.dumps``."""
        label_lists, with_ids, hiding, k, walk = decision
        views = [_view(labels, ids=flag) for labels, flag in zip(label_lists, with_ids)]
        views += [_view(labels[::-1], ids=False) for labels in label_lists]
        walk = [i % len(views) for i in walk]
        edges = [[i, i + 1] for i in range(len(views) - 1)]
        coloring = [[i, i % 2] for i in range(len(views))]
        expected = reference_fingerprint_bytes(
            k, hiding, [views[i] for i in walk], views, edges, coloring
        )
        encoded = encode_views(views)
        assert fingerprint_bytes(k, hiding, encoded, walk, edges, coloring) == expected
        parsed = json.loads(json.dumps(encoded))
        assert fingerprint_bytes(k, hiding, parsed, walk, edges, coloring) == expected


def _view(labels, ids: bool = False) -> View:
    count = len(labels)
    return View(
        radius=1,
        dist=(0,) + (1,) * (count - 1),
        edges=tuple((0, i) for i in range(1, count)),
        ports=tuple((i, 1) for i in range(1, count)),
        ids=tuple(range(7, 7 + count)) if ids else None,
        id_bound=count + 7 if ids else None,
        labels=tuple(labels),
    )


def test_interning_keeps_equal_labels_of_different_types_apart():
    labels = (1, True, 1.0, ("a", 1), ("a", True), 1, ("a", 1), 0.0, -0.0)
    table, shapes, view_shapes, (indices,) = encode_views([_view(labels)])
    assert table == [1, True, 1.0, {"t": ["a", 1]}, {"t": ["a", True]}, 0.0, -0.0]
    assert indices == [0, 1, 2, 3, 4, 0, 3, 5, 6]
    assert view_shapes == [0] and len(shapes) == 1
    (view,) = decode_views(*json.loads(json.dumps([table, shapes, view_shapes, [indices]])))
    assert [type(label) for label in view.labels[:3]] == [int, bool, float]
    assert type(view.labels[4][1]) is bool
    assert view.labels[0] is view.labels[5]
    assert str(view.labels[8]) == "-0.0"


def test_interning_shares_shapes_by_identity_and_by_value():
    """Clones of one template share its tuples and one shape slot; an
    equal shape built separately lands in the same slot."""
    template = _view((None, None, None))
    clone = View(*(getattr(template, name) for name in persist.SHAPE_FIELDS), ("a", "b", "c"))
    rebuilt = _view(("x", "y", "z"))
    other = _view(("x", "y"))
    assert rebuilt.dist is not template.dist
    _, shapes, view_shapes, _ = encode_views([template, clone, rebuilt, other])
    assert view_shapes == [0, 0, 0, 1]
    assert [len(shape["dist"]) for shape in shapes] == [3, 2]


@pytest.mark.parametrize(
    "payload",
    [
        {"x": [1]},
        {"t": [1], "l": [1]},
        {},
        {"t": "ab"},
        {"fs": [2, 1]},
        {"fs": [1, 1]},
        {"fs": [1, True]},
        {"fs": [{"l": [1]}]},
        [1, 2],
    ],
)
def test_strict_label_decoder_rejects(payload):
    with pytest.raises(MalformedEntry):
        decode_label(payload)


# ----------------------------------------------------------------------
# Malformed and corrupted entries are misses
# ----------------------------------------------------------------------


def _entry(tmp_path, scheme="union", n=4):
    """Decide once with the disk tier on; returns (lcp, plan, path,
    fresh verdict)."""
    lcp = make_lcp(scheme)
    plan = _plan(memory_cache=False).resolve()
    with overridden(disk_cache_dir=str(tmp_path)):
        fresh = decide_hiding(lcp, n, plan, ctx=RunContext.isolated())
        (path,) = (tmp_path / "hiding").glob("*.jsonl")
        assert default_verdict_cache()._path(disk_key(lcp, n, plan)) == path
    return lcp, plan, path, fresh


def _rewrite_body(path, mutate) -> None:
    """Replace the body with ``mutate(body)`` under a valid checksum, so
    only the strict decoder can reject it."""
    header_line, body_line = path.read_bytes().split(b"\n")[:2]
    header = json.loads(header_line)
    body = mutate(json.loads(body_line))
    line = json.dumps(body).encode()
    header["body_sha256"] = hashlib.sha256(line).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + line + b"\n")


def _expect_miss_then_fresh(tmp_path, lcp, plan, path, fresh, caplog):
    with overridden(disk_cache_dir=str(tmp_path)), caplog.at_level(logging.WARNING):
        ctx = RunContext.isolated()
        again = decide_hiding(lcp, 4, plan, ctx=ctx)
        assert ctx.stats.get("disk_misses") == 1
        assert ctx.stats.get("disk_hits") == 0
        assert again.provenance.disk_cache_hit is False
        assert again.digest() == fresh.digest()
        assert any(path.name in record.getMessage() for record in caplog.records)
        # The fresh verdict overwrote the entry: the next read is a hit.
        ctx = RunContext.isolated()
        served = decide_hiding(lcp, 4, plan, ctx=ctx)
    assert ctx.stats.get("disk_hits") == 1
    assert served.provenance.disk_cache_hit is True
    assert served.digest() == _reference(served) == fresh.digest()


def _set(field, value):
    def mutate(body):
        body[field] = value
        return body

    return mutate


def _drop(field):
    def mutate(body):
        del body[field]
        return body

    return mutate


def _first_label(value):
    def mutate(body):
        body["views"][0][0] = value
        return body

    return mutate


def _first_shape(field, value):
    def mutate(body):
        body["shapes"][0][field] = value
        return body

    return mutate


MALFORMED = {
    "only-hiding": lambda body: {"hiding": True},
    "missing-key": _drop("instances_scanned"),
    "extra-key": _set("witness", None),
    "view-extra-key": _first_shape("extra", 1),
    "unknown-label-tag": lambda body: {**body, "labels": [{"x": [1]}] + body["labels"][1:]},
    "multi-key-label-tag": lambda body: {
        **body,
        "labels": [{"t": [1], "l": [1]}] + body["labels"][1:],
    },
    "unsorted-frozenset": lambda body: {
        **body,
        "labels": [{"fs": ["b", "a"]}] + body["labels"][1:],
    },
    "label-index": _first_label(10_000),
    "negative-label-index": _first_label(-1),
    "boolean-label-index": _first_label(True),
    "edge-view-index": lambda body: {**body, "edges": [[0, len(body["views"])]]},
    "odd-cycle-index": _set("odd_cycle", [0, 10_000, 0]),
    "coloring-view-index": _set("coloring", [[10_000, 0]]),
    "unsorted-edges": lambda body: {**body, "edges": body["edges"][::-1]},
    "body-not-an-object": lambda body: [body],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_body_is_a_miss(tmp_path, caplog, case):
    lcp, plan, path, fresh = _entry(tmp_path)
    assert fresh.hiding is True and len(fresh.ngraph.edges) > 1
    _rewrite_body(path, MALFORMED[case])
    _expect_miss_then_fresh(tmp_path, lcp, plan, path, fresh, caplog)


@cache
def _body_text(scheme: str) -> str:
    fresh = decide_hiding(
        make_lcp(scheme), 4, ExecutionPlan(early_exit=False), ctx=RunContext.isolated()
    )
    return json.dumps(_body_from_verdict(fresh))


def _encoded_body(scheme: str) -> dict:
    """A fresh parse of the disk body of a full ``n = 4`` sweep."""
    return json.loads(_body_text(scheme))


def _in_place(change):
    """A mutation that applies *change* to the body and returns it."""

    def mutate(body):
        change(body)
        return body

    return mutate


def _shape_with_edges(body) -> dict:
    return next(shape for shape in body["shapes"] if shape["edges"])


def _swap_tables(table: str, column: str):
    """Swap the first two entries of *table* and renumber *column*: the
    same views, with the table out of first-use order."""

    def mutate(body):
        entries = body[table]
        entries[0], entries[1] = entries[1], entries[0]
        swap = {0: 1, 1: 0}
        if column == "view_shapes":
            body[column] = [swap.get(i, i) for i in body[column]]
        else:
            body[column] = [[swap.get(i, i) for i in row] for row in body[column]]
        return body

    return mutate


def _duplicate_view(body):
    body["view_shapes"].append(body["view_shapes"][0])
    body["views"].append(list(body["views"][0]))
    return body


def _duplicate_last_shape(body):
    body["shapes"].append(dict(body["shapes"][body["view_shapes"][-1]]))
    body["view_shapes"][-1] = len(body["shapes"]) - 1
    return body


def _duplicate_last_label(body):
    body["labels"].append(body["labels"][body["views"][-1][-1]])
    body["views"][-1][-1] = len(body["labels"]) - 1
    return body


def _set_edge(index: int, value):
    def mutate(body):
        _shape_with_edges(body)["edges"][0][index] = value
        return body

    return mutate


def _edge_endpoint_outside_view(body):
    shape = _shape_with_edges(body)
    shape["edges"][0][1] = len(shape["dist"])
    return body


def _color_all(color):
    def mutate(body):
        body["coloring"] = [[i, color(i)] for i in range(len(body["views"]))]
        return body

    return mutate


#: ``case -> (scheme, mutation, message)``: bodies the encoder never
#: writes, each on a real full ``n = 4`` body (degree-one is a ``k = 2``
#: hiding verdict with an odd closed walk, watermelon a non-hiding one
#: with a 2-coloring), and the rejection each must raise.
REJECTED = {
    "non-int-dist": (
        "degree-one",
        _in_place(lambda body: body["shapes"][0]["dist"].__setitem__(0, "0")),
        "malformed view shape",
    ),
    "string-edge-endpoint": ("degree-one", _set_edge(0, "x"), "view edges or ports"),
    "three-element-edge": (
        "degree-one",
        _in_place(lambda body: _shape_with_edges(body)["edges"][0].append(0)),
        "view edges or ports",
    ),
    "edge-endpoint-outside-view": (
        "degree-one",
        _edge_endpoint_outside_view,
        "view node index out of range",
    ),
    "fewer-labels-than-nodes": (
        "degree-one",
        _in_place(lambda body: body["views"][0].pop()),
        "label counts",
    ),
    "duplicated-view": ("degree-one", _duplicate_view, "duplicate views"),
    "hiding-false-without-coloring": (
        "degree-one",
        _set("hiding", False),
        "non-hiding verdict without a coloring",
    ),
    "duplicate-shape": ("degree-one", _duplicate_last_shape, "duplicate shape"),
    "shapes-not-in-first-use-order": (
        "degree-one",
        _swap_tables("shapes", "view_shapes"),
        "shape table is not in first-use order",
    ),
    "duplicate-label": ("degree-one", _duplicate_last_label, "duplicate label"),
    "labels-not-in-first-use-order": (
        "degree-one",
        _swap_tables("labels", "views"),
        "label table is not in first-use order",
    ),
    "hiding-with-coloring": (
        "degree-one",
        _color_all(lambda i: 0),
        "hiding verdict with a coloring",
    ),
    "k2-hiding-without-walk": (
        "degree-one",
        _set("odd_cycle", None),
        "without an odd closed walk",
    ),
    "even-walk": (
        "degree-one",
        lambda body: {**body, "odd_cycle": body["odd_cycle"] + body["odd_cycle"][1:]},
        "not an odd closed walk",
    ),
    "coloring-not-proper": ("watermelon", _color_all(lambda i: 0), "not proper"),
    "coloring-with-too-many-colors": ("watermelon", _color_all(lambda i: i), "more than 2 colors"),
    "coloring-misses-a-view": (
        "watermelon",
        _in_place(lambda body: body["coloring"].pop()),
        "cover every view",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_strict_decoder_rejects_bodies_the_encoder_never_writes(case):
    scheme, mutate, message = REJECTED[case]
    _verdict_from_body({"n": 4}, _encoded_body(scheme))  # the real body decodes
    with pytest.raises(MalformedEntry, match=message):
        _verdict_from_body({"n": 4}, mutate(_encoded_body(scheme)))


def _flip_label_byte(data: bytes) -> bytes:
    at = data.index(b'"top"', data.index(b"\n")) + 1
    return data[:at] + b"T" + data[at + 1 :]


def _truncate_body(data: bytes) -> bytes:
    return data[: data.index(b"\n") + (len(data) - data.index(b"\n")) // 2]


def _forge_not_hiding(data: bytes) -> bytes:
    header, body = data.split(b"\n", 1)
    assert b'"hiding":true' in body
    return header + b"\n" + body.replace(b'"hiding":true', b'"hiding":false', 1)


@pytest.mark.parametrize("fault", [_flip_label_byte, _truncate_body, _forge_not_hiding])
def test_checksum_turns_corruption_into_a_miss(tmp_path, caplog, fault):
    lcp, plan, path, fresh = _entry(tmp_path)
    path.write_bytes(fault(path.read_bytes()))
    _expect_miss_then_fresh(tmp_path, lcp, plan, path, fresh, caplog)


def test_unpersistable_labels_skip_the_store(tmp_path):
    """A label the codec cannot encode skips the write (``persist_skips``)
    instead of failing the decision."""
    from repro.engine.stores import DiskVerdictStore

    fresh = decide_hiding(
        make_lcp("union"), 4, ExecutionPlan(), ctx=RunContext.isolated()
    )
    view = fresh.ngraph.views[0]
    object.__setattr__(view, "labels", (object(),) + view.labels[1:])
    object.__setattr__(view, "_hash", None)
    stats = PerfStats()
    with overridden(disk_cache_dir=str(tmp_path)):
        assert DiskVerdictStore().store({"n": 4}, fresh, stats=stats) is False
    assert stats.get("persist_skips") == 1
    assert not (tmp_path / "hiding").exists()


def test_cache_stats_survives_hand_damaged_headers(tmp_path, capsys):
    """``repro cache stats`` counts headers that are JSON but not an
    object, or whose key is not an object, as stale instead of crashing."""
    from repro import cli

    entries = tmp_path / "hiding"
    entries.mkdir()
    for name, header in [("list", "[1,2]"), ("number", "7"), ("key", '{"key": 3}')]:
        (entries / f"{name}.jsonl").write_text(header + "\n{}\n", encoding="utf-8")
    assert cli.main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stale entries:   3" in out
    assert "entries:         3" in out


def test_cache_clear_removes_leftover_shard_checkpoints(tmp_path, capsys):
    """Older versions checkpointed pool shards as ``shards/*.pkl`` under
    the cache root.  ``repro cache clear`` deletes them unread, along
    with the sweep entries, and drops the emptied directory."""
    from repro import cli

    entries = tmp_path / "hiding"
    entries.mkdir()
    (entries / "sweep.jsonl").write_text("{}\n{}\n", encoding="utf-8")
    shards = tmp_path / "shards"
    shards.mkdir()
    (shards / "x.pkl").write_bytes(b"not a pickle")
    assert cli.main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "removed 1 cached sweep(s)" in out
    assert "removed 1 stale shard checkpoint(s)" in out
    assert not (shards / "x.pkl").exists()
    assert not shards.exists()
    assert not (entries / "sweep.jsonl").exists()


def test_concurrent_stores_of_one_key_use_their_own_temp_files(tmp_path, monkeypatch):
    """A second writer storing the same key between the first writer's
    write and its rename must not replace the first one's temp file:
    both stores succeed, and the entry left behind is whole."""
    lcp, plan, path, fresh = _entry(tmp_path)
    body = _body_from_verdict(fresh)
    key = disk_key(lcp, 4, plan)
    cache = persist.PersistentVerdictCache(tmp_path)
    stats = PerfStats()
    replace = persist.os.replace
    interleaved = []

    def replace_after_a_second_store(src, dst):
        if not interleaved:
            interleaved.append(src)
            assert cache.store(key, body, stats=stats) is True
        replace(src, dst)

    monkeypatch.setattr(persist.os, "replace", replace_after_a_second_store)
    assert cache.store(key, body, stats=stats) is True
    monkeypatch.setattr(persist.os, "replace", replace)
    assert interleaved and stats.get("persist_writes") == 2
    assert stats.get("persist_skips") == 0
    assert list((tmp_path / "hiding").glob("*.tmp")) == []
    loaded = cache.load(key, stats=stats, decode=lambda b: _verdict_from_body(key, b))
    assert loaded.digest() == fresh.digest()


def test_cache_clear_removes_orphaned_temp_files(tmp_path):
    """Temp files of writes that died before their rename are removed
    with the entries (they are not counted as entries)."""
    _entry(tmp_path)
    entries = tmp_path / "hiding"
    (entries / "0123.4567-89abcdef.tmp").write_bytes(b"half a wri")
    assert persist.PersistentVerdictCache(tmp_path).clear() == 1
    assert list(entries.iterdir()) == []
