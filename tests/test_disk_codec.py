"""The disk tier's codec: label-interned bodies, the payload digest, and
the strict decoder.

* ``Verdict.digest()`` equals ``sha256(decision_fingerprint())[:32]`` on
  fresh, memory-hit, disk-reloaded and traced verdicts, and the digest a
  write computes from its payload equals the one a reload computes from
  the parsed payload — without either calling ``decision_fingerprint``.
* ``encode_label(decode_label(p)) == p`` for every encoded label, and
  interning never merges labels that compare equal but encode
  differently (``1`` / ``True`` / ``1.0``).
* A body the strict decoder or the checksum rejects is a miss followed
  by a correct fresh verdict that overwrites the entry.
"""

from __future__ import annotations

import hashlib
import json
import logging

import pytest

from repro.core.registry import make_lcp, scheme_names
from repro.engine import ExecutionPlan, RunContext, clear_engine_state, decide_hiding
from repro.engine.backends import disk_key
from repro.engine.stores import _body_from_verdict, _verdict_from_body
from repro.engine.verdict import Verdict
from repro.local.views import View
from repro.perf import PerfStats, overridden
from repro.perf.persist import (
    MalformedEntry,
    decode_label,
    decode_views,
    default_verdict_cache,
    encode_label,
    encode_views,
)

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
    return hashlib.sha256(verdict.decision_fingerprint()).hexdigest()[:32]


def _plan(**overrides) -> ExecutionPlan:
    fields = {"warm_start": False, "disk_cache": True, "memory_cache": True}
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
    decoded graph shares one label object per distinct label."""
    for scheme in ("watermelon", "union", "shatter"):
        lcp = make_lcp(scheme)
        fresh = decide_hiding(lcp, 4, ExecutionPlan(early_exit=False, warm_start=False))
        body = json.loads(json.dumps(_body_from_verdict(fresh)))
        decoded = _verdict_from_body({"n": 4}, body)
        assert _body_from_verdict(decoded) == body
        assert decoded.digest() == _reference(decoded) == _reference(fresh)
        labels = [label for view in decoded.ngraph.views for label in view.labels]
        assert len({id(label) for label in labels}) <= len(body["labels"])


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
        views = [_view(labels), _view(labels[::-1])]
        table, payloads = encode_views(views)
        assert len(table) <= len(labels)
        parsed = json.loads(json.dumps([table, payloads]))
        assert encode_views(decode_views(*parsed)) == (table, payloads)


def _view(labels) -> View:
    count = len(labels)
    return View(
        radius=1,
        dist=(0,) + (1,) * (count - 1),
        edges=tuple((0, i) for i in range(1, count)),
        ports=tuple((i, 1) for i in range(1, count)),
        ids=None,
        id_bound=None,
        labels=tuple(labels),
    )


def test_interning_keeps_equal_labels_of_different_types_apart():
    labels = (1, True, 1.0, ("a", 1), ("a", True), 1, ("a", 1))
    table, (payload,) = encode_views([_view(labels)])
    assert table == [1, True, 1.0, {"t": ["a", 1]}, {"t": ["a", True]}]
    assert payload["labels"] == [0, 1, 2, 3, 4, 0, 3]
    (view,) = decode_views(*json.loads(json.dumps([table, [payload]])))
    assert [type(label) for label in view.labels[:3]] == [int, bool, float]
    assert type(view.labels[4][1]) is bool
    assert view.labels[0] is view.labels[5]


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


def _first_view(field, value):
    def mutate(body):
        body["views"][0][field] = value
        return body

    return mutate


MALFORMED = {
    "only-hiding": lambda body: {"hiding": True},
    "missing-key": _drop("instances_scanned"),
    "extra-key": _set("witness", None),
    "view-extra-key": _first_view("extra", 1),
    "unknown-label-tag": lambda body: {**body, "labels": [{"x": [1]}] + body["labels"][1:]},
    "multi-key-label-tag": lambda body: {
        **body,
        "labels": [{"t": [1], "l": [1]}] + body["labels"][1:],
    },
    "unsorted-frozenset": lambda body: {
        **body,
        "labels": [{"fs": ["b", "a"]}] + body["labels"][1:],
    },
    "label-index": _first_view("labels", [10_000]),
    "negative-label-index": _first_view("labels", [-1]),
    "boolean-label-index": _first_view("labels", [True]),
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

    fresh = decide_hiding(make_lcp("union"), 4, ExecutionPlan(warm_start=False))
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
