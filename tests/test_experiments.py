"""Integration tests: every registered experiment runs and reports OK.

These are the machine checks of the paper's claims — a failing test here
means a reproduction mismatch, not a code bug.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    all_experiments,
    experiment_ids,
    get_experiment,
    render_result,
    render_results,
    run_experiment,
)

FAST_EXPERIMENTS = [
    "fig1",
    "fig2",
    "fig7",
    "tbl_hiding_fraction",
    "tbl_resilience",
]

SLOW_EXPERIMENTS = [
    "ext_chromatic",
    "ext_decoder_universe",
    "fig3_4",
    "fig5_6",
    "fig8",
    "lem32",
    "lem62",
    "tbl_cert",
    "thm11",
    "thm12",
    "thm13",
    "thm14",
]


def test_registry_complete():
    ids = experiment_ids()
    assert set(FAST_EXPERIMENTS + SLOW_EXPERIMENTS) == set(ids)


def test_registry_metadata():
    for experiment in all_experiments():
        assert experiment.title
        assert experiment.paper_ref


def test_unknown_experiment_raises():
    with pytest.raises(ExperimentError):
        get_experiment("nope")


@pytest.mark.parametrize("exp_id", FAST_EXPERIMENTS)
def test_fast_experiment_ok(exp_id):
    result = run_experiment(exp_id)
    assert isinstance(result, ExperimentResult)
    assert result.ok, f"{exp_id} mismatch: {result.notes}"
    assert result.rows
    assert result.require_ok() is result


@pytest.mark.parametrize("exp_id", SLOW_EXPERIMENTS)
def test_slow_experiment_ok(exp_id):
    result = run_experiment(exp_id)
    assert result.ok, f"{exp_id} mismatch: {result.notes}"
    assert result.rows


def test_require_ok_raises_on_mismatch():
    bad = ExperimentResult(
        exp_id="x", title="t", paper_claim="c", ok=False, rows=[], notes=["n"]
    )
    with pytest.raises(ExperimentError):
        bad.require_ok()


def test_render_result_contains_rows():
    result = ExperimentResult(
        exp_id="demo",
        title="Demo",
        paper_claim="claim",
        ok=True,
        rows=[{"a": 1, "b": 2}],
        notes=["a note"],
    )
    text = render_result(result)
    assert "demo" in text and "OK" in text and "a note" in text
    assert "a" in text and "1" in text


def test_render_results_summary_block():
    results = [
        ExperimentResult(exp_id="one", title="One", paper_claim="c", ok=True),
        ExperimentResult(exp_id="two", title="Two", paper_claim="c", ok=False),
    ]
    text = render_results(results)
    assert "summary" in text
    assert "MISMATCH" in text


def test_runner_module_entrypoint(tmp_path, monkeypatch):
    """`python -m repro.experiments.runner <path>` writes a report."""
    import sys

    from repro.experiments import registry as reg
    from repro.experiments import runner

    fast = [reg.get_experiment("fig2")]
    monkeypatch.setattr(runner, "all_experiments", lambda: fast)
    target = tmp_path / "out.txt"
    monkeypatch.setattr(sys, "argv", ["runner", str(target)])
    assert runner.main() == 0
    assert "fig2" in target.read_text()
