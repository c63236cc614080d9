"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_graph_spec


class TestGraphSpec:
    def test_path(self):
        assert parse_graph_spec("path:5").order == 5

    def test_cycle(self):
        assert parse_graph_spec("cycle:6").order == 6

    def test_grid(self):
        assert parse_graph_spec("grid:2,3").order == 6

    def test_theta(self):
        assert parse_graph_spec("theta:2,2,2").order == 5

    def test_melon(self):
        assert parse_graph_spec("melon:2,3,4").order == 2 + 1 + 2 + 3

    def test_star(self):
        assert parse_graph_spec("star:4").order == 5

    def test_unknown(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("blob:3")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "thm14" in out

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "watermelon" in out and "Lemma 4.1" in out

    def test_certify_accepts(self, capsys):
        assert main(["certify", "degree-one", "path:6"]) == 0
        out = capsys.readouterr().out
        assert "unanimously ACCEPTED" in out

    def test_certify_show_certificates(self, capsys):
        assert main(["certify", "even-cycle", "cycle:4", "--show-certificates"]) == 0
        out = capsys.readouterr().out
        assert "node 0" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "OK" in out

    def test_run_requires_known_id(self, capsys):
        assert main(["run", "fig2", "not-an-experiment"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "repro run: unknown experiment 'not-an-experiment'; known: "
        )
        assert "fig2" in line and "thm14" in line

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "check"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestHidingBackendFlag:
    def test_default_sweep_runs_and_reports(self, capsys):
        assert main(["hiding", "degree-one", "--n", "3", "--no-disk-cache"]) == 0
        out = capsys.readouterr().out
        assert "backend=streaming" in out
        assert "early_exit=True" in out

    def test_backend_option_is_retired(self, capsys):
        """One route: ``--backend`` is gone (``--full-sweep`` replaces
        its one real choice), so argparse rejects it."""
        with pytest.raises(SystemExit) as exc:
            main(["hiding", "degree-one", "--n", "3", "--backend", "streaming"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_materialized_alias_is_gone(self, capsys):
        """``--full-sweep`` is the only spelling of a complete build."""
        with pytest.raises(SystemExit) as exc:
            main(["hiding", "degree-one", "--n", "3", "--materialized"])
        assert exc.value.code == 2
        assert "--materialized" in capsys.readouterr().err

    def test_full_sweep_builds_the_complete_graph(self, capsys):
        """``--full-sweep`` scans past the first witness: all of
        ``V(D, 4)`` of degree-one, 46 views and 66 edges."""
        assert main(
            ["hiding", "degree-one", "--n", "4", "--full-sweep", "--no-disk-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "early_exit=False" in out
        assert "46 views, 66 edges" in out

    def test_run_streaming_flag_is_retired(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig2", "--streaming"])
        assert exc.value.code == 2
        assert "--streaming" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig2", "--workers", "2"],
            ["hiding", "degree-one", "--n", "3", "--workers", "2"],
            ["frontier", "run", "degree-one", "--n-max", "3", "--workers", "2"],
        ],
        ids=["run", "hiding", "frontier-run"],
    )
    def test_workers_option_is_retired(self, argv, capsys):
        """Every sweep runs in one process: ``--workers`` is gone."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bound_below_one_is_rejected(self, n, capsys):
        """No verdict for an empty sweep: one line, non-zero exit, and
        no "NO — V(D, n) is 2-colorable" on stdout."""
        with pytest.raises(SystemExit) as exc:
            main(["hiding", "even-cycle", "--n", n, "--no-disk-cache"])
        assert exc.value.code == f"repro hiding: n must be >= 1, got {n}"
        assert "verdict" not in capsys.readouterr().out


def _reconciled_share(out: str) -> float:
    """The percentage a profile's ``reconciliation:`` footer prints."""
    (line,) = [line for line in out.splitlines() if line.startswith("reconciliation:")]
    return float(line.rsplit("(", 1)[1].rstrip("%)"))


class TestProfileReconciliation:
    def test_footer_reconciles_against_the_root_span(self, tmp_path, monkeypatch, capsys):
        """Self times sum to the root ``decide_hiding`` span, so the
        footer reads 100% (up to clock rounding), live and re-read from
        the report; the backend sweep's wall time alone covers less than
        the spans do."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        trace_out = tmp_path / "run.json"
        argv = ["hiding", "even-cycle", "--n", "6", "--full-sweep", "--profile"]
        assert main([*argv, "--no-disk-cache", "--trace-out", str(trace_out)]) == 0
        live = _reconciled_share(capsys.readouterr().out)
        assert 99.0 <= live <= 100.5
        argv = ["report", "profile", str(trace_out), "--runs-dir", str(tmp_path)]
        assert main(argv) == 0
        assert 99.0 <= _reconciled_share(capsys.readouterr().out) <= 100.5


class TestFrontierRunProgress:
    """``frontier run`` reports each finished cell through the progress
    bus: a stderr line per cell off a terminal (none with ``--quiet``),
    and one ``cell_finished`` event per cell in ``--events-out``."""

    ARGV = ["frontier", "run", "even-cycle", "--n-min", "3", "--n-max", "5",
            "--k", "2", "--no-disk-cache"]

    def _run(self, tmp_path, monkeypatch, capsys, *extra) -> list[str]:
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_PROGRESS", raising=False)
        assert main([*self.ARGV, *extra]) == 0
        err = capsys.readouterr().err
        return [line for line in err.splitlines() if line.startswith("  even-cycle")]

    def test_off_terminal_prints_one_line_per_cell(self, tmp_path, monkeypatch, capsys):
        lines = self._run(tmp_path, monkeypatch, capsys)
        assert len(lines) == 3
        assert all(": hiding=" in line for line in lines)

    def test_quiet_prints_no_cell_lines(self, tmp_path, monkeypatch, capsys):
        assert self._run(tmp_path, monkeypatch, capsys, "--quiet") == []

    def test_events_out_holds_one_cell_finished_per_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        events = tmp_path / "events.jsonl"
        lines = self._run(tmp_path, monkeypatch, capsys, "--events-out", str(events))
        records = [json.loads(line) for line in events.read_text().splitlines()]
        finished = [r for r in records if r["event"] == "cell_finished"]
        assert [f"  {r['label']}: hiding={r['hiding']}" for r in finished] == lines
        assert len(finished) == 3


def _unreadable_report(tmp_path, case: str) -> str:
    """A report ref that cannot be read: *case* is ``missing`` (no such
    file), ``unparsable`` (not JSON) or ``non-object`` (JSON, not an
    object)."""
    path = tmp_path / "bad.json"
    if case == "unparsable":
        path.write_text("{not json")
    elif case == "non-object":
        path.write_text("[1]")
    return str(path)


REPORT_READERS = [
    ["report", "show"],
    ["report", "profile"],
    ["report", "diff"],
    ["frontier", "show"],
]


class TestUnreadableReports:
    @pytest.mark.parametrize("case", ["missing", "unparsable", "non-object"])
    @pytest.mark.parametrize(
        "command", REPORT_READERS, ids=["-".join(c) for c in REPORT_READERS]
    )
    def test_reader_exits_with_one_line(self, command, case, tmp_path):
        ref = _unreadable_report(tmp_path, case)
        refs = [ref, ref] if command[-1] == "diff" else [ref]
        with pytest.raises(SystemExit) as exc:
            main([*command, *refs, "--runs-dir", str(tmp_path / "runs")])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro {' '.join(command)}: ")
        if case == "non-object":
            assert message.endswith("report payload must be a JSON object")

    @pytest.mark.parametrize("case", ["missing", "unparsable", "non-object"])
    def test_validate_reports_invalid(self, case, tmp_path, capsys):
        ref = _unreadable_report(tmp_path, case)
        argv = ["report", "validate", ref, "--runs-dir", str(tmp_path / "runs")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("INVALID: ") and out.count("\n") == 1


class TestViewsCommand:
    def test_views_prints_verdicts(self, capsys):
        assert main(["views", "degree-one", "path:3"]) == 0
        out = capsys.readouterr().out
        assert "[accept]" in out
        assert "center" in out
        assert "edge 0" in out

    def test_views_radius2(self, capsys):
        assert main(["views", "watermelon", "path:4", "--radius", "2"]) == 0
        out = capsys.readouterr().out
        assert "radius-2 view" in out
        assert "N = 4" in out  # non-anonymous scheme shows the id bound


def test_describe_view_anonymous():
    from repro.graphs import path_graph
    from repro.local import Instance, extract_view
    from repro.local.views import describe_view

    view = extract_view(Instance.build(path_graph(3)), 1, 1, include_ids=False)
    text = describe_view(view)
    assert "anonymous" in text
    assert "id=  -" in text
