"""Engine-level tests: suppressions, baseline ratchet, CLI, discovery."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.baseline import (
    compare_to_baseline,
    count_findings,
    load_baseline,
    save_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import Finding, discover_files, lint_paths, suppressed_rules

SIM = "src/repro/sim/example.py"


def rules_of(source, path=SIM):
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


class TestSuppression:
    def test_trailing_comment_suppresses(self):
        src = """
        import time

        def stamp():
            return time.time()  # lint: disable=DET01 wall-time report only
        """
        assert rules_of(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = """
        import time

        def stamp():
            return time.time()  # lint: disable=DET02
        """
        assert rules_of(src) == ["DET01"]

    def test_comma_list_and_all(self):
        src = """
        import time

        def stamp(xs=[]):
            return time.time()  # lint: disable=DET01,MUT01
        """
        # the MUT01 finding is on the def line, not the suppressed line
        assert rules_of(src) == ["MUT01"]
        src_all = """
        import time

        def stamp():
            return time.time()  # lint: disable=all
        """
        assert rules_of(src_all) == []

    def test_comment_only_line_covers_next_line(self):
        src = """
        import time

        def stamp():
            # lint: disable=DET01 justification lives up here
            return time.time()
        """
        assert rules_of(src) == []

    def test_def_scoped_suppression_covers_body(self):
        src = """
        def pump(tracer, now):  # lint: disable=OBS01 traced-only closure
            tracer.counter("a", "b", now, 1.0)
            tracer.instant("a", "c", now)
        """
        assert rules_of(src) == []

    def test_def_scope_does_not_leak_past_function(self):
        src = """
        def pump(tracer, now):  # lint: disable=OBS01
            tracer.counter("a", "b", now, 1.0)

        def other(tracer, now):
            tracer.counter("a", "b", now, 1.0)
        """
        assert rules_of(src) == ["OBS01"]

    def test_marker_inside_string_ignored(self):
        src = '''
        import time

        def stamp():
            note = "# lint: disable=DET01"
            return time.time(), note
        '''
        assert rules_of(src) == ["DET01"]

    def test_suppressed_rules_map(self):
        src = "x = 1  # lint: disable=DET01,unit01\n"
        assert suppressed_rules(src) == {1: {"DET01", "UNIT01"}}


def _finding(path, rule, line=1):
    return Finding(path=path, line=line, col=1, rule=rule, message="m")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = [
            _finding("a.py", "DET01", 1),
            _finding("a.py", "DET01", 9),
            _finding("b.py", "UNIT01", 4),
        ]
        counts = save_baseline(path, findings)
        assert counts == {"a.py": {"DET01": 2}, "b.py": {"UNIT01": 1}}
        assert load_baseline(path) == counts

    def test_counts(self):
        counts = count_findings(
            [_finding("a.py", "DET01"), _finding("a.py", "MUT01")]
        )
        assert counts == {"a.py": {"DET01": 1, "MUT01": 1}}

    def test_within_baseline_is_clean(self):
        findings = [_finding("a.py", "DET01", 3)]
        comparison = compare_to_baseline(findings, {"a.py": {"DET01": 1}})
        assert comparison.clean
        assert comparison.ratchet_ok

    def test_new_debt_reports_excess(self):
        findings = [_finding("a.py", "DET01", 3), _finding("a.py", "DET01", 8)]
        comparison = compare_to_baseline(findings, {"a.py": {"DET01": 1}})
        assert not comparison.clean
        assert len(comparison.new_findings) == 1

    def test_unlisted_file_is_new_debt(self):
        comparison = compare_to_baseline([_finding("c.py", "OBS01")], {})
        assert [f.path for f in comparison.new_findings] == ["c.py"]

    def test_stale_baseline_detected(self):
        comparison = compare_to_baseline([], {"a.py": {"DET01": 2}})
        assert comparison.clean  # no new debt...
        assert not comparison.ratchet_ok  # ...but the ratchet must shrink
        assert "shrink" in comparison.stale[0]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "counts": {}}))
        with pytest.raises(ValueError):
            load_baseline(str(path))


@pytest.fixture
def dirty_tree(tmp_path):
    """A fake repo slice with one DET01 finding in the sim domain."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    (tmp_path / "src" / "repro" / "runner").mkdir()
    (tmp_path / "src" / "repro" / "runner" / "wall.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return tmp_path


class TestCliAndDiscovery:
    def test_discovery_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "h.py").write_text("x = 1\n")
        assert [f.endswith("a.py") for f in discover_files([str(tmp_path)])] == [True]

    def test_lint_paths_relativizes(self, dirty_tree):
        findings = lint_paths([str(dirty_tree / "src")], root=str(dirty_tree))
        assert [f.rule for f in findings] == ["DET01"]
        assert findings[0].path == "src/repro/sim/clock.py"

    def test_cli_exit_codes(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "DET01" in out and "clock.py" in out
        # clean subtree exits 0
        assert lint_main(["src/repro/runner", "--no-baseline"]) == 0

    def test_cli_update_then_clean_then_ratchet(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--update-baseline"]) == 0
        # baselined debt no longer fails...
        assert lint_main(["src"]) == 0
        # ...until the file is fixed, when --strict-stale forces a shrink
        clock = dirty_tree / "src" / "repro" / "sim" / "clock.py"
        clock.write_text("def stamp(sim):\n    return sim.now\n")
        assert lint_main(["src"]) == 0
        assert lint_main(["src", "--strict-stale"]) == 1
        err = capsys.readouterr().err
        assert "shrink the baseline" in err

    def test_cli_json_format(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--format=json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"src/repro/sim/clock.py": {"DET01": 1}}
        assert payload["findings"][0]["rule"] == "DET01"
        assert payload["new_findings"] == payload["findings"]

    def test_cli_select(self, dirty_tree, monkeypatch):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--select", "MUT01", "--no-baseline"]) == 0
        assert lint_main(["src", "--select", "det01", "--no-baseline"]) == 1
        assert lint_main(["src", "--select", "NOPE"]) == 2

    def test_cli_missing_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert lint_main(["definitely/not/here"]) == 2

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "DET01", "DET02", "DET03", "DET04", "MUT01", "OBS01", "UNIT01",
            "SNAP01", "BAR01",
        ):
            assert rule_id in out

    def test_cli_explain(self, capsys):
        assert lint_main(["--explain", "SNAP01"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SNAP01 — ")
        assert "byte-identical" in out  # the docstring rationale, not just the summary

    def test_cli_explain_unknown_is_usage_error(self, capsys):
        assert lint_main(["--explain", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err
        assert "SNAP01" in err  # lists the known ids

    def test_cli_sarif_format(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--format=sarif", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"DET01", "SNAP01", "BAR01"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "DET01"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/sim/clock.py"
        assert location["region"]["startLine"] == 5

    def test_cli_github_format(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--format=github", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=src/repro/sim/clock.py,line=5,")
        assert "title=DET01::" in out

    def test_cli_jobs_matches_serial(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--format=json", "--no-baseline"]) == 1
        serial = capsys.readouterr().out
        assert lint_main(["src", "--format=json", "--no-baseline", "--jobs", "2"]) == 1
        assert capsys.readouterr().out == serial

    def test_cli_json_lists_active_rules(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--format=json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # the ratchet check keys off this list to prove family coverage
        assert {"DET04", "SNAP01", "BAR01"} <= set(
            payload["rules"]
        )
        assert payload["schema"] == 2

    def test_module_entry_point(self, dirty_tree):
        repo_src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--no-baseline"],
            capture_output=True,
            text=True,
            cwd=str(dirty_tree),
            env=env,
        )
        assert proc.returncode == 1
        assert "DET01" in proc.stdout
