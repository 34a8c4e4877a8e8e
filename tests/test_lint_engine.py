"""Engine-level tests: suppressions, CLI, discovery."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import discover_files, lint_paths, suppressed_rules

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
        assert lint_main(["src"]) == 1
        out = capsys.readouterr().out
        # one `file:line:col RULE-ID message` line per finding
        assert out.splitlines()[0].startswith(
            "src/repro/sim/clock.py:5:12 DET01 wall-clock read time.time()"
        )
        assert len(out.splitlines()) == 1
        # clean subtree exits 0
        assert lint_main(["src/repro/runner"]) == 0

    def test_cli_select(self, dirty_tree, monkeypatch):
        monkeypatch.chdir(dirty_tree)
        assert lint_main(["src", "--select", "MUT01"]) == 0
        assert lint_main(["src", "--select", "det01"]) == 1
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

    def test_module_entry_point(self, dirty_tree):
        repo_src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            capture_output=True,
            text=True,
            cwd=str(dirty_tree),
            env=env,
        )
        assert proc.returncode == 1
        assert "DET01" in proc.stdout
