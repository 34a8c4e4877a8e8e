"""Mutation tests: lint *mutated copies* of the real tree and assert the
project rules catch exactly the regressions they were built for.

These encode the acceptance criteria of the cross-module engine: delete
a captured field from a serve/state.py walker and SNAP01 must point at
the field's definition line.  The unmutated copies must stay clean, which pins the real-tree exemptions
(the autoscaler's timer-walker hand-off) as deliberate."""

import shutil
from pathlib import Path

from repro.lint.engine import lint_paths

REPO = Path(__file__).resolve().parent.parent

SNAP_FILES = ("src/repro/serve/state.py", "src/repro/flow/station.py")
AUTOSCALER_FILES = ("src/repro/serve/state.py", "src/repro/cluster/autoscaler.py")


def make_tree(tmp_path, rel_paths, mutate=None):
    """Copy ``rel_paths`` from the real repo into a repo-shaped tmp tree,
    optionally rewriting one file's text through ``mutate``."""
    for rel in rel_paths:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, dest)
    if mutate is not None:
        rel, old, new = mutate
        target = tmp_path / rel
        text = target.read_text(encoding="utf-8")
        assert old in text, f"mutation anchor vanished from {rel}: {old!r}"
        target.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def lint_tree(tree, rule):
    findings = lint_paths([str(tree / "src")], root=str(tree))
    return [f for f in findings if f.rule == rule]


class TestSnapshotMutation:
    def test_unmutated_copies_are_clean(self, tmp_path):
        tree = make_tree(tmp_path, SNAP_FILES)
        assert lint_tree(tree, "SNAP01") == []

    def test_deleting_captured_field_from_walker_fires(self, tmp_path):
        tree = make_tree(
            tmp_path,
            SNAP_FILES,
            mutate=(
                "src/repro/serve/state.py",
                '        "backlog_packets": station.backlog_packets,\n',
                "",
            ),
        )
        findings = lint_tree(tree, "SNAP01")
        assert len(findings) == 1
        f = findings[0]
        # the finding lands on the field's definition line in the
        # component's own file, not in serve/state.py
        assert f.path == "src/repro/flow/station.py"
        station = (tree / "src/repro/flow/station.py").read_text().splitlines()
        assert "self.backlog_packets" in station[f.line - 1]
        assert "_station_state" in f.message
        # the restore walker still captures it and must not be blamed
        assert "_restore_station" not in f.message

    def test_adding_uncaptured_mutable_field_fires(self, tmp_path):
        tree = make_tree(
            tmp_path,
            SNAP_FILES,
            mutate=(
                "src/repro/flow/station.py",
                "        self.backlog_packets = 0.0\n",
                "        self.backlog_packets = 0.0\n"
                "        self.debug_marks = []\n",
            ),
        )
        # make the new field mutable: append to it from a method
        station = tree / "src/repro/flow/station.py"
        text = station.read_text(encoding="utf-8")
        anchor = "        self.backlog_packets = backlog_1\n"
        assert anchor in text
        station.write_text(
            text.replace(
                anchor, anchor + "        self.debug_marks.append(backlog_1)\n"
            ),
            encoding="utf-8",
        )
        findings = lint_tree(tree, "SNAP01")
        assert len(findings) == 1
        assert "debug_marks" in findings[0].message
        assert findings[0].path == "src/repro/flow/station.py"

    def test_stripping_autoscaler_exemption_fires(self, tmp_path):
        # the real tree carries exactly one SNAP01 exemption: the
        # autoscaler's pending wake timers, which the dedicated timer
        # walkers capture instead.  Removing the justification comment
        # must resurface the finding — the exemption is load-bearing.
        autoscaler = (REPO / "src/repro/cluster/autoscaler.py").read_text(
            encoding="utf-8"
        )
        disable = next(
            line
            for line in autoscaler.splitlines(keepends=True)
            if "lint: disable=SNAP01" in line
        )
        tree = make_tree(
            tmp_path,
            AUTOSCALER_FILES,
            mutate=("src/repro/cluster/autoscaler.py", disable, ""),
        )
        findings = lint_tree(tree, "SNAP01")
        assert len(findings) == 1
        assert "_pending_wakes" in findings[0].message
        assert findings[0].path == "src/repro/cluster/autoscaler.py"

