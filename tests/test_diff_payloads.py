"""The payload-diff tool's report: ``benchmarks/diff_payloads.py``."""

import importlib.util
import pathlib
import subprocess

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def diff():
    spec = importlib.util.spec_from_file_location(
        "diff_payloads", BENCHMARKS / "diff_payloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flatten_walks_dicts_and_rack_lists(diff):
    payload = {"fleet": {"p99": 1.0}, "racks": [{"n": 1}, {"n": 2}], "xs": [1.0, 2.0]}
    assert diff.flatten(payload) == {
        "fleet.p99": 1.0, "racks[0].n": 1, "racks[1].n": 2, "xs": [1.0, 2.0],
    }


def test_moved_fields_name_each_delta(diff):
    parent = {"data": {"p99": 2.0, "samples": [1.0, 2.0, 3.0], "kind": "a", "gone": 1}}
    change = {"data": {"p99": 2.5, "samples": [1.0, 2.0, 4.0], "kind": "b", "new": 1}}
    lines = diff.moved_fields(parent, change)
    assert lines == [
        "data.gone: only in parent",
        "data.kind: 'a' -> 'b'",
        "data.new: only in change",
        "data.p99: 2.0 -> 2.5 (+0.5, +25%)",
        "data.samples: 3 -> 3 values, 1 differ; mean 2 -> 2.33333",
    ]


def test_report_counts_moved_cells(diff, capsys):
    parent = {"a": {"x": 1.0}, "b": {"x": 1.0}}
    assert diff.report(parent, {"a": {"x": 1.0}, "b": {"x": 1.0}}) == 0
    assert diff.report(parent, {"a": {"x": 1.0}, "b": {"x": -0.0}}) == 1
    out = capsys.readouterr().out
    assert "  MOVED  b" in out and "1 identical, 1 moved" in out


def test_float_sign_and_type_count_as_moves(diff):
    # the canonical JSON tells 0.0 from -0.0 and 256 from 256.0
    assert diff.moved_fields({"x": 0.0}, {"x": -0.0})
    assert diff.moved_fields({"x": 256}, {"x": 256.0})


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args],
        check=True, capture_output=True,
    )


def test_parent_may_be_a_git_revision(diff, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("old\n")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "one")
    (repo / "f.txt").write_text("new\n")
    _git(repo, "commit", "-q", "-am", "two")
    scratch = tmp_path / "scratch"
    scratch.mkdir()

    tree = diff.parent_tree("HEAD~1", str(repo), str(scratch))
    assert pathlib.Path(tree, "f.txt").read_text() == "old\n"
    assert pathlib.Path(tree).parent == scratch
    # a directory is used as it is
    assert diff.parent_tree(str(repo), str(repo), str(scratch)) == str(repo)
    with pytest.raises(SystemExit, match="neither a directory nor a git revision"):
        diff.parent_tree("no-such-rev", str(repo), str(scratch))
