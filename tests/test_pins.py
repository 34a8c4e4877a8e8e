"""The payload pins: every cell of ``repro.bench.pinned_cells`` against
its sha256 under ``identity`` in ``benchmarks/baseline.json``."""

import importlib.util
import json
import pathlib

import repro.bench
from repro.bench import PinnedCell, flatten_pins, pinned_cells

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
PINS = flatten_pins(
    json.loads((BENCHMARKS / "baseline.json").read_text())["identity"]
)


def _check_identity():
    spec = importlib.util.spec_from_file_location(
        "check_identity", BENCHMARKS / "check_identity.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_cells_match_baseline_keys():
    keys = [cell.key for cell in pinned_cells()]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(PINS)


def test_every_pinned_cell_matches_its_pin():
    moved = {
        cell.label: current
        for cell in pinned_cells()
        if (current := cell.sha256()) != PINS[cell.key]
    }
    assert moved == {}


def test_check_identity_fails_on_unpinned_cell_and_orphan_pin(
    tmp_path, monkeypatch, capsys
):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"identity": {"a": "1", "orphan": "2"}}))
    cells = [
        PinnedCell("a", ("a",), lambda: "1"),
        PinnedCell("b", ("b",), lambda: "3"),
    ]
    monkeypatch.setattr(repro.bench, "pinned_cells", lambda: cells)
    check_identity = _check_identity()
    assert check_identity.main(["--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "OK: untraced a payload" in out
    assert "FAIL: b has no pin" in out
    assert "FAIL: baseline pin orphan has no pinned cell" in out

    baseline.write_text(json.dumps({"identity": {"a": "1", "b": "3"}}))
    assert check_identity.main(["--baseline", str(baseline)]) == 0
