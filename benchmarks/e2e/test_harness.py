"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Every
workload runs for real, shrunk to a twentieth of its simulated length, in
child processes (layer tracing patches a process for good).
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SCALE = "0.05"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_py = _load("e2e_run", RUN)
compare_py = _load("e2e_compare", HERE / "compare.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _invoke(workload: str, trace: int, out: Path, seed: int = 5) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE,
        "--out", str(out),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    assert summary == {key: record[key] for key in summary}
    return record


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs."""
    tmp = tmp_path_factory.mktemp("runs")
    return {
        workload: {
            "untraced": _invoke(workload, 0, tmp / f"{workload}-0.json"),
            "traced": [
                _invoke(workload, 1, tmp / f"{workload}-1-{n}.json") for n in (1, 2)
            ],
        }
        for workload in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_payload_equals_untraced(runs, workload):
    untraced = runs[workload]["untraced"]
    assert untraced["correct"] and untraced["failed"] == 0
    for traced in runs[workload]["traced"]:
        # each traced repeat is checked against the untraced repeats of
        # its own process; across processes the sha must match too
        assert traced["correct"], traced["failures"]
        assert traced["payload_sha256"] == untraced["payload_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(runs, workload):
    first, second = (r["metrics"] for r in runs[workload]["traced"])
    counts = [name for name, m in first.items() if m["unit"] in ("count", "bytes")]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_cover_the_traced_run(runs, workload):
    for traced in runs[workload]["traced"]:
        assert 0.0 <= traced["metrics"]["bench.unattributed_frac"]["value"] <= 0.10
        assert traced["metrics"]["bench.trace_overhead_x"]["value"] > 0.0


def test_metric_names_match_benchmark_json(runs):
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in WORKLOADS:
        emitted = {
            0: runs[workload]["untraced"]["metrics"],
            1: runs[workload]["traced"][0]["metrics"],
        }
        for trace in (0, 1):
            assert {n: m["unit"] for n, m in emitted[trace].items()} == declared[trace]
    for name in list(declared[0]) + list(declared[1]):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_workloads_match_benchmark_json():
    run_py._import_simulator()
    from workloads import build_workloads

    declared = {entry["name"]: entry["why"] for entry in BENCHMARK["workloads"]}
    built = {name: workload.why for name, workload in build_workloads().items()}
    assert built == declared


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        for name, metric in runs[workload]["untraced"]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


class _Flaky:
    """A stand-in workload whose second repeat goes wrong."""

    name = "flaky"
    processes = 1

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.repeats = 0

    def reference_sha(self, seed):
        return None

    def repeat(self, seed, clock=None):
        from workloads import Sample

        self.repeats += 1
        broken = self.repeats == 2
        if broken and self.mode == "raise":
            raise RuntimeError("injected failure")
        payload = {"seed": seed, "value": 2 if broken and self.mode == "perturb" else 1}
        conserved = not (broken and self.mode == "conservation")
        times = {"setup": 0.001, "run": 0.002}
        return Sample(0.001, 0.002, payload, 100.0, conserved,
                      clocked={"raw": times, "scaled": times})


@pytest.mark.parametrize("mode", ["raise", "perturb", "conservation"])
def test_injected_failure_fails_the_run(mode, capsys):
    args = run_py.parse_args(["--workload", "flaky", "--seconds", "0.2", "--trace", "0"])
    code = run_py.run_one(args, registry=lambda scale, workdir: {"flaky": _Flaky(mode)})
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert summary["correct"] is False
    assert summary["attempted"] >= 2
    assert summary["failed"] / summary["attempted"] > 0


def test_all_workloads_form_compares_traced_and_untraced_payloads():
    same = [{"workload": "w", "trace": t, "payload_sha256": "a"} for t in (0, 1)]
    assert run_py.payload_mismatches(same) == []
    moved = [dict(same[0]), dict(same[1], payload_sha256="b")]
    assert len(run_py.payload_mismatches(moved)) == 1
    crashed = [dict(same[0]), {"workload": "w", "trace": 1, "correct": False}]
    assert len(run_py.payload_mismatches(crashed)) == 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare_py.judge(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare_py.judge(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert compare_py.judge(parent, parent, "lower", 0.1)["verdict"] == "within bound"
    assert compare_py.judge(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # higher-is-better metrics read the other way round
    assert compare_py.judge(parent, faster, "higher", 0.1)["verdict"] == "regressed"
    # fewer than ten pairs never claim a gain
    assert compare_py.judge(parent[:5], faster[:5], "lower", 0.1)["verdict"] == "within bound"
    # a time under 100 ms may also worsen by 20 ms
    setup = [v * 1e-3 for v in parent]
    slower_setup = [v + 0.015 for v in setup]
    assert compare_py.judge(setup, slower_setup, "lower", 0.1, "s")["verdict"] == "within bound"
    assert compare_py.judge(setup, slower_setup, "lower", 0.1)["verdict"] == "regressed"
    much_slower = [v + 0.025 for v in setup]
    assert compare_py.judge(setup, much_slower, "lower", 0.1, "s")["verdict"] == "regressed"
