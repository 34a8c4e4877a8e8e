"""Integration tests for the fleet telemetry plane over real fabric
runs: the read-only invariant (traced payloads byte-identical to
untraced at every worker count), journal determinism across worker
counts, SLO verdicts on real runs, worker log routing through the
epoch-barrier pipes, multi-process trace export, and the CLI surface
(``--slo-strict`` exit codes, ``repro journal``)."""

import hashlib
import io
import json

import pytest

import repro.exp  # noqa: F401  (import order: exp must load before runner)
from repro.cli import main as cli_main
from repro.exp.server import RunConfig
from repro.obs import log as obs_log
from repro.obs.export import (
    to_chrome_trace,
    trace_processes,
    validate_chrome_trace,
)
from repro.obs.fleet import FleetTelemetry
from repro.obs.journal import read_journal
from repro.obs.slo import parse_slo_rule
from repro.runner.sharded import ShardedRunner
from repro.serve.checkpoint import FabricJobParams, run_resumable

FAST = RunConfig(duration_s=0.1, seed=2024)

# -- logging shard for worker-log-routing tests (module-level:
# resolvable by dotted path in worker processes) ------------------------

LOGGING_FACTORY = "tests.test_fabric_telemetry:build_logging_shard"


class LoggingShard:
    def __init__(self, spec):
        self.spec = spec

    def describe(self):
        return {"spec": self.spec}

    def step(self, value):
        obs_log.get_logger("test.shard").info("stepped", spec=self.spec)
        return {"spec": self.spec, "value": value}

    def finish(self, value):
        return {"spec": self.spec}


def build_logging_shard(spec):
    return LoggingShard(spec)


# -- helpers ------------------------------------------------------------


def _sha(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run(shard_jobs, telemetry=None):
    params = FabricJobParams(
        racks=4, servers=2, dispatch="packing", mix="mix", model_hours=24.0,
        systems=("hal",),
    )
    return run_resumable(
        FAST, params, shard_jobs=shard_jobs, telemetry=telemetry
    ).result


@pytest.fixture(scope="module")
def untraced_sha():
    return _sha(_run(1))


@pytest.fixture(scope="module")
def traced_k1(tmp_path_factory):
    journal = tmp_path_factory.mktemp("telemetry_k1") / "run.jsonl"
    telemetry = FleetTelemetry(
        journal_path=str(journal),
        rules=[parse_slo_rule("power_w<=1.0")],  # deliberately tight
    )
    result = _run(1, telemetry=telemetry)
    telemetry.close()
    return _sha(result), telemetry, journal.read_bytes()


@pytest.fixture(scope="module")
def traced_k2(tmp_path_factory):
    journal = tmp_path_factory.mktemp("telemetry_k2") / "run.jsonl"
    telemetry = FleetTelemetry(
        journal_path=str(journal),
        rules=[parse_slo_rule("power_w<=1.0")],
    )
    result = _run(2, telemetry=telemetry)
    telemetry.close()
    return _sha(result), telemetry, journal.read_bytes()


# -- the read-only invariant --------------------------------------------


class TestReadOnlyTelemetry:
    def test_traced_payload_identical_at_k1(self, untraced_sha, traced_k1):
        assert traced_k1[0] == untraced_sha

    def test_traced_payload_identical_at_k2(self, untraced_sha, traced_k2):
        assert traced_k2[0] == untraced_sha

    def test_journal_bytes_identical_across_worker_counts(
        self, traced_k1, traced_k2
    ):
        # epoch-stamped records only — no wall clock, no pids — so the
        # journal is as worker-count-independent as the payload
        assert traced_k1[2] == traced_k2[2]

    def test_journal_structure(self, traced_k1):
        _, telemetry, raw = traced_k1
        records, truncated = read_journal_bytes(raw)
        assert not truncated
        meta = records[0]
        assert meta["kind"] == "meta" and meta["label"] == "hal"
        kinds = [record["kind"] for record in records]
        assert kinds.count("epoch") == meta["epochs"]
        assert kinds[-1] == "finish"
        # every epoch violates power_w<=1.0 on a real fleet
        assert kinds.count("slo") == meta["epochs"]

    def test_tight_rule_fails_with_verdict_in_flight(self, traced_k1):
        _, telemetry, _ = traced_k1
        assert telemetry.slo_failed
        verdict = telemetry.verdicts()[0]
        assert verdict["run"] == "hal"
        assert verdict["rule"] == "power_w<=1"
        assert verdict["violations"] == verdict["epochs"]
        text = "\n".join(telemetry.flight.summary_lines())
        assert "slo=FAIL" in text


def read_journal_bytes(raw: bytes):
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".jsonl") as handle:
        handle.write(raw)
        handle.flush()
        return read_journal(handle.name)


# -- multi-process fleet trace ------------------------------------------


class TestFleetTrace:
    def test_one_process_per_rack_plus_control_plane(self, traced_k1):
        _, telemetry, _ = traced_k1
        trace = to_chrome_trace(telemetry.to_trace_session())
        assert validate_chrome_trace(trace) == []
        processes = trace_processes(trace)
        assert len(processes) == 5  # hal fleet + 4 racks
        assert sum("fleet" in name for name in processes) == 1
        assert sum("rack" in name for name in processes) == 4


# -- worker log routing -------------------------------------------------


@pytest.fixture()
def log_stream():
    stream = io.StringIO()
    level = obs_log.get_level()
    obs_log.set_stream(stream)
    obs_log.set_level(obs_log.INFO)
    try:
        yield stream
    finally:
        obs_log.set_level(level)
        obs_log.set_stream(obs_log.sys.stderr)


class TestWorkerLogRouting:
    def test_worker_records_come_back_tagged(self, log_stream):
        runner = ShardedRunner([0, 1, 2, 3], LOGGING_FACTORY, jobs=2)
        try:
            runner.step([1.0, 1.0, 1.0, 1.0])
        finally:
            runner.close()
        lines = [l for l in log_stream.getvalue().splitlines() if "stepped" in l]
        assert len(lines) == 4
        assert sum("worker=0 shards=0:2" in l for l in lines) == 2
        assert sum("worker=1 shards=2:4" in l for l in lines) == 2
        assert any("spec=3" in l for l in lines)

    def test_in_process_runner_logs_directly_untagged(self, log_stream):
        runner = ShardedRunner([0, 1], LOGGING_FACTORY, jobs=1)
        try:
            runner.step([1.0, 1.0])
        finally:
            runner.close()
        lines = [l for l in log_stream.getvalue().splitlines() if "stepped" in l]
        assert len(lines) == 2
        assert not any("worker=" in l for l in lines)


# -- CLI surface --------------------------------------------------------


class TestCli:
    FABRIC = [
        "fabric", "--racks", "2", "--servers", "2", "--duration", "0.1",
    ]

    def test_slo_strict_fails_run_and_journal_reader_agrees(self, tmp_path):
        journal = str(tmp_path / "fleet.jsonl")
        trace = str(tmp_path / "fleet_trace.json")
        prom = str(tmp_path / "prom.txt")
        code = cli_main(
            self.FABRIC
            + [
                "--journal", journal, "--slo", "power_w<=1.0", "--slo-strict",
                "--fleet-trace", trace, "--prom-out", prom,
            ]
        )
        assert code == 1  # tight rule + --slo-strict
        records, truncated = read_journal(journal)
        assert not truncated
        labels = {r["label"] for r in records if r["kind"] == "meta"}
        assert labels == {"hal", "host"}
        blob = json.loads(open(trace).read())
        assert validate_chrome_trace(blob) == []
        assert len(trace_processes(blob)) == 6  # 2 systems x (fleet + 2 racks)
        assert "hal_fabric_power_w" in open(prom).read()
        # the reader summarizes it and re-checks the rule
        assert cli_main(["journal", journal]) == 0
        assert (
            cli_main(
                ["journal", journal, "--slo", "power_w<=1.0", "--slo-strict"]
            )
            == 1
        )
        assert cli_main(["journal", journal, "--slo", "power_w<=1e9"]) == 0

    def test_slo_without_strict_reports_but_passes(self, tmp_path):
        code = cli_main(self.FABRIC + ["--slo", "power_w<=1.0"])
        assert code == 0

    def test_bad_rule_is_a_usage_error(self):
        assert cli_main(self.FABRIC + ["--slo", "power_w@900"]) == 2

    def test_journal_usage_errors(self, tmp_path):
        assert cli_main(["journal"]) == 2
        assert cli_main(["journal", str(tmp_path / "missing.jsonl")]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n{}\n")
        assert cli_main(["journal", str(bad)]) == 2
