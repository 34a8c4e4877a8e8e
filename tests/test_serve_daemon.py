"""Tests for the serve daemon, its HTTP API, and the drain signal.

Every test runs the daemon in-process (real sockets on an ephemeral
loopback port) so a "daemon restart" is just a second ServeDaemon on
the same state directory — the same recovery path the CI smoke gate
exercises across real processes.
"""

import hashlib
import json
import os
import signal
import threading

import pytest

import repro.serve.daemon
from repro.exp.server import RunConfig
from repro.runner.sharded import DrainSignal
from repro.serve.checkpoint import FabricJobParams, run_resumable
from repro.serve.client import ServeClient, ServeError, connect, read_daemon_info
from repro.serve.daemon import ServeDaemon

RUN_CONFIG = {"duration_s": 0.1}
PARAMS = {"racks": 2, "servers": 2}


@pytest.fixture(scope="module")
def uninterrupted_sha():
    outcome = run_resumable(
        RunConfig(**RUN_CONFIG), FabricJobParams(**PARAMS)
    )
    blob = json.dumps(
        outcome.result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class DaemonHarness:
    """One in-process daemon plus a client bound to it."""

    def __init__(self, state_dir):
        self.daemon = ServeDaemon(state_dir=str(state_dir))
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )
        self.thread.start()
        self.client = ServeClient(port=self.daemon.port)

    def stop(self):
        self.daemon._server.shutdown()
        self.thread.join(timeout=10)
        self.daemon.close()


@pytest.fixture
def harness(tmp_path):
    h = DaemonHarness(tmp_path / "state")
    yield h
    h.stop()


#: the epoch barrier a gated fabric job is held at
GATE_EPOCH = 2


class BarrierGate:
    """Holds the next daemon fabric job at one epoch barrier.

    Wraps the daemon's ``run_resumable`` so that the job's
    ``should_pause`` hook, the first time it reaches :data:`GATE_EPOCH`,
    sets ``reached`` and blocks on ``release`` before the daemon reads
    its pause flag.  A test sends its checkpoint or cancel request in
    between, so the job pauses at that barrier however fast it runs.
    """

    def __init__(self, monkeypatch):
        self.reached = threading.Event()
        self.release = threading.Event()
        self._armed = True
        run_resumable = repro.serve.daemon.run_resumable

        def gated(*args, should_pause, **kwargs):
            def hook(system, epoch):
                if self._armed and epoch == GATE_EPOCH:
                    self._armed = False
                    self.reached.set()
                    self.release.wait(timeout=60.0)
                return should_pause(system, epoch)

            return run_resumable(*args, should_pause=hook, **kwargs)

        monkeypatch.setattr(repro.serve.daemon, "run_resumable", gated)

    def hold(self, timeout=60.0):
        """Block until the gated job sits at the barrier."""
        if not self.reached.wait(timeout):
            raise AssertionError(f"job never reached epoch {GATE_EPOCH}")


@pytest.fixture
def gate(monkeypatch):
    g = BarrierGate(monkeypatch)
    yield g
    g.release.set()


class TestApiBasics:
    def test_health(self, harness):
        health = harness.client.health()
        assert health["ok"] is True
        assert health["pid"] == os.getpid()

    def test_daemon_json_discovery(self, harness, tmp_path):
        info = read_daemon_info(str(tmp_path / "state"))
        assert info["port"] == harness.daemon.port
        client = connect(str(tmp_path / "state"), wait_s=5.0)
        assert client.health()["ok"]

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.status("job-999")
        assert err.value.code == 404

    def test_bad_submit_is_400(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.submit({"kind": "nonsense"})
        assert err.value.code == 400
        with pytest.raises(ServeError) as err:
            harness.client.submit(
                {"kind": "fabric", "run_config": {"no_such_knob": 1}}
            )
        assert err.value.code == 400

    def test_unknown_route_is_404(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.request("GET", "/nope")
        assert err.value.code == 404

    def test_checkpoint_requires_running_job(self, harness):
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        harness.client.wait(job["id"])
        with pytest.raises(ServeError) as err:
            harness.client.checkpoint(job["id"])
        assert err.value.code == 409


class TestFabricLifecycle:
    def test_submit_runs_to_done(self, harness, uninterrupted_sha):
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        done = harness.client.wait(job["id"])
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha
        # full status carries the payload itself
        assert done["payload"]["experiment"] == "fabric"

    def test_checkpoint_restart_resume_identical(
        self, tmp_path, gate, uninterrupted_sha
    ):
        state_dir = tmp_path / "state"
        first = DaemonHarness(state_dir)
        job = first.client.submit_fabric(RUN_CONFIG, PARAMS, shard_jobs=2)
        gate.hold()
        first.client.checkpoint(job["id"])
        gate.release.set()
        paused = first.client.wait(job["id"])
        assert paused["status"] == "paused"
        assert paused["paused_epoch"] == GATE_EPOCH + 1
        first.stop()

        second = DaemonHarness(state_dir)
        recovered = second.client.status(job["id"])
        assert recovered["status"] == "paused"
        second.client.resume(job["id"])
        done = second.client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha
        second.stop()

    def test_journal_survives_pause_and_pages(self, tmp_path, gate):
        state_dir = tmp_path / "state"
        h = DaemonHarness(state_dir)
        try:
            job = h.client.submit_fabric(RUN_CONFIG, PARAMS)
            gate.hold()
            h.client.checkpoint(job["id"])
            gate.release.set()
            assert h.client.wait(job["id"])["status"] == "paused"
            records, cursor = h.client.journal(job["id"])
            kinds = [r["kind"] for r in records]
            assert kinds[0] == "meta"
            assert "interrupt" in kinds
            # paging: asking from the cursor returns nothing new yet
            more, cursor2 = h.client.journal(job["id"], since=cursor)
            assert more == [] and cursor2 == cursor

            h.client.resume(job["id"])
            h.client.wait(job["id"], timeout=120.0)
            tail, _ = h.client.journal(job["id"], since=cursor)
            tail_kinds = [r["kind"] for r in tail]
            assert "finish" in tail_kinds  # resumed run appended
            assert "interrupt" not in tail_kinds
        finally:
            h.stop()

    def test_cancel_mid_run(self, harness, gate, uninterrupted_sha):
        job = harness.client.submit_fabric(RUN_CONFIG, PARAMS)
        gate.hold()
        assert harness.client.status(job["id"])["status"] == "running"
        harness.client.cancel(job["id"])
        gate.release.set()
        final = harness.client.wait(job["id"])
        assert final["status"] == "cancelled"
        assert final["paused_epoch"] == GATE_EPOCH + 1
        # a cancelled job checkpointed on the way out is resumable
        harness.client.resume(job["id"])
        done = harness.client.wait(job["id"], timeout=120.0)
        assert done["status"] == "done"
        assert done["payload_sha256"] == uninterrupted_sha

    def test_dead_job_without_checkpoint_fails_on_recovery(
        self, tmp_path, gate
    ):
        state_dir = tmp_path / "state"
        h = DaemonHarness(state_dir)
        job = h.client.submit_fabric(RUN_CONFIG, PARAMS)
        gate.hold()
        # the daemon dies while its job sits at a barrier, before any
        # checkpoint was asked for; the held job thread writes nothing
        # while the second daemon recovers
        h.stop()
        h2 = DaemonHarness(state_dir)
        try:
            recovered = h2.client.status(job["id"])
            assert recovered["status"] == "failed"
        finally:
            h2.stop()


class TestSweepJobs:
    def test_sweep_counts_incremental(self, harness):
        specs = [
            {
                "op": "at_rate",
                "kind": "hal",
                "function": "rem",
                "rate_gbps": rate,
                "config": {"duration_s": 0.02},
                "params": [],
            }
            for rate in (5.0, 10.0)
        ]
        job = harness.client.submit_sweep(specs)
        done = harness.client.wait(job["id"])
        assert done["status"] == "done"
        assert done["payload"]["counts"]["ran"] == 2

        again = harness.client.submit_sweep(specs)
        done2 = harness.client.wait(again["id"])
        counts = done2["payload"]["counts"]
        assert counts["cached"] == 2 and counts["ran"] == 0

    def test_bad_sweep_spec_is_400(self, harness):
        with pytest.raises(ServeError) as err:
            harness.client.submit({"kind": "sweep", "specs": [{"op": "bogus"}]})
        assert err.value.code == 400


class TestDrainSignal:
    def test_first_signal_sets_flag(self):
        with DrainSignal() as drain:
            assert not drain.triggered
            os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered
            assert drain.signame == "SIGINT"

    def test_second_signal_raises(self):
        with DrainSignal() as drain:
            os.kill(os.getpid(), signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
            assert drain.triggered

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with DrainSignal():
            pass
        assert signal.getsignal(signal.SIGINT) is before

    def test_inert_off_main_thread(self):
        seen = {}

        def target():
            with DrainSignal() as drain:
                seen["triggered"] = drain.triggered

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert seen == {"triggered": False}
