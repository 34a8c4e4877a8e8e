"""Tests for the checkpoint container and the shard state walkers."""

import json

import pytest

from repro.fabric.shard import RackShard, RackShardSpec
from repro.serve.snapshot import (
    CHECKPOINT_FORMAT,
    SNAPSHOT_VERSION,
    CheckpointError,
    body_sha256,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve.state import restore_shard, shard_state
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        body = {"a": 1, "b": [1.5, "x"], "nested": {"k": None}}
        digest = write_checkpoint(path, "test-kind", body)
        assert digest == body_sha256(body)
        assert read_checkpoint(path, "test-kind") == body

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "shard", {"x": 1})
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, "fabric-experiment")

    def test_kind_unchecked_when_not_given(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "anything", {"x": 1})
        assert read_checkpoint(path) == {"x": 1}

    def test_tampered_body_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "k", {"epoch": 3})
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["body"]["epoch"] = 4
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path, "k")

    def test_wrong_version_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "k", {"x": 1})
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["version"] = SNAPSHOT_VERSION + 1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path, "k")

    def test_version_one_layout_rejected(self, tmp_path):
        """Version 1 bodies carried LBP recurrences as timers; version 2
        records the station-clocked tick cursor instead, and version 3
        drops the always-zero per-member generated count."""
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "k", {"x": 1})
        with open(path) as fh:
            envelope = json.load(fh)
        assert envelope["version"] == SNAPSHOT_VERSION == 3
        envelope["version"] = 1
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        with pytest.raises(CheckpointError, match="version 1"):
            read_checkpoint(path, "k")

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(CheckpointError, match=CHECKPOINT_FORMAT):
            read_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "k", {"x": list(range(100))})
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="JSON"):
            read_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "nope.json"))

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, "k", {"x": 1})
        assert list(tmp_path.iterdir()) == [tmp_path / "ck.json"]


class TestEngineClockSnapshot:
    """The engine half of restore: re-armed timers on a rewound clock
    reproduce the identical event sequence."""

    @staticmethod
    def _build(trace):
        sim = Simulator()
        handles = {
            "a": sim.every(0.3, lambda: trace.append(("a", sim.now))),
            "b": sim.every(0.7, lambda: trace.append(("b", sim.now))),
        }
        return sim, handles

    @pytest.mark.parametrize("cut_at", [0.5, 1.0, 2.05])
    def test_rearm_reproduces_event_sequence(self, cut_at):
        baseline = []
        sim, _ = self._build(baseline)
        sim.run(until=4.0)

        first = []
        sim1, handles1 = self._build(first)
        sim1.run(until=cut_at)
        # snapshot: clock plus (next_time, seq) per live recurrence,
        # exactly what the shard walker records
        clock = sim1.clock_state()
        timers = sorted(
            (h.next_seq, name, h.next_time, h.period)
            for name, h in handles1.items()
        )

        second = list(first)
        sim2, handles2 = self._build(second)
        for handle in handles2.values():
            handle.stop()
        sim2.clear_events()
        sim2.restore_clock(clock["now"], clock["events_processed"])
        for _seq, name, next_time, period in timers:
            cb = {"a": lambda: second.append(("a", sim2.now)),
                  "b": lambda: second.append(("b", sim2.now))}[name]
            sim2.every(period, cb, start=next_time)
        sim2.run(until=4.0)

        assert second == baseline

    def test_clear_events_reports_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.clear_events() == 2
        assert sim.clear_events() == 0


class TestRngSnapshot:
    def test_registry_round_trip_mid_stream(self):
        reg = RngRegistry(42)
        a, b = reg.stream("alpha"), reg.stream("beta")
        [a.random() for _ in range(10)]
        [b.random() for _ in range(3)]
        state = reg.state_dict()
        expected = [a.random() for _ in range(20)] + [b.random() for _ in range(20)]

        reg2 = RngRegistry(42)
        a2, b2 = reg2.stream("alpha"), reg2.stream("beta")
        reg2.restore_state(state)
        got = [a2.random() for _ in range(20)] + [b2.random() for _ in range(20)]
        assert got == expected

    def test_restore_covers_streams_created_after_snapshot(self):
        reg = RngRegistry(7)
        reg.stream("only").random()
        state = reg.state_dict()
        reg2 = RngRegistry(7)
        reg2.restore_state(state)
        # a stream the snapshot knew about resumes; a brand-new one is
        # derived fresh, deterministically, from the registry seed
        assert reg2.stream("only").random() == reg.stream("only").random()
        assert reg2.stream("new").random() == RngRegistry(7).stream("new").random()


def _spec(epochs=10, telemetry=False, seed=7):
    return RackShardSpec(
        index=0,
        member_kind="hal",
        function="rem",
        servers=2,
        policy="packing",
        seed=seed,
        flow_interval_s=1e-3,
        epoch_s=0.02,
        epochs=epochs,
        packet_bytes=1024,
        train_multiplicity=4,
        telemetry=telemetry,
    )


#: per-epoch offered rates with enough swing to exercise sleep/wake
_RATES = [18.0, 2.0, 25.0, 1.0, 20.0, 3.0, 22.0, 2.0, 19.0, 24.0]


class TestShardRoundTrip:
    @pytest.mark.parametrize("cut", [1, 4, 8])
    def test_restored_shard_replays_identically(self, cut):
        baseline = RackShard(_spec())
        expected = [baseline.step(r) for r in _RATES]
        expected_finish = baseline.finish(sum(_RATES) / len(_RATES))

        shard = RackShard(_spec())
        head = [shard.step(r) for r in _RATES[:cut]]
        state = shard_state(shard)
        assert json.loads(json.dumps(state)) == state  # JSON-safe

        fresh = RackShard(_spec())
        assert restore_shard(fresh, state) is True
        tail = [fresh.step(r) for r in _RATES[cut:]]
        finish = fresh.finish(sum(_RATES) / len(_RATES))

        assert head + tail == expected
        assert finish == expected_finish

    def test_restore_is_byte_identical_not_approximate(self):
        shard = RackShard(_spec())
        for r in _RATES[:5]:
            shard.step(r)
        state = shard_state(shard)
        fresh = RackShard(_spec())
        restore_shard(fresh, state)
        blob_a = json.dumps([fresh.step(r) for r in _RATES[5:]], sort_keys=True)

        baseline = RackShard(_spec())
        for r in _RATES[:5]:
            baseline.step(r)
        blob_b = json.dumps([baseline.step(r) for r in _RATES[5:]], sort_keys=True)
        assert blob_a == blob_b

    def test_lbp_is_component_state_not_a_timer(self):
        """Flow-mode Algorithm 1 is station-clocked: the walker records
        each policy's tick cursor and the timer inventory has no LBP."""
        shard = RackShard(_spec())
        shard.step(_RATES[0])
        state = shard_state(shard)
        assert {timer["kind"] for timer in state["timers"]} <= {
            "stepper_tick", "autoscaler_tick", "wake",
        }
        for member, member_state in zip(shard.cluster.members, state["members"]):
            assert member_state["lbp"]["next_tick_s"] == member.lbp.next_tick_s
        # ticks since the last station advance are still pending
        assert state["members"][0]["lbp"]["next_tick_s"] <= state["clock"]["now"]

        fresh = RackShard(_spec())
        restore_shard(fresh, state)
        for member, original in zip(fresh.cluster.members, shard.cluster.members):
            assert member.lbp.next_tick_s == original.lbp.next_tick_s
        assert fresh.cluster.sim.pending() == shard.cluster.sim.pending()

    def test_spec_mismatch_rejected(self):
        shard = RackShard(_spec())
        shard.step(10.0)
        state = shard_state(shard)
        with pytest.raises(ValueError, match="spec"):
            restore_shard(RackShard(_spec(seed=8)), state)

    def test_telemetry_flag_does_not_block_restore(self):
        """A checkpoint taken without telemetry resumes under telemetry
        (and vice versa) — the probe tap never changes evolution."""
        plain = RackShard(_spec())
        for r in _RATES[:4]:
            plain.step(r)
        state = shard_state(plain)
        observed = RackShard(_spec(telemetry=True))
        restore_shard(observed, state)
        resumed = [observed.step(r) for r in _RATES[4:]]

        baseline = RackShard(_spec())
        for r in _RATES[:4]:
            baseline.step(r)
        expected = [baseline.step(r) for r in _RATES[4:]]
        stripped = [
            {k: v for k, v in summary.items() if k != "probes"}
            for summary in resumed
        ]
        assert stripped == expected

    def test_finished_shard_cannot_snapshot(self):
        spec = _spec(epochs=2)
        shard = RackShard(spec)
        shard.step(10.0)
        shard.step(10.0)
        shard.finish(10.0)
        with pytest.raises(ValueError, match="finished"):
            shard_state(shard)


class TestPacketModeReplay:
    """Packet mode has no mid-run snapshot; its checkpoint strategy is
    deterministic replay — which is sound only if identical inputs give
    byte-identical payloads.  Gate that property directly."""

    def test_packet_run_is_byte_identical_across_runs(self):
        from repro.exp.server import RunConfig
        from repro.runner.executor import execute_job
        from repro.runner.spec import JobSpec

        spec = JobSpec.at_rate("hal", "rem", 12.0, RunConfig(duration_s=0.02))
        one = execute_job(spec)
        two = execute_job(spec)
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
