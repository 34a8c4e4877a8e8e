"""Tests for the fleet telemetry plane core: bounded downsampled
series, probe delta shipping, SLO rules/monitors, the JSONL run journal
(including crash-truncation recovery), Prometheus snapshots, the live
ticker, worker log capture, and deterministic probe ordering."""

import io
import json

import pytest

from repro.obs import log as obs_log
from repro.obs.fleet import (
    DownsampledSeries,
    FleetTelemetry,
    LiveTicker,
    ProbeDeltaTap,
    prometheus_text,
    write_prometheus_snapshot,
)
from repro.obs.flight import FlightRecorder
from repro.obs.journal import (
    RunJournal,
    encode_record,
    read_journal,
    summarize_journal,
)
from repro.obs.probes import ProbeRegistry
from repro.obs.slo import SloMonitor, SloRule, evaluate_rules, parse_slo_rule

# -- bounded series -----------------------------------------------------


class TestDownsampledSeries:
    def test_memory_stays_bounded_and_coverage_uniform(self):
        series = DownsampledSeries("watts", max_points=64)
        for i in range(100_000):
            series.append(i * 0.02, float(i))
        assert 32 <= len(series) <= 64
        assert series.count == 100_000
        # retained points span the whole run, not just a prefix
        assert series.times[0] == 0.0
        assert series.times[-1] >= 0.02 * (100_000 - series.stride)

    def test_stride_doubles_on_overflow(self):
        series = DownsampledSeries("x", max_points=4)
        for i in range(5):
            series.append(float(i), float(i))
        assert series.stride == 2
        assert series.values == [0.0, 2.0, 4.0]

    def test_running_stats_cover_every_sample(self):
        series = DownsampledSeries("x", max_points=4)
        values = [5.0, -1.0, 3.0, 7.0, 2.0, 2.0, 2.0, 2.0, 9.0]
        for i, value in enumerate(values):
            series.append(float(i), value)
        assert series.count == len(values)
        assert series.minimum == -1.0
        assert series.maximum == 9.0
        assert series.last == 9.0
        assert series.mean == pytest.approx(sum(values) / len(values))

    def test_deterministic_retention(self):
        def run():
            series = DownsampledSeries("x", max_points=16)
            for i in range(1000):
                series.append(i * 0.5, float(i * i % 97))
            return (series.times, series.values, series.stride)

        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValueError):
            DownsampledSeries("x", max_points=2)


# -- deterministic probe ordering (regression) --------------------------


class TestProbeOrdering:
    def _scrambled(self):
        registry = ProbeRegistry()
        for name in ("zeta", "alpha", "mid", "beta"):
            registry.counter(f"c/{name}").inc(1.0)
            registry.gauge(f"g/{name}").set(2.0)
            registry.series(f"s/{name}").sample(0.0, 3.0)
        return registry

    def test_snapshot_is_sorted_regardless_of_insertion_order(self):
        snapshot = self._scrambled().snapshot()
        for kind in ("counters", "gauges", "series"):
            names = list(snapshot[kind])
            assert names == sorted(names)

    def test_iterators_walk_sorted(self):
        registry = self._scrambled()
        assert [n for n, _ in registry.counters()] == sorted(
            n for n, _ in registry.counters()
        )
        assert [n for n, _ in registry.gauges()] == sorted(
            n for n, _ in registry.gauges()
        )
        assert [n for n, _ in registry.series_items()] == sorted(
            n for n, _ in registry.series_items()
        )

    def test_to_csv_default_order_is_sorted(self):
        lines = self._scrambled().to_csv().splitlines()
        series_col = [line.split(",")[0] for line in lines[1:]]
        assert series_col == sorted(series_col)

    def test_snapshot_bytes_insertion_order_independent(self):
        forward = ProbeRegistry()
        backward = ProbeRegistry()
        names = ["b", "a", "c"]
        for name in names:
            forward.counter(name).inc()
        for name in reversed(names):
            backward.counter(name).inc()
        assert json.dumps(forward.snapshot()) == json.dumps(backward.snapshot())


# -- probe delta tap ----------------------------------------------------


class TestProbeDeltaTap:
    def test_counters_ship_deltas_not_dumps(self):
        registry = ProbeRegistry()
        tap = ProbeDeltaTap(registry)
        registry.counter("rack/bits").inc(100.0)
        registry.gauge("rack/power_w").set(50.0)
        first = tap.collect()
        assert first == {
            "counters": {"rack/bits": 100.0},
            "gauges": {"rack/power_w": 50.0},
        }
        registry.counter("rack/bits").inc(25.0)
        registry.gauge("rack/power_w").set(60.0)
        second = tap.collect()
        assert second["counters"] == {"rack/bits": 25.0}
        assert second["gauges"] == {"rack/power_w": 60.0}

    def test_unchanged_counters_are_omitted(self):
        registry = ProbeRegistry()
        tap = ProbeDeltaTap(registry)
        registry.counter("a").inc(1.0)
        registry.counter("b").inc(1.0)
        tap.collect()
        registry.counter("a").inc(2.0)
        assert tap.collect()["counters"] == {"a": 2.0}


# -- SLO rules and monitors ---------------------------------------------


class TestSlo:
    def test_parse_and_holds(self):
        rule = parse_slo_rule("power_w<=900")
        assert rule == SloRule("power_w", "<=", 900.0)
        assert rule.holds(900.0) and not rule.holds(900.1)
        assert parse_slo_rule("x>=2").holds(2.0)
        assert parse_slo_rule("x<2").holds(1.9) and not parse_slo_rule("x<2").holds(2.0)
        assert parse_slo_rule("x>2").holds(2.1)
        assert parse_slo_rule(" p99_us <= 1.5e3 ").threshold == 1500.0

    def test_parse_rejects_garbage(self):
        for bad in ("power_w", "power_w=900", "<=900", "power_w<=", "a<=b"):
            with pytest.raises(ValueError):
                parse_slo_rule(bad)
        with pytest.raises(ValueError):
            SloRule("x", "==", 1.0)

    def test_monitor_verdict_counts_and_worst(self):
        monitor = SloMonitor(parse_slo_rule("power_w<=100"))
        assert monitor.observe(0, {"power_w": 90.0}) is False
        assert monitor.observe(1, {"power_w": 120.0}) is True
        assert monitor.observe(2, {"power_w": 150.0}) is True
        verdict = monitor.verdict()
        assert verdict["violations"] == 2
        assert verdict["epochs"] == 3
        assert verdict["first_violation_epoch"] == 1
        assert verdict["worst"] == 150.0
        assert verdict["passed"] is False

    def test_worst_tracks_violating_direction_for_lower_bounds(self):
        monitor = SloMonitor(parse_slo_rule("throughput>=10"))
        monitor.observe(0, {"throughput": 12.0})
        monitor.observe(1, {"throughput": 4.0})
        assert monitor.verdict()["worst"] == 4.0

    def test_unknown_metric_fails_loudly_listing_known(self):
        monitor = SloMonitor(parse_slo_rule("nosuch<=1"))
        with pytest.raises(KeyError, match="power_w"):
            monitor.observe(0, {"power_w": 1.0, "label": "x"})

    def test_evaluate_rules_batch(self):
        records = [{"epoch": i, "shed_gbps": float(i)} for i in range(5)]
        verdicts = evaluate_rules([parse_slo_rule("shed_gbps<=2")], records)
        assert verdicts[0]["violations"] == 2
        assert verdicts[0]["epochs"] == 5


# -- run journal --------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write({"kind": "meta", "label": "hal", "racks": 2})
            journal.write({"kind": "epoch", "epoch": 0, "power_w": 10.0})
        records, truncated = read_journal(path)
        assert not truncated
        assert [r["kind"] for r in records] == ["meta", "epoch"]

    def test_encode_is_canonical(self):
        assert encode_record({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_truncated_last_line_is_recovered(self, tmp_path):
        path = str(tmp_path / "crash.jsonl")
        with open(path, "w") as fh:
            fh.write(encode_record({"kind": "meta", "label": "x"}) + "\n")
            fh.write(encode_record({"kind": "epoch", "epoch": 0}) + "\n")
            fh.write('{"kind": "epoch", "epo')  # kill -9 mid-write
        records, truncated = read_journal(path)
        assert truncated
        assert len(records) == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
            fh.write(encode_record({"kind": "meta"}) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            read_journal(path)

    def test_non_object_line_raises(self, tmp_path):
        path = str(tmp_path / "array.jsonl")
        with open(path, "w") as fh:
            fh.write("[1,2,3]\n" + encode_record({"kind": "meta"}) + "\n")
        with pytest.raises(ValueError, match="not an object"):
            read_journal(path)

    def test_write_after_close_raises(self, tmp_path):
        journal = RunJournal(str(tmp_path / "x.jsonl"))
        journal.close()
        with pytest.raises(ValueError):
            journal.write({"kind": "meta"})

    def test_summarize_interrupted_and_truncated(self):
        records = [
            {"kind": "meta", "label": "hal", "racks": 2, "epochs": 10,
             "epoch_s": 0.02},
            {"kind": "epoch", "epoch": 0, "power_w": 100.0,
             "shed_gbps": 0.5, "p99_us": 40.0},
        ]
        lines = summarize_journal(records, truncated=True)
        text = "\n".join(lines)
        assert "run hal: 2 racks, 1/10 epochs journaled" in text
        assert "interrupted" in text
        assert "truncated" in text

    def test_summarize_interrupt_record(self):
        records = [
            {"kind": "meta", "label": "hal", "racks": 2, "epochs": 10,
             "epoch_s": 0.02},
            {"kind": "epoch", "epoch": 0, "power_w": 100.0,
             "shed_gbps": 0.0, "p99_us": 40.0},
            {"kind": "interrupt", "label": "hal", "epoch": 1,
             "signal": "SIGINT", "resumable": True},
        ]
        text = "\n".join(summarize_journal(records))
        assert "interrupted by SIGINT after epoch 1" in text
        assert "checkpointed, resumable" in text
        assert "(no finish record" not in text

    def test_summarize_interrupt_without_checkpoint(self):
        records = [
            {"kind": "meta", "label": "hal", "racks": 2, "epochs": 10,
             "epoch_s": 0.02},
            {"kind": "interrupt", "label": "hal", "epoch": 2,
             "signal": "", "resumable": False},
        ]
        text = "\n".join(summarize_journal(records))
        assert "interrupted by pause after epoch 2 (no checkpoint)" in text

    def test_interrupt_then_resumed_run_renders_both(self):
        """An interrupt block followed by the resumed run's records is
        exactly what ``repro fabric --resume`` appends to the paused
        run's journal."""
        records = [
            {"kind": "meta", "label": "hal", "racks": 1, "epochs": 5,
             "epoch_s": 0.02},
            {"kind": "interrupt", "label": "hal", "epoch": 2,
             "signal": "SIGTERM", "resumable": True},
            {"kind": "meta", "label": "hal", "racks": 1, "epochs": 5,
             "epoch_s": 0.02},
            {"kind": "finish", "label": "hal", "fleet": {}, "slo": []},
        ]
        text = "\n".join(summarize_journal(records))
        assert "interrupted by SIGTERM" in text
        assert text.count("run hal:") == 2

    def test_journal_append_mode_preserves_existing_records(self, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        with RunJournal(path) as journal:
            journal.write({"kind": "meta", "label": "first"})
        with RunJournal(path, append=True) as journal:
            journal.write({"kind": "meta", "label": "second"})
        records, truncated = read_journal(path)
        assert [r["label"] for r in records] == ["first", "second"]
        assert not truncated

    def test_summarize_finished_run_with_verdicts(self):
        records = [
            {"kind": "meta", "label": "hal", "racks": 1, "epochs": 1,
             "epoch_s": 0.02},
            {"kind": "epoch", "epoch": 0, "power_w": 5.0, "shed_gbps": 0.0,
             "p99_us": 1.0},
            {"kind": "slo", "epoch": 0, "rule": "power_w<=1", "value": 5.0},
            {"kind": "finish", "label": "hal", "fleet": {}, "slo": [
                {"rule": "power_w<=1", "passed": False, "violations": 1,
                 "epochs": 1, "worst": 5.0},
            ]},
        ]
        text = "\n".join(summarize_journal(records))
        assert "slo power_w<=1: FAIL (1/1 epochs violated" in text
        assert "slo violations journaled: 1" in text


# -- Prometheus snapshot ------------------------------------------------


class TestPrometheus:
    RECORD = {
        "epoch": 3, "t_s": 0.08, "offered_gbps": 10.0, "admitted_gbps": 9.0,
        "shed_gbps": 1.0, "power_w": 450.0, "awake": 6.0, "draining": 1.0,
        "hot_racks": 2, "parked_racks": 1, "throttle": 0.9,
        "backlog_packets": 12.0, "rxq_occupancy": 3, "p99_us": 120.0,
        "rack_flaps": 2, "rack_power_w": [200.0, 250.0],
        "rack_dispatched_gbps": [5.0, 4.0], "rack_awake": [4.0, 2.0],
    }

    def test_text_format(self):
        text = prometheus_text([("hal", self.RECORD)])
        assert '# TYPE hal_fabric_power_w gauge' in text
        assert 'hal_fabric_power_w{run="hal"} 450' in text
        assert 'hal_fabric_rack_power_w{run="hal",rack="1"} 250' in text
        assert text.endswith("\n")

    def test_snapshot_write_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "prom.txt")
        write_prometheus_snapshot(path, [("hal", self.RECORD)])
        first = open(path).read()
        write_prometheus_snapshot(path, [("hal", dict(self.RECORD, epoch=4))])
        second = open(path).read()
        assert 'hal_fabric_epoch{run="hal"} 3' in first
        assert 'hal_fabric_epoch{run="hal"} 4' in second
        assert not (tmp_path / "prom.txt.tmp").exists()


# -- live ticker --------------------------------------------------------


class TestLiveTicker:
    RECORD = {
        "offered_gbps": 10.0, "shed_gbps": 0.5, "power_w": 450.0,
        "awake": 6.0, "hot_racks": 2, "p99_us": 120.0,
    }

    def test_plain_stream_gets_sparse_lines(self):
        stream = io.StringIO()
        ticker = LiveTicker(stream=stream)
        for epoch in range(100):
            ticker.update("hal", epoch, 100, self.RECORD)
        ticker.close()
        lines = stream.getvalue().splitlines()
        assert 5 <= len(lines) <= 15
        assert "epoch 100/100" in lines[-1]

    def test_explicit_cadence(self):
        stream = io.StringIO()
        ticker = LiveTicker(stream=stream, refresh_epochs=1)
        for epoch in range(3):
            ticker.update("hal", epoch, 3, self.RECORD)
        assert len(stream.getvalue().splitlines()) == 3


# -- worker log capture -------------------------------------------------


class TestLogCapture:
    def test_capture_diverts_and_emit_at_replays(self):
        stream = io.StringIO()
        records = []
        level = obs_log.get_level()
        obs_log.set_stream(stream)
        obs_log.set_level(obs_log.INFO)
        try:
            logger = obs_log.get_logger("test.capture")
            obs_log.set_capture(records.append)
            try:
                logger.info("evt", value=7)
            finally:
                obs_log.set_capture(None)
            assert stream.getvalue() == ""  # diverted, not printed
            assert records == [("test.capture", obs_log.INFO, "evt", {"value": 7})]
            name, level, event, fields = records[0]
            obs_log.get_logger(name).emit_at(
                level, event, **fields, worker=1, shards="0:2"
            )
            line = stream.getvalue().strip()
            assert line == "test.capture evt value=7 worker=1 shards=0:2"
        finally:
            obs_log.set_capture(None)
            obs_log.set_level(level)
            obs_log.set_stream(obs_log.sys.stderr)

    def test_capture_respects_level_filter(self):
        records = []
        level = obs_log.get_level()
        obs_log.set_level(obs_log.INFO)
        obs_log.set_capture(records.append)
        try:
            obs_log.get_logger("test.capture").debug("hidden")
        finally:
            obs_log.set_capture(None)
            obs_log.set_level(level)
        assert records == []


# -- flight recorder SLO lines ------------------------------------------


class TestFlightSlo:
    def test_summary_lines_surface_failed_rules(self):
        flight = FlightRecorder()
        flight.record_run(
            "hal",
            throughput_gbps=10.0,
            slo=[
                {"rule": "power_w<=1", "passed": False, "violations": 3,
                 "epochs": 10, "worst": 450.0, "first_violation_epoch": 0},
                {"rule": "shed_gbps<=5", "passed": True, "violations": 0,
                 "epochs": 10, "worst": 0.0, "first_violation_epoch": None},
            ],
        )
        text = "\n".join(flight.summary_lines())
        assert "slo=FAIL(1 rule)" in text
        assert "slo power_w<=1: 3/10 epochs violated" in text
        assert "shed_gbps<=5" not in text.split("\n")[1]  # passing rule not detailed

    def test_summary_lines_ok_when_all_pass(self):
        flight = FlightRecorder()
        flight.record_run(
            "hal", slo=[{"rule": "x<=1", "passed": True, "violations": 0}]
        )
        assert "slo=ok" in flight.summary_lines()[0]


# -- the plane over a synthetic run -------------------------------------


def _summaries(racks, power_w=100.0, draining=0.0, p99_us=50.0):
    return [
        {
            "dispatched_gbps": 5.0,
            "delivered_gbps": 5.0,
            "power_w": power_w,
            "rxq_occupancy": 2.0,
            "awake": 2.0,
            "backlog_packets": 1.0,
            "dropped_packets": 0.0,
            "probes": {
                "counters": {},
                "gauges": {"rack/draining": draining, "rack/p99_us": p99_us},
            },
        }
        for _ in range(racks)
    ]


class TestFleetTelemetry:
    def _drive(self, tmp_path, epochs=6, rules=("power_w<=250",)):
        telemetry = FleetTelemetry(
            journal_path=str(tmp_path / "run.jsonl"),
            rules=[parse_slo_rule(text) for text in rules],
        )
        telemetry.begin("hal", racks=2, epochs=epochs, epoch_s=0.02)
        for epoch in range(epochs):
            hot = 1 if epoch < epochs // 2 else 2  # one hot-set change
            telemetry.on_epoch(
                epoch,
                (epoch + 1) * 0.02,
                12.0,
                [10.0, 0.0] if hot == 1 else [6.0, 6.0],
                _summaries(2, power_w=100.0 * (1 + epoch % 2)),
                hot,
                1.0,
            )
        telemetry.end_run({"throughput_gbps": 10.0})
        telemetry.close()
        return telemetry

    def test_records_series_flaps_and_verdicts(self, tmp_path):
        telemetry = self._drive(tmp_path)
        run = telemetry.runs[0]
        assert run.fleet_series["power_w"].count == 6
        assert run.fleet_series["power_w"].maximum == 400.0
        assert run.rack_flaps == 1  # hot set changed once
        record = run.last_record
        assert record["shed_gbps"] == pytest.approx(0.0)
        assert record["parked_racks"] == 0
        assert telemetry.slo_failed  # 400 W epochs violate power_w<=250
        assert telemetry.verdicts()[0]["run"] == "hal"

    def test_journal_has_meta_epoch_slo_finish(self, tmp_path):
        self._drive(tmp_path)
        records, truncated = read_journal(str(tmp_path / "run.jsonl"))
        assert not truncated
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "meta" and kinds[-1] == "finish"
        assert kinds.count("epoch") == 6
        assert kinds.count("slo") == 3  # the 400 W epochs

    def test_trace_session_has_rack_and_fleet_processes(self, tmp_path):
        from repro.obs.export import (
            to_chrome_trace,
            trace_processes,
            validate_chrome_trace,
        )

        telemetry = self._drive(tmp_path)
        trace = to_chrome_trace(telemetry.to_trace_session())
        assert validate_chrome_trace(trace) == []
        processes = trace_processes(trace)
        assert len(processes) == 3  # fleet + 2 racks
        assert any("fleet" in name for name in processes)
        assert any("rack1" in name for name in processes)
        # SLO violations ride as instants on the fleet process
        assert any(
            e.get("name") == "violation"
            for e in trace["traceEvents"]
            if e.get("ph") == "i"
        )

    def test_on_epoch_without_begin_raises(self):
        telemetry = FleetTelemetry()
        with pytest.raises(RuntimeError):
            telemetry.on_epoch(0, 0.02, 1.0, [1.0], _summaries(1), 1, 1.0)
        telemetry.close()

    def test_prom_snapshot_written_at_final_epoch(self, tmp_path):
        prom = tmp_path / "prom.txt"
        telemetry = FleetTelemetry(prom_path=str(prom))
        telemetry.begin("hal", racks=1, epochs=2, epoch_s=0.02)
        for epoch in range(2):
            telemetry.on_epoch(
                epoch, (epoch + 1) * 0.02, 5.0, [5.0], _summaries(1), 1, 1.0
            )
        telemetry.end_run({})
        telemetry.close()
        assert 'hal_fabric_epoch{run="hal"} 1' in prom.read_text()
