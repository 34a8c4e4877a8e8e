"""Unit tests for metrics primitives."""

import json

import pytest

from repro.sim.metrics import (
    LatencyReservoir,
    PowerIntegrator,
    RunMetrics,
    ThroughputMeter,
    TimeSeries,
    percentile,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 0.99) == 5.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)

    def test_median_odd(self):
        assert percentile([1.0, 2.0, 9.0], 0.5) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencyReservoir:
    def test_basic_stats(self):
        r = LatencyReservoir()
        for v in (1.0, 2.0, 3.0):
            r.record(v)
        assert r.count == 3
        assert r.mean == pytest.approx(2.0)
        assert r.max == 3.0

    def test_p99_of_uniform_ramp(self):
        r = LatencyReservoir()
        for i in range(1000):
            r.record(float(i))
        assert r.p99() == pytest.approx(989.01, rel=0.01)
        assert r.p50() == pytest.approx(499.5, rel=0.01)

    def test_negative_rejected(self):
        r = LatencyReservoir()
        with pytest.raises(ValueError):
            r.record(-1.0)

    def test_empty_quantile_zero(self):
        assert LatencyReservoir().p99() == 0.0

    def test_reservoir_bounded_memory(self):
        r = LatencyReservoir(max_samples=100)
        for i in range(10_000):
            r.record(float(i % 50))
        assert len(r._samples) == 100
        assert r.count == 10_000
        # all sampled values must come from the recorded population
        assert all(0 <= v < 50 for v in r._samples)

    def test_reservoir_sampling_roughly_unbiased(self):
        r = LatencyReservoir(max_samples=500)
        # bimodal population: half zeros, half hundreds
        for i in range(20_000):
            r.record(0.0 if i % 2 == 0 else 100.0)
        assert 30.0 < r.quantile(0.5 - 1e-9) or r.quantile(0.6) == 100.0

    @pytest.mark.parametrize("already_recorded", [0, 40, 300])
    def test_record_many_equals_per_value_record(self, already_recorded):
        """Bulk recording leaves the state (samples, running sum, max,
        count and sampling RNG) bit-identical to per-value ``record``,
        including the crossing of ``max_samples``."""
        import random

        rng = random.Random(11)
        # values whose running float sum depends on the addition order
        values = [rng.lognormvariate(-11.0, 2.0) for _ in range(700)]
        values[5] = 1e-3
        head = [rng.random() * 1e-4 for _ in range(already_recorded)]

        one_by_one = LatencyReservoir(max_samples=256, seed=3)
        bulk = LatencyReservoir(max_samples=256, seed=3)
        for value in head:
            one_by_one.record(value)
            bulk.record(value)
        for value in values:
            one_by_one.record(value)
        bulk.record_many(values)

        assert bulk.count > 256
        assert bulk.state_dict() == one_by_one.state_dict()
        assert repr(bulk.state_dict()["sum"]) == repr(one_by_one.state_dict()["sum"])

    def test_record_many_rejects_negative_atomically(self):
        r = LatencyReservoir()
        r.record(1.0)
        before = r.state_dict()
        with pytest.raises(ValueError, match="negative"):
            r.record_many([2.0, -1.0, 3.0])
        assert r.state_dict() == before

    def test_record_many_empty_is_noop(self):
        r = LatencyReservoir()
        r.record_many([])
        assert r.count == 0 and r.mean == 0.0


class TestThroughputMeter:
    def test_rates(self):
        m = ThroughputMeter()
        m.start_window(0.0)
        m.record(125_000_000, npackets=1000)  # 1 Gbit
        assert m.gbps(1.0) == pytest.approx(1.0)
        assert m.mpps(1.0) == pytest.approx(0.001)

    def test_zero_elapsed(self):
        m = ThroughputMeter()
        m.start_window(5.0)
        assert m.gbps(5.0) == 0.0

    def test_negative_rejected(self):
        m = ThroughputMeter()
        with pytest.raises(ValueError):
            m.record(-1)


class TestPowerIntegrator:
    def test_constant_level(self):
        p = PowerIntegrator()
        p.set_level("idle", 100.0, 0.0)
        assert p.average_watts(10.0) == pytest.approx(100.0)
        assert p.energy_joules(10.0) == pytest.approx(1000.0)

    def test_level_change_weighted(self):
        p = PowerIntegrator()
        p.set_level("cpu", 0.0, 0.0)
        p.set_level("cpu", 100.0, 5.0)
        assert p.average_watts(10.0) == pytest.approx(50.0)

    def test_multiple_components(self):
        p = PowerIntegrator()
        p.set_level("a", 10.0, 0.0)
        p.set_level("b", 20.0, 0.0)
        assert p.average_watts(2.0) == pytest.approx(30.0)
        assert p.average_watts(2.0, "a") == pytest.approx(10.0)
        assert set(p.components()) == {"a", "b"}

    def test_instantaneous(self):
        p = PowerIntegrator()
        p.set_level("a", 42.0, 0.0)
        assert p.instantaneous_watts() == 42.0

    def test_backwards_time_rejected(self):
        p = PowerIntegrator()
        p.set_level("a", 1.0, 5.0)
        with pytest.raises(ValueError):
            p.set_level("a", 2.0, 1.0)

    def test_negative_power_rejected(self):
        p = PowerIntegrator()
        with pytest.raises(ValueError):
            p.set_level("a", -1.0, 0.0)

    def test_same_instant_same_level_writes_change_no_energy(self):
        """A write at the last update's instant with the level already
        set integrates nothing; skipping it must leave every energy
        float as an integrator that always advances leaves it, also
        right after a checkpoint restore rebinds the level table."""

        class AlwaysAdvances(PowerIntegrator):
            def set_level(self, component, watts, now):
                self._advance(now)
                if component not in self._energy:
                    self._energy[component] = 0.0
                self._levels[component] = watts

        writes = [
            ("a", 10.0, 0.0), ("b", 3.3, 0.0), ("a", 10.0, 0.0),
            ("a", 12.7, 0.1), ("b", 3.3, 0.1), ("a", 12.7, 0.1),
            ("b", 0.0, 0.1), ("b", 0.0, 0.1), ("a", 12.7, 0.3),
            ("a", 12.7, 0.3), ("c", 5.0, 0.3), ("c", 5.0, 0.3),
        ]
        after_restore = [
            ("a", 12.7, 0.3), ("c", 5.0, 0.3), ("b", 0.0, 0.45),
            ("b", 0.0, 0.45), ("b", 7.1, 0.45), ("a", 1.9, 0.7),
        ]
        skipping, reference = PowerIntegrator(), AlwaysAdvances()
        advances = []
        advance = skipping._advance
        skipping._advance = lambda now: advances.append(now) or advance(now)
        for integrator in (skipping, reference):
            for write in writes:
                integrator.set_level(*write)
            state = json.loads(json.dumps(integrator.state_dict()))
            integrator.restore_state(state)
            for write in after_restore:
                integrator.set_level(*write)
        assert len(advances) < len(writes) + len(after_restore)
        for component in ("a", "b", "c", None):
            assert (
                skipping.energy_joules(0.9, component).hex()
                == reference.energy_joules(0.9, component).hex()
            )
        assert skipping.state_dict() == reference.state_dict()
        assert list(skipping._levels) == list(reference._levels)


class TestTimeSeries:
    def test_append_and_stats(self):
        ts = TimeSeries("rates")
        ts.append(0.0, 1.0)
        ts.append(1.0, 3.0)
        assert len(ts) == 2
        assert ts.mean == pytest.approx(2.0)
        assert ts.maximum == 3.0

    def test_time_order_enforced(self):
        ts = TimeSeries("x")
        ts.append(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_empty_stats(self):
        ts = TimeSeries("empty")
        assert ts.mean == 0.0
        assert ts.maximum == 0.0


class TestRunMetrics:
    def test_throughput(self):
        m = RunMetrics(duration_s=2.0, delivered_bytes=250_000_000)
        assert m.throughput_gbps == pytest.approx(1.0)

    def test_zero_duration(self):
        assert RunMetrics().throughput_gbps == 0.0

    def test_drop_rate(self):
        m = RunMetrics(generated_packets=100, dropped_packets=5)
        assert m.drop_rate == pytest.approx(0.05)
        assert RunMetrics().drop_rate == 0.0

    def test_energy_efficiency(self):
        m = RunMetrics(duration_s=1.0, delivered_bytes=12_500_000_000)
        m.average_power_w = 200.0
        assert m.energy_efficiency == pytest.approx(0.5)
        m.average_power_w = 0.0
        assert m.energy_efficiency == 0.0

    def test_latency_conversions(self):
        m = RunMetrics()
        m.latency.record(100e-6)
        assert m.p99_latency_us == pytest.approx(100.0)
        assert m.mean_latency_us == pytest.approx(100.0)


class TestSerialization:
    def test_reservoir_round_trip(self):
        from repro.sim.metrics import LatencyReservoir

        reservoir = LatencyReservoir(max_samples=100, seed=9)
        for i in range(50):
            reservoir.record(i * 1e-6)
        restored = LatencyReservoir.from_dict(reservoir.to_dict())
        assert restored.count == reservoir.count
        assert restored.mean == reservoir.mean
        assert restored.max == reservoir.max
        for q in (0.5, 0.99, 0.999):
            assert restored.quantile(q) == reservoir.quantile(q)

    def test_reservoir_round_trip_is_json_safe(self):
        import json

        from repro.sim.metrics import LatencyReservoir

        reservoir = LatencyReservoir()
        reservoir.record(1.25e-6)
        reservoir.record(7.375e-6)
        data = json.loads(json.dumps(reservoir.to_dict()))
        assert LatencyReservoir.from_dict(data).p99() == reservoir.p99()

    def test_run_metrics_round_trip(self):
        import json

        m = RunMetrics(
            offered_gbps=40.0,
            duration_s=0.25,
            delivered_bytes=1_000_000,
            delivered_packets=667,
            dropped_packets=3,
            generated_packets=670,
            average_power_w=250.5,
            power_breakdown={"host": 200.0, "snic": 50.5},
            snic_share=0.4,
            extras={"final_backlog_packets": 12.0},
        )
        m.latency.record(50e-6)
        m.latency.record(80e-6)
        restored = RunMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert restored.to_dict() == m.to_dict()
        assert restored.throughput_gbps == m.throughput_gbps
        assert restored.p99_latency_us == m.p99_latency_us
        assert restored.drop_rate == m.drop_rate
        assert restored.energy_efficiency == m.energy_efficiency


class TestQuantileSortCache:
    def test_sorted_view_reused_across_queries(self):
        from repro.sim.metrics import LatencyReservoir

        reservoir = LatencyReservoir()
        for value in (3.0, 1.0, 2.0):
            reservoir.record(value)
        assert reservoir._sorted is None
        reservoir.p50()
        first = reservoir._sorted
        assert first == [1.0, 2.0, 3.0]
        reservoir.p99()
        reservoir.p999()
        assert reservoir._sorted is first  # no re-sort between queries

    def test_record_invalidates_sorted_view(self):
        from repro.sim.metrics import LatencyReservoir

        reservoir = LatencyReservoir()
        reservoir.record(2.0)
        assert reservoir.quantile(1.0) == 2.0
        reservoir.record(5.0)
        assert reservoir._sorted is None
        assert reservoir.quantile(1.0) == 5.0
