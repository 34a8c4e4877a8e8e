"""Unit tests for Algorithm 1 (the load-balancing policy)."""

import pytest

from repro.core.hlb import TrafficDirector
from repro.core.lbp import LbpConfig, LoadBalancingPolicy, profiled_initial_threshold
from repro.hw.snic import make_snic_engine
from repro.net.addressing import AddressPlan
from repro.net.packet import Packet
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator

PLAN = AddressPlan.default()


def setup(threshold=10.0, config=None):
    sim = Simulator()
    engine = make_snic_engine(sim, "nat")
    director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=threshold)
    policy = LoadBalancingPolicy(sim, engine, director, config or LbpConfig())
    return sim, engine, director, policy


def fill_queues(engine, packets):
    for i in range(packets):
        engine.receive(Packet(src=PLAN.client, dst=PLAN.snic, flow_id=i))


class TestLbpConfig:
    def test_defaults_valid(self):
        LbpConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(period_s=0.0),
            dict(step_gbps=0.0),
            dict(wm_low_packets=10, wm_high_packets=5),
            dict(min_threshold_gbps=50.0, max_threshold_gbps=10.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LbpConfig(**kwargs)


class TestAlgorithm1:
    def test_no_action_when_throughput_far_below_threshold(self):
        _, _, director, policy = setup(threshold=40.0)
        policy.set_forward_rate(snic_tp_gbps=10.0)  # 40 >= 10 + 5
        assert director.fwd_threshold_gbps == 40.0
        assert policy.adjustments_up == 0

    def test_raises_when_near_threshold_and_queues_empty(self):
        _, _, director, policy = setup(threshold=10.0)
        policy.set_forward_rate(snic_tp_gbps=9.0)  # 10 < 9 + 5, occupancy 0
        assert director.fwd_threshold_gbps > 10.0
        assert policy.adjustments_up == 1

    def test_lowers_when_queues_above_high_watermark(self):
        sim, engine, director, policy = setup(threshold=10.0)
        fill_queues(engine, 8 * (LbpConfig().wm_high_packets + 10))
        policy.set_forward_rate(snic_tp_gbps=9.5)
        assert director.fwd_threshold_gbps < 10.0
        assert policy.adjustments_down == 1

    def test_holds_inside_watermark_band(self):
        cfg = LbpConfig(wm_low_packets=0, wm_high_packets=1000)
        sim, engine, director, policy = setup(threshold=10.0, config=cfg)
        fill_queues(engine, 40)
        policy.set_forward_rate(snic_tp_gbps=9.5)
        assert director.fwd_threshold_gbps == 10.0

    def test_threshold_clamped_to_bounds(self):
        cfg = LbpConfig(step_gbps=50.0, min_threshold_gbps=1.0, max_threshold_gbps=60.0,
                        adaptive_step=False)
        _, engine, director, policy = setup(threshold=55.0, config=cfg)
        policy.set_forward_rate(snic_tp_gbps=54.0)
        assert director.fwd_threshold_gbps == 60.0
        fill_queues(engine, 8 * 200)
        policy.set_forward_rate(snic_tp_gbps=59.0)
        policy.set_forward_rate(snic_tp_gbps=59.0)
        assert director.fwd_threshold_gbps >= 1.0

    def test_adaptive_step_scales_with_overshoot(self):
        base = LbpConfig(adaptive_step=False)
        adaptive = LbpConfig(adaptive_step=True)
        _, engine1, director1, policy1 = setup(threshold=10.0, config=base)
        _, engine2, director2, policy2 = setup(threshold=10.0, config=adaptive)
        for engine in (engine1, engine2):
            fill_queues(engine, 8 * 300)  # way past wm_high
        policy1.set_forward_rate(9.5)
        policy2.set_forward_rate(9.5)
        drop1 = 10.0 - director1.fwd_threshold_gbps
        drop2 = 10.0 - director2.fwd_threshold_gbps
        assert drop2 > drop1

    def test_history_and_callback(self):
        updates = []
        sim, engine, director, _ = setup()
        policy = LoadBalancingPolicy(
            sim, engine, director, LbpConfig(), on_update=updates.append
        )
        policy.set_forward_rate(9.0)
        assert updates
        assert policy.threshold_history[-1] == updates[-1]

    def test_periodic_ticks_drive_policy(self):
        sim, engine, director, policy = setup(threshold=5.0)
        # engine idle, throughput 0: threshold 5 < 0+5 is false... feed it
        fill_queues(engine, 4)
        sim.run(until=0.01)
        # at least some ticks happened without error
        assert sim.events_processed > 10

    def test_stop_halts_ticks(self):
        sim, _, _, policy = setup()
        policy.stop()
        events_before = sim.pending()
        sim.run(until=0.01)
        assert sim.now >= 0.01


class TestStationClocked:
    """``advance_to`` evaluates the ticks a recurrence would have fired,
    at bit-equal times, with no heap events of its own."""

    @staticmethod
    def _pair(threshold):
        eager = setup(threshold=threshold)
        sim = Simulator()
        engine = make_snic_engine(sim, "nat")
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=threshold)
        lazy = LoadBalancingPolicy(sim, engine, director, recurring=False)
        return eager, (sim, engine, director, lazy)

    @pytest.mark.parametrize("threshold", [1.0, 40.0])
    def test_advance_to_matches_recurrence(self, threshold):
        (sim_e, _, director_e, eager), (sim_l, _, director_l, lazy) = self._pair(
            threshold
        )
        # any tracer turns on the decision trace
        eager.tracer = lazy.tracer = NULL_TRACER
        sim_e.run(until=0.00355)
        lazy.advance_to(0.00355)

        assert len(lazy.decisions) == 35
        assert lazy.decisions == eager.decisions
        assert lazy.next_tick_s == eager._stop.next_time
        assert lazy.threshold_history == eager.threshold_history
        assert director_l._tokens_bits == director_e._tokens_bits
        assert director_l._last_refill == director_e._last_refill
        assert lazy._estimator._last_time == eager._estimator._last_time

    def test_no_heap_events_and_idempotent_catch_up(self):
        _, (sim, _, _, lazy) = self._pair(1.0)
        assert sim.pending() == 0
        lazy.advance_to(lazy.next_tick_s - 1e-9)
        assert lazy.threshold_history == [1.0]
        lazy.advance_to(0.001)
        history = list(lazy.threshold_history)
        lazy.advance_to(0.001)
        assert lazy.threshold_history == history
        assert sim.pending() == 0
        lazy.stop()

    def test_idle_engine_samples_exactly_zero(self):
        _, (_, engine, _, lazy) = self._pair(1.0)
        seen = []
        lazy.set_forward_rate = seen.append
        lazy.advance_to(0.0005)
        assert seen == [0.0] * 5
        fifth_tick = 0.0
        for _ in range(5):
            fifth_tick = fifth_tick + 1e-4
        assert lazy._estimator._last_time == fifth_tick
        assert lazy._estimator._last_bits == engine.delivered_bits

    @staticmethod
    def _ticks_through(period, start, now):
        """Tick times a cursor stepping ``t = t + period`` from
        ``start + period`` evaluates up to ``now``, and the next one."""
        t = start + period
        times = []
        while t <= now:
            times.append(t)
            t = t + period
        return times, t

    def test_one_set_forward_rate_call_per_tick(self):
        _, (_, _, _, lazy) = self._pair(1.0)
        calls = []
        forward = lazy.set_forward_rate

        def counted(snic_tp_gbps):
            calls.append(lazy._tick_s)
            forward(snic_tp_gbps)

        lazy.set_forward_rate = counted
        period = lazy.config.period_s
        for now in (0.00035, 0.00035, 0.0004, 0.00131, 0.0025):
            lazy.advance_to(now)
        ticks, _ = self._ticks_through(period, 0.0, 0.0025)
        assert calls == ticks  # one call per tick, at the tick's own time
        assert lazy._tick_s is None

    def test_call_with_no_tick_due_changes_nothing(self):
        _, (_, _, director, lazy) = self._pair(1.0)
        lazy.advance_to(0.00073)

        def state():
            return (
                # the policy's own fields, minus the spy installed below
                {k: v for k, v in vars(lazy).items() if k != "set_forward_rate"},
                list(lazy.threshold_history),
                dict(vars(lazy._estimator)),
                director.fwd_threshold_gbps,
                director._tokens_bits,
                director._last_refill,
            )

        before = state()
        calls = []
        lazy.set_forward_rate = calls.append
        for now in (0.00073, lazy.next_tick_s - 1e-12, 0.0):
            lazy.advance_to(now)
        assert calls == []
        assert state() == before

    def test_cursor_bit_equal_to_repeated_period_addition(self):
        _, (_, _, _, lazy) = self._pair(40.0)
        period = lazy.config.period_s
        for now in (1e-4, 0.000999, 0.0137, 0.0137, 0.05, 0.123456):
            lazy.advance_to(now)
            _, expected = self._ticks_through(period, 0.0, now)
            assert lazy.next_tick_s.hex() == expected.hex()


class TestProfiledThreshold:
    def test_headroom(self):
        assert profiled_initial_threshold(40.0, headroom=0.9) == pytest.approx(36.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            profiled_initial_threshold(0.0)
        with pytest.raises(ValueError):
            profiled_initial_threshold(10.0, headroom=2.0)
