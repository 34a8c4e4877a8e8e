"""Unit tests for Algorithm 1 (the load-balancing policy)."""

import json
import math

import pytest

from repro.cluster.system import ClusterSystem, scaled_trace
from repro.core.hal import HalSystem
from repro.core.hlb import TrafficDirector
from repro.core.lbp import LbpConfig, LoadBalancingPolicy, profiled_initial_threshold
from repro.core.systems import DRAIN_S
from repro.exp.server import RunConfig, build_system
from repro.hw.snic import make_snic_engine
from repro.net.addressing import AddressPlan
from repro.net.packet import Packet
from repro.net.traffic import (
    LINE_RATE_GBPS,
    ConstantRateGenerator,
    LogNormalTraceGenerator,
)
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Simulator

PLAN = AddressPlan.default()


def setup(threshold=10.0, config=None):
    sim = Simulator()
    engine = make_snic_engine(sim, "nat")
    director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=threshold)
    policy = LoadBalancingPolicy(sim, engine, director, config or LbpConfig())
    return sim, engine, director, policy


def drive_by_recurrence(sim, policy):
    """The reference clock: a ``PRIORITY_CONTROL`` recurrence that
    catches the policy up at every tick, one heap event per tick."""
    return sim.every(policy.config.period_s, lambda: policy.advance_to(sim.now))


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
        drive_by_recurrence(sim, policy)
        # 5 < 0 + 5 is false, so the ticks inspect the queues: feed them
        fill_queues(engine, 4)
        sim.run(until=0.01)
        assert policy.next_tick_s > 0.01
        assert policy.adjustments_up > 0

    def test_stop_halts_ticks(self):
        sim, engine, _, policy = setup()
        drive_by_recurrence(sim, policy)
        engine.on_input_change = policy.advance_to
        ticks = spy_ticks(policy)
        sim.run(until=0.00035)
        policy.stop()
        expected, _ = ticks_through(policy.config.period_s, 0.0, 0.00035)
        assert ticks == expected
        fill_queues(engine, 40)  # completions after stop() call the hook
        sim.run(until=0.01)
        policy.advance_to(0.02)
        assert engine.delivered_packets == 40
        assert ticks == expected


def ticks_through(period, start, now):
    """Tick times a cursor stepping ``t = t + period`` from
    ``start + period`` evaluates up to ``now``, and the next one: the
    firings of a recurrence started at ``start``."""
    t = start + period
    times = []
    while t <= now:
        times.append(t)
        t = t + period
    return times, t


def landing_at(target, delay):
    """A start time ``a`` whose ``a + delay`` is exactly ``target``, the
    sum the simulator computes to schedule an event ``delay`` later."""
    start = target - delay
    for _ in range(64):
        if start + delay == target:
            return start
        start = math.nextafter(start, math.inf if start + delay < target else -math.inf)
    raise AssertionError("no start time lands exactly on the target")


def spy_ticks(lbp):
    """Record the time of every tick ``lbp`` evaluates."""
    ticks = []
    forward = lbp.set_forward_rate

    def counted(snic_tp_gbps):
        ticks.append(lbp._tick_s)
        forward(snic_tp_gbps)

    lbp.set_forward_rate = counted
    return ticks


class TestStationClocked:
    """``advance_to`` evaluates the ticks a recurrence would have fired,
    at bit-equal times, with no heap events of its own."""

    @staticmethod
    def _pair(threshold):
        """An eager policy the reference recurrence drives (and its
        handle), and a lazy one nothing drives."""
        eager = setup(threshold=threshold)
        recurrence = drive_by_recurrence(eager[0], eager[3])
        return eager + (recurrence,), setup(threshold=threshold)

    @pytest.mark.parametrize("threshold", [1.0, 40.0])
    def test_advance_to_matches_recurrence(self, threshold):
        (
            (sim_e, _, director_e, eager, recurrence),
            (sim_l, _, director_l, lazy),
        ) = self._pair(threshold)
        # any tracer turns on the decision trace
        eager.tracer = lazy.tracer = NULL_TRACER
        sim_e.run(until=0.00355)
        lazy.advance_to(0.00355)

        assert len(lazy.decisions) == 35
        assert lazy.decisions == eager.decisions
        assert lazy.next_tick_s == recurrence.next_time == eager.next_tick_s
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

    def test_one_set_forward_rate_call_per_tick(self):
        _, (_, _, _, lazy) = self._pair(1.0)
        calls = spy_ticks(lazy)
        period = lazy.config.period_s
        for now in (0.00035, 0.00035, 0.0004, 0.00131, 0.0025):
            lazy.advance_to(now)
        ticks, _ = ticks_through(period, 0.0, 0.0025)
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
            _, expected = ticks_through(period, 0.0, now)
            assert lazy.next_tick_s.hex() == expected.hex()


class TestOnDemandPacketLbp:
    """Packet-mode HAL evaluates Algorithm 1 on demand: before every
    arrival and every SNIC-engine event that changes its inputs.  A tick
    on the same instant as such an event sees the state from before it,
    as it did when it was a ``PRIORITY_CONTROL`` heap event."""

    TICK = 3

    @staticmethod
    def _hal(reference):
        system = HalSystem("nat")
        system.lbp.tracer = NULL_TRACER  # record every decision
        if reference:
            drive_by_recurrence(system.sim, system.lbp)
        return system

    def _packet(self, system, flow_id=0):
        return Packet(src=system.plan.client, dst=system.plan.snic, flow_id=flow_id)

    def _decisions(self, build):
        """Run ``build`` with and without the reference recurrence; both
        must make the same decisions.  Returns the on-demand system."""
        runs = []
        for reference in (False, True):
            system = self._hal(reference)
            build(system)
            system.sim.run(until=self.tick(self.TICK + 2))
            system.lbp.advance_to(system.sim.now)
            runs.append(system)
        assert runs[0].lbp.decisions == runs[1].lbp.decisions
        assert runs[0].sim.pending() == 0
        return runs[0]

    @staticmethod
    def tick(k):
        return ticks_through(LbpConfig().period_s, 0.0, 1.0)[0][k - 1]

    def _at_tick(self, system, k):
        (decision,) = [d for d in system.lbp.decisions if d.t == self.tick(k)]
        return decision

    def test_completion_on_a_tick_is_delivered_after_it(self):
        # the first service time, drawn from a twin's identical jitter stream
        twin = HalSystem("nat")
        twin.ingress(self._packet(twin))
        (service_s,) = [
            event[0] for event in twin.sim._heap
            if event[3] == twin.snic_engine._finish_service
        ]
        arrival = landing_at(self.tick(self.TICK), service_s)
        completions = []

        def build(system):
            finish = system.snic_engine._finish_service

            def timed(core, packet):
                completions.append(system.sim.now)
                finish(core, packet)

            system.snic_engine._finish_service = timed
            system.sim.schedule_at(arrival, system.ingress, self._packet(system))

        system = self._decisions(build)
        assert completions == [self.tick(self.TICK)] * 2
        assert self._at_tick(system, self.TICK).snic_tp_gbps == 0.0
        assert self._at_tick(system, self.TICK + 1).snic_tp_gbps > 0.0

    def test_arrival_on_a_tick_is_queued_after_it(self):
        def build(system):
            def burst():
                # two packets per Rx ring: one goes into service, one waits
                for flow_id in range(16):
                    system.ingress(self._packet(system, flow_id))

            system.sim.schedule_at(self.tick(self.TICK), burst)

        system = self._decisions(build)
        assert system.snic_engine.received_packets == 16
        assert self._at_tick(system, self.TICK).rxq_occ == 0

    def test_parked_engine_wakes_after_the_tick(self):
        """A parked SNIC engine whose wake lands on a tick: the tick sees
        the queued packet before the wake pops the ring."""

        def build(system):
            engine = system.snic_engine
            engine.sleeping = True  # parked, as the rack autoscaler parks it
            arrival = landing_at(self.tick(self.TICK), engine.wake_latency_s)
            system.sim.schedule_at(arrival, system.ingress, self._packet(system))

        system = self._decisions(build)
        assert system.snic_engine.wake_count == 1
        assert self._at_tick(system, self.TICK).rxq_occ == 1
        assert self._at_tick(system, self.TICK + 1).rxq_occ == 0

    def test_single_server_evaluates_no_tick_in_the_drain(self):
        config = RunConfig(duration_s=0.005)
        system = build_system("hal", "nat", config)
        ticks = spy_ticks(system.lbp)
        drain_calls = []
        hook = system.snic_engine.on_input_change

        def watched(now):
            if now > config.duration_s:
                drain_calls.append(now)
            hook(now)

        system.snic_engine.on_input_change = watched
        generator = ConstantRateGenerator(
            system.plan, config.spec(80.0), system.rng, 80.0
        )
        system.run(generator, config.duration_s)
        # stopped before the drain: the drain's completions evaluate nothing
        assert drain_calls
        expected, _ = ticks_through(system.lbp.config.period_s, 0.0, config.duration_s)
        assert ticks == expected

    def test_rack_members_tick_through_the_drain_then_stop(self):
        duration_s = 0.01
        cluster = ClusterSystem("hal", "nat", servers=2, seed=3)
        ticks = [spy_ticks(member.lbp) for member in cluster.members]
        spec = scaled_trace("web", 2)
        generator = LogNormalTraceGenerator(
            cluster.plan, RunConfig().spec(spec.average_gbps * 3), cluster.rng,
            spec, interval_s=0.002, line_rate_gbps=LINE_RATE_GBPS * 2,
        )
        cluster.run(generator, duration_s)
        expected, _ = ticks_through(
            cluster.members[0].lbp.config.period_s, 0.0, duration_s + DRAIN_S
        )
        assert ticks == [expected, expected]
        # a late arrival after stop() evaluates nothing
        member = cluster.members[0]
        cluster.sim.schedule(
            0.001, member.ingress, self._packet(member)
        )
        cluster.sim.run(until=cluster.sim.now + 0.002)
        assert ticks == [expected, expected]


def _control_state(lbp):
    director = lbp.director
    return {
        "decisions": list(lbp.decisions),
        "threshold_history": list(lbp.threshold_history),
        "adjustments": (lbp.adjustments_up, lbp.adjustments_down),
        "director": (
            director._tokens_bits,
            director._last_refill,
            director._fwd_threshold_gbps,
        ),
        "estimator": (lbp._estimator._last_bits, lbp._estimator._last_time),
    }


def _server_cell(function, rate_gbps, duration_s, batch=None, **kwargs):
    def build():
        config = RunConfig(duration_s=duration_s, batch=batch, seed=5)
        system = build_system("hal", function, config, **kwargs)
        generator = ConstantRateGenerator(
            system.plan, config.spec(rate_gbps), system.rng, rate_gbps
        )
        return system, [system], lambda: system.run(generator, duration_s)

    return build


def _rack_cell():
    duration_s = 0.05
    config = RunConfig(duration_s=duration_s, seed=5)
    cluster = ClusterSystem("hal", "nat", servers=4, seed=5, policy="packing")
    spec = scaled_trace("web", 4)
    generator = LogNormalTraceGenerator(
        cluster.plan, config.spec(spec.average_gbps * 3), cluster.rng, spec,
        interval_s=0.005, line_rate_gbps=LINE_RATE_GBPS * 4,
    )
    return cluster, cluster.members, lambda: cluster.run(generator, duration_s)


#: packet-mode cells whose Algorithm 1 must not notice which clock runs it
PACKET_CELLS = {
    "hal nat@80": _server_cell("nat", 80.0, 0.02),
    "hal kvs@6 b1": _server_cell("kvs", 6.0, 0.01, batch=1),
    "hal kvs@4 low Fwd_Th": _server_cell(
        "kvs", 4.0, 0.02, initial_threshold_gbps=1.0
    ),
    "rack hal x4/packing/web": _rack_cell,
}


class TestOnDemandMatchesRecurrence:
    """Each packet-mode cell built twice, on demand and with a reference
    recurrence driving the same ``advance_to``: same Algorithm-1
    decisions, director and estimator state, and payload bytes."""

    @pytest.mark.parametrize("cell", sorted(PACKET_CELLS))
    def test_same_control_state_and_payload(self, cell):
        outcomes = []
        for reference in (False, True):
            system, members, run = PACKET_CELLS[cell]()
            for member in members:
                member.lbp.tracer = NULL_TRACER
                if reference:
                    drive_by_recurrence(member.sim, member.lbp)
            metrics = run()
            outcomes.append((
                [_control_state(member.lbp) for member in members],
                json.dumps(metrics.to_dict(), sort_keys=True),
                system.sim.events_processed,
            ))
        (state, payload, events), (ref_state, ref_payload, ref_events) = outcomes
        assert state == ref_state
        assert payload == ref_payload
        ticks = sum(len(s["decisions"]) for s in state)
        assert ticks > 0
        # the reference paid one heap event per tick (and, stopped before
        # the drain, a few more the stopped policy ignored)
        assert events + ticks <= ref_events
        if cell == "hal kvs@4 low Fwd_Th":
            assert all(n > 0 for n in state[0]["adjustments"])
        if cell.startswith("rack"):
            assert system.autoscaler.sleeps > 0


class TestProfiledThreshold:
    def test_headroom(self):
        assert profiled_initial_threshold(40.0, headroom=0.9) == pytest.approx(36.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            profiled_initial_threshold(0.0)
        with pytest.raises(ValueError):
            profiled_initial_threshold(10.0, headroom=2.0)
