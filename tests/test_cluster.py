"""Tests for the rack-scale cluster layer."""

import json
import math

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterSystem,
    POLICIES,
    RackPowerConfig,
    ServerSlot,
    make_policy,
    run_rack,
)
from repro.cluster.autoscaler import (
    STATE_ASLEEP,
    STATE_AWAKE,
    STATE_DRAINING,
    STATE_WAKING,
    RackAutoscaler,
)
from repro.cluster.policies import PackingPolicy
from repro.exp.server import RunConfig
from repro.flow.cluster import FlowClusterSystem
from repro.flow.source import ConstantRateSource
from repro.net.addressing import RackAddressPlan
from repro.net.packet import Packet
from repro.net.traffic import ConstantRateGenerator, TrafficSpec
from repro.sim.rng import RngRegistry

FAST = RunConfig(duration_s=0.02, seed=2024)


def _slots(n, occupancies=None):
    rack = RackAddressPlan.build(n)
    occupancies = occupancies or [0] * n
    return [
        ServerSlot(i, plan, (lambda occ=occupancies[i]: occ))
        for i, plan in enumerate(rack.servers)
    ]


class TestPolicies:
    def test_factory_knows_all_policies(self):
        rng = RngRegistry(2024)
        for name in POLICIES:
            assert make_policy(name, rng).select is not None
        with pytest.raises(ValueError):
            make_policy("nope", rng)

    def test_flowhash_is_sticky_per_flow(self):
        slots = _slots(4)
        policy = make_policy("flowhash", RngRegistry(2024))
        for flow in range(16):
            p = Packet(src=slots[0].plan.client, dst=slots[0].plan.snic, flow_id=flow)
            picks = {policy.select(slots, p).index for _ in range(5)}
            assert len(picks) == 1

    def test_roundrobin_cycles(self):
        slots = _slots(3)
        policy = make_policy("roundrobin", RngRegistry(2024))
        p = Packet(src=slots[0].plan.client, dst=slots[0].plan.snic)
        picks = [policy.select(slots, p).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_p2c_prefers_lower_occupancy(self):
        slots = _slots(2, occupancies=[100, 0])
        policy = make_policy("p2c", RngRegistry(2024))
        p = Packet(src=slots[0].plan.client, dst=slots[0].plan.snic)
        picks = [policy.select(slots, p).index for _ in range(32)]
        # whenever both candidates differ the emptier server wins, so the
        # loaded server can only appear on same-same draws
        assert picks.count(1) > picks.count(0)

    def test_packing_concentrates_then_spills(self):
        quiet = _slots(3)
        policy = PackingPolicy(spill_packets=8)
        p = Packet(src=quiet[0].plan.client, dst=quiet[0].plan.snic)
        assert all(policy.select(quiet, p).index == 0 for _ in range(8))
        loaded = _slots(3, occupancies=[50, 2, 0])
        assert policy.select(loaded, p).index == 1  # first under watermark
        saturated = _slots(3, occupancies=[50, 40, 30])
        assert policy.select(saturated, p).index == 2  # least loaded


class TestClusterSystem:
    def test_members_mixable_and_namespaced(self):
        cluster = ClusterSystem("hal,host", "nat", servers=4, autoscale=False)
        kinds = [m.kind for m in cluster.members]
        assert kinds == ["hal", "host", "hal", "host"]
        names = [e.name for m in cluster.members for e in m.engines()]
        assert len(set(names)) == len(names)
        assert all(n.startswith("s") for n in names)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSystem("nope", "nat", servers=2)
        with pytest.raises(ValueError):
            ClusterSystem("hal", "nat", servers=0)
        with pytest.raises(ValueError):
            ClusterSystem("hal", "nat", servers=2, policy="nope")

    def test_run_returns_rack_metrics(self):
        m = run_rack("hal", "nat", "web", FAST, servers=2, policy="packing")
        assert m.delivered_packets > 0
        assert m.extras["servers"] == 2.0
        assert m.average_power_w > 0
        assert "tor" in m.power_breakdown
        # member components are namespaced per server slot
        assert any(key.startswith("s0/") for key in m.power_breakdown)
        assert any(key.startswith("s1/") for key in m.power_breakdown)

    def test_deterministic_across_runs(self):
        a = run_rack("hal", "nat", "web", FAST, servers=2, policy="packing")
        b = run_rack("hal", "nat", "web", FAST, servers=2, policy="packing")
        assert a.to_dict() == b.to_dict()

    def test_policies_all_run(self):
        for policy in POLICIES:
            m = run_rack("host", "nat", "web", FAST, servers=2, policy=policy)
            assert m.delivered_packets > 0, policy

    def test_run_leaves_no_timer_armed(self):
        cluster = ClusterSystem("hal", "nat", servers=2, policy="packing")
        spec = TrafficSpec(packet_bytes=1500, batch=1)
        generator = ConstantRateGenerator(cluster.plan, spec, cluster.rng, 1.0)
        cluster.run(generator, 0.01)
        assert cluster.sim.pending() == 0

    def test_front_tier_masquerades_responses(self):
        cluster = ClusterSystem("host", "nat", servers=2, autoscale=False)
        spec = TrafficSpec(packet_bytes=1500, batch=1)
        generator = ConstantRateGenerator(cluster.plan, spec, cluster.rng, 1.0)
        m = cluster.run(generator, 0.01)
        assert m.delivered_packets > 0
        assert cluster.front.responses == sum(s.responses for s in cluster.slots)
        assert cluster.front.responses > 0


class TestAutoscaler:
    def test_parks_idle_servers(self):
        cluster = ClusterSystem("host", "nat", servers=4, policy="packing")
        cluster.sim.run(until=0.02)  # no traffic at all
        scaler = cluster.autoscaler
        assert scaler.sleeps >= 3
        assert scaler.active_count() == scaler.config.min_awake
        assert cluster.rack_power.instantaneous_watts() < 4 * 194

    def test_wakes_under_load(self):
        config = AutoscalerConfig(wake_latency_s=1e-4)
        cluster = ClusterSystem(
            "host", "nat", servers=2, policy="packing", autoscaler_config=config
        )
        cluster.sim.run(until=0.02)  # idle: parks down to min_awake=1
        assert cluster.autoscaler.sleeps >= 1
        spec = TrafficSpec(packet_bytes=1500, batch=4)
        # 120 Gbps over one 90 Gbps host: the EWMA crosses the target and
        # the deep Rx queue trips the burst escape hatch
        generator = ConstantRateGenerator(cluster.plan, spec, cluster.rng, 120.0)
        cluster.run(generator, 0.02)
        assert cluster.autoscaler.wakes >= 1

    def test_awake_mean_reflects_sleep(self):
        m = run_rack("host", "nat", "web", FAST, servers=4, policy="packing")
        assert 1.0 <= m.extras["rack_awake_mean"] < 4.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(target_utilization=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_awake=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(period_s=-1.0)



def reference_tick(self):
    """``RackAutoscaler._tick`` as it was before the one-pass loop: the
    parks, the routable list, the deep-queue probe and the committed
    count each walk the servers on their own."""
    config = self.config
    self._advance_integral()
    bits = self.front.dispatched_bits
    instantaneous = (bits - self._last_bits) / config.period_s / 1e9
    self._last_bits = bits
    self.rate_ewma_gbps += config.ewma_alpha * (instantaneous - self.rate_ewma_gbps)

    for server in self.servers:
        if server.state == STATE_DRAINING and server.quiescent():
            self._park(server)

    needed = math.ceil(
        self.rate_ewma_gbps / (config.target_utilization * self._capacity_mean)
    )
    needed = max(config.min_awake, min(len(self.servers), needed))
    routable = [s for s in self.servers if s.slot.routable]
    if any(s.slot.occupancy() >= config.occupancy_wake_packets for s in routable):
        needed = min(len(self.servers), max(needed, len(routable) + 1))

    committed = sum(1 for s in self.servers if s.state in (STATE_AWAKE, STATE_WAKING))
    if needed > committed:
        self._surplus_ticks = 0
        for server in self.servers:
            if committed >= needed:
                break
            if server.state == STATE_ASLEEP:
                self._wake(server)
                committed += 1
            elif server.state == STATE_DRAINING:
                self._advance_integral()
                server.state = STATE_AWAKE
                server.slot.routable = True
                committed += 1
    elif needed < len(routable):
        self._surplus_ticks += 1
        if self._surplus_ticks >= config.sleep_after_ticks:
            self._surplus_ticks = 0
            for server in reversed(self.servers):
                if len(routable) <= max(needed, config.min_awake):
                    break
                if server.state == STATE_AWAKE and server.slot.routable:
                    self._drain(server)
                    routable.remove(server)
                    break
    else:
        self._surplus_ticks = 0


def _controller_state(scaler):
    return (
        scaler.wakes,
        scaler.sleeps,
        tuple(server.state for server in scaler.servers),
        tuple(server.slot.routable for server in scaler.servers),
        scaler.rate_ewma_gbps.hex(),
        scaler._active_integral.hex(),
    )


def _web_rack(sim_mode):
    """A 4-server packing rack on the web trace whose autoscaler parks
    and wakes servers."""
    extra = {"flow_interval_s": 1e-4} if sim_mode == "flow" else {}
    config = RunConfig(
        duration_s=0.05, seed=5, sim_mode=sim_mode, trace_interval_s=0.005,
        **extra,
    )
    return run_rack(
        "hal", "nat", "web", config, servers=4, policy="packing",
        autoscaler_config=AutoscalerConfig(
            target_utilization=0.05, wake_latency_s=5e-4
        ),
    )


def _burst_rack(sim_mode):
    """A 2-server host rack parked by an idle spell, then offered 120 Gbps
    (more than one 90 Gbps host): deep Rx queues trip the burst wake."""
    config = AutoscalerConfig(wake_latency_s=1e-4)
    if sim_mode == "flow":
        cluster = FlowClusterSystem(
            "host", "nat", servers=2, policy="packing", autoscaler_config=config
        )
        cluster.sim.run(until=0.02)
        return cluster.run(ConstantRateSource(120.0), 0.02, train_multiplicity=4)
    cluster = ClusterSystem(
        "host", "nat", servers=2, policy="packing", autoscaler_config=config
    )
    cluster.sim.run(until=0.02)
    spec = TrafficSpec(packet_bytes=1500, batch=4)
    generator = ConstantRateGenerator(cluster.plan, spec, cluster.rng, 120.0)
    return cluster.run(generator, 0.005)


RACKS = {"web": _web_rack, "burst": _burst_rack}


def _run_logged_rack(monkeypatch, tick, rack, sim_mode):
    """Run ``RACKS[rack]`` with the autoscaler ticking through ``tick``;
    return whether some routable queue ran deep before each tick, the
    controller state after it, and the payload."""
    log = []

    def logged_tick(self):
        deep = any(
            s.slot.routable
            and s.slot.occupancy() >= self.config.occupancy_wake_packets
            for s in self.servers
        )
        tick(self)
        log.append((deep, self.sim.now, *_controller_state(self)))

    with monkeypatch.context() as patch:
        # the rack arms the bound tick when it builds its autoscaler
        patch.setattr(RackAutoscaler, "_tick", logged_tick)
        metrics = RACKS[rack](sim_mode)
    return log, json.dumps(metrics.to_dict(), sort_keys=True)


class TestTickMatchesReference:
    """The one-pass autoscaler tick decides exactly what the multi-pass
    reference decides, tick by tick, on racks that park and wake."""

    @pytest.mark.parametrize("sim_mode", ["packet", "flow"])
    @pytest.mark.parametrize("rack", sorted(RACKS))
    def test_same_state_at_every_tick(self, monkeypatch, rack, sim_mode):
        tick = RackAutoscaler._tick
        log, payload = _run_logged_rack(monkeypatch, tick, rack, sim_mode)
        ref_log, ref_payload = _run_logged_rack(
            monkeypatch, reference_tick, rack, sim_mode
        )
        assert log == ref_log
        assert payload == ref_payload
        _, _, wakes, sleeps, *_ = log[-1]
        assert wakes > 0 and sleeps > 0
        if rack == "burst":
            assert any(deep for deep, *_ in log)

    @pytest.mark.parametrize("sim_mode", ["packet", "flow"])
    def test_undrains_before_waking(self, monkeypatch, sim_mode):
        """Demand returns while a server still drains its queues: the tick
        takes it back before it wakes a sleeper. The racks above never
        reach this state, so it is set up by hand."""
        states = []
        for tick in (RackAutoscaler._tick, reference_tick):
            rack_class = FlowClusterSystem if sim_mode == "flow" else ClusterSystem
            cluster = rack_class(
                "host", "nat", servers=4, policy="packing",
                autoscaler_config=AutoscalerConfig(wake_latency_s=1e-4),
            )
            cluster.sim.run(until=0.02)  # idle: parks down to one server
            scaler = cluster.autoscaler
            scaler.stop()
            draining = scaler.servers[1]
            assert draining.state == STATE_ASLEEP
            draining.state = STATE_DRAINING
            with monkeypatch.context() as patch:
                # it still holds queued work, so it cannot park yet
                patch.setattr(
                    type(draining), "quiescent", lambda server: server is not draining
                )
                log = []
                for _ in range(3):
                    # 250 Gbps offered: more than two 90 Gbps hosts carry
                    # at 60%, so each tick's EWMA asks for more servers
                    scaler.front.dispatched_bits += 250e9 * scaler.config.period_s
                    tick(scaler)
                    log.append(_controller_state(scaler))
            states.append(log)
        assert states[0] == states[1]
        # the first tick needs one more server: it takes the draining one
        # back instead of waking a sleeper; later ticks need more
        wakes, _, first_states, *_ = states[0][0]
        assert first_states[1] == STATE_AWAKE and wakes == 0
        assert states[0][-1][0] >= 1


class TestRackEnergyEfficiency:
    def test_hal_rack_beats_host_rack_at_low_load(self):
        """The PR's headline: at low diurnal load with whole-server sleep
        engaged, a HAL rack is at least as energy-efficient as a host
        rack under identical balancing."""
        config = RunConfig(duration_s=0.05, seed=2024)
        hal = run_rack("hal", "nat", "web", config, servers=2, policy="packing")
        host = run_rack("host", "nat", "web", config, servers=2, policy="packing")
        assert hal.extras["rack_sleeps"] >= 1  # sleep actually engaged
        assert abs(hal.throughput_gbps - host.throughput_gbps) < 0.5
        assert hal.energy_efficiency >= host.energy_efficiency

    def test_packing_saves_power_vs_spreading(self):
        packing = run_rack("host", "nat", "web", FAST, servers=4, policy="packing")
        spread = run_rack(
            "host", "nat", "web", FAST, servers=4, policy="roundrobin"
        )
        assert packing.average_power_w <= spread.average_power_w

    def test_rack_power_config_validated(self):
        with pytest.raises(ValueError):
            RackPowerConfig(tor_base_w=-1.0)
