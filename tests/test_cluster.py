"""Tests for the rack-scale cluster layer."""

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
from repro.cluster.policies import PackingPolicy
from repro.exp.server import RunConfig
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
