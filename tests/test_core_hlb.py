"""Unit tests for the hardware load balancer blocks."""

import pytest

from repro.core.hlb import (
    HLB_LATENCY_S,
    HardwareLoadBalancer,
    TrafficDirector,
    TrafficMerger,
    TrafficMonitor,
)
from repro.net.addressing import AddressPlan
from repro.net.packet import Packet
from repro.sim.engine import Simulator

PLAN = AddressPlan.default()


def packet(size=1500, mult=1):
    return Packet(src=PLAN.client, dst=PLAN.snic, size_bytes=size, multiplicity=mult)


class TestTrafficMonitor:
    def test_rate_computation(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=1.0)
        # 12.5 kB in a 10 us window = 10 Gbps
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=10e-6)
        assert monitor.rate_gbps == pytest.approx(10.0)

    def test_counter_resets_each_window(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=1.0)
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=25e-6)  # two empty-ish windows after the first
        assert monitor.rate_gbps == pytest.approx(0.0)
        assert monitor.total_bytes == 12_500

    def test_ewma_smoothing(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6, ewma_alpha=0.5)
        monitor.observe(packet(size=1250, mult=10))
        sim.run(until=10e-6)
        assert monitor.rate_gbps == pytest.approx(5.0)  # half-way toward 10

    def test_stop(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=10e-6)
        monitor.stop()
        sim.run(until=100e-6)
        assert monitor.rate_gbps == 0.0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficMonitor(sim, window_s=0)
        with pytest.raises(ValueError):
            TrafficMonitor(sim, ewma_alpha=0.0)


class ReferenceMonitor:
    """The window roll as a ``PRIORITY_CONTROL`` recurrence: the exact
    values the on-demand monitor must reproduce."""

    def __init__(self, sim, window_s, ewma_alpha):
        self.sim = sim
        self.window_s = window_s
        self.ewma_alpha = ewma_alpha
        self.received_bytes = 0
        self.rate_gbps = 0.0
        self.windows = []  # (window end, rate) per roll
        self.stop = sim.every(window_s, self._roll_window)

    def observe(self, p):
        self.received_bytes += p.size_bytes * p.multiplicity

    def _roll_window(self):
        window_rate = self.received_bytes * 8 / self.window_s / 1e9
        self.received_bytes = 0
        self.rate_gbps += self.ewma_alpha * (window_rate - self.rate_gbps)
        self.windows.append((self.sim.now, self.rate_gbps))


class CounterLog:
    def __init__(self):
        self.samples = []

    def counter(self, category, name, ts, value):
        self.samples.append((category, name, ts, value))


class TestOnDemandMonitor:
    WINDOW_S = 10e-6
    ALPHA = 0.3

    def pair(self):
        sim = Simulator()
        monitor = TrafficMonitor(sim, window_s=self.WINDOW_S, ewma_alpha=self.ALPHA)
        reference = ReferenceMonitor(sim, self.WINDOW_S, self.ALPHA)
        return sim, monitor, reference

    def window_end(self, k):
        """End of window ``k`` (1-based), summed as the recurrence sums it."""
        t = 0.0
        for _ in range(k):
            t += self.WINDOW_S
        return t

    def arrive(self, sim, monitor, reference, when, size=1250, mult=10):
        def deliver():
            p = packet(size=size, mult=mult)
            monitor.observe(p)
            reference.observe(p)

        sim.schedule_at(when, deliver)

    def read_at(self, sim, monitor, reference, when, reads):
        sim.schedule_at(
            when, lambda: reads.append((monitor.rate_gbps, reference.rate_gbps))
        )

    def test_matches_recurrence_across_idle_gaps(self):
        sim, monitor, reference = self.pair()
        for when in (3e-6, 4e-6, 17e-6, 5e-3, 5.001e-3, 9e-3):
            self.arrive(sim, monitor, reference, when)
        reads = []
        for when in (25e-6, 4.9e-3, 5.0005e-3, 8.99e-3, 12e-3):
            self.read_at(sim, monitor, reference, when, reads)
        sim.run(until=12e-3)
        assert len(reference.windows) >= 1000
        assert reads and all(ours == ref for ours, ref in reads)
        assert reads[1][0] != 0.0  # the gap's decay is still visible
        assert monitor.rate_gbps == reference.rate_gbps

    def test_packet_exactly_at_window_end_opens_next_window(self):
        sim, monitor, reference = self.pair()
        self.arrive(sim, monitor, reference, 2e-6)
        # an arrival earlier in the same window leaves the cursor exactly
        # on the window end the next packet lands on
        self.arrive(sim, monitor, reference, 25e-6, mult=1)
        self.arrive(sim, monitor, reference, self.window_end(3), mult=30)
        self.arrive(sim, monitor, reference, 65e-6, mult=1)
        self.arrive(sim, monitor, reference, self.window_end(7), mult=20)
        reads = []
        for k in (3, 4, 7, 8):
            self.read_at(sim, monitor, reference, self.window_end(k), reads)
        sim.run(until=self.window_end(9) + 1e-6)
        assert all(ours == ref for ours, ref in reads)
        assert monitor.rate_gbps == reference.rate_gbps

    def test_reads_between_windows_are_stable(self):
        sim, monitor, reference = self.pair()
        self.arrive(sim, monitor, reference, 1e-6)
        reads = []
        for when in (12e-6, 13e-6, 19e-6, 21e-6):
            self.read_at(sim, monitor, reference, when, reads)
        sim.run(until=30e-6)
        assert all(ours == ref for ours, ref in reads)
        assert reads[0] == reads[1] == reads[2] != reads[3]

    def test_reads_after_stop_are_frozen(self):
        sim, monitor, reference = self.pair()
        self.arrive(sim, monitor, reference, 1e-6)
        self.arrive(sim, monitor, reference, 31e-6)
        stop_at = self.window_end(4)
        sim.run(until=stop_at)
        monitor.stop()
        reference.stop()
        frozen = reference.rate_gbps
        assert monitor.rate_gbps == frozen
        self.arrive(sim, monitor, reference, 60e-6)
        sim.run(until=500e-6)
        assert monitor.rate_gbps == frozen == reference.rate_gbps
        assert monitor.total_bytes == 3 * 12_500

    def test_tracer_gets_each_window_at_its_own_time(self):
        sim, monitor, reference = self.pair()
        monitor.tracer = CounterLog()
        for when in (2e-6, 33e-6, 34e-6, 300e-6):
            self.arrive(sim, monitor, reference, when)
        sim.run(until=400e-6)
        monitor.stop()
        assert monitor.tracer.samples == [
            ("hlb", "rate_rx_gbps", t, rate) for t, rate in reference.windows
        ]

    def test_hal_system_arms_no_monitor_event(self):
        from repro.core.hal import HalSystem

        system = HalSystem("nat")
        # Algorithm 1 is evaluated on demand too: nothing is armed at all
        assert system.sim.pending() == 0


class TestTrafficDirector:
    def test_below_threshold_passes_to_snic(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=10.0)
        p = director.direct(packet())
        assert p.dst == PLAN.snic
        assert director.stats.to_snic_packets == 1

    def test_excess_redirected_to_host_with_valid_checksum(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=0.001)
        director.direct(packet())  # eat initial tokens
        redirected = None
        for _ in range(50):
            p = director.direct(packet())
            if p.dst == PLAN.host:
                redirected = p
                break
        assert redirected is not None
        assert redirected.checksum_ok()
        assert director.stats.to_host_packets >= 1

    def test_split_ratio_tracks_threshold(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=5.0)
        # offer 10 Gbps: one 1500B packet every 1.2 us
        n = 5000
        for i in range(n):
            director.direct(packet())
            sim.schedule(1.2e-6, lambda: None)
            sim.run()
        assert director.stats.host_fraction == pytest.approx(0.5, abs=0.05)

    def test_zero_threshold_sends_everything_to_host_after_drain(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=0.0)
        # the bucket starts full at its one-burst floor (32 MTU packets);
        # with a zero threshold it never refills
        results = [director.direct(packet()).dst for _ in range(64)]
        assert results.count(PLAN.host) == 32
        assert all(dst == PLAN.host for dst in results[32:])

    def test_set_threshold_updates_register(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=10.0)
        director.set_threshold(20.0)
        assert director.fwd_threshold_gbps == 20.0
        with pytest.raises(ValueError):
            director.set_threshold(-1.0)

    def test_bucket_refills_over_time(self):
        sim = Simulator()
        director = TrafficDirector(sim, PLAN, fwd_threshold_gbps=1.0, bucket_depth_s=50e-6)
        # drain the bucket
        while director.direct(packet()).dst == PLAN.snic:
            pass
        # wait for refill
        sim.schedule(50e-6, lambda: None)
        sim.run()
        assert director.direct(packet()).dst == PLAN.snic

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficDirector(sim, PLAN, fwd_threshold_gbps=-1.0)
        with pytest.raises(ValueError):
            TrafficDirector(sim, PLAN, 1.0, bucket_depth_s=0.0)


class TestTrafficMerger:
    def test_host_response_masqueraded_as_snic(self):
        merger = TrafficMerger(PLAN)
        response = Packet(src=PLAN.host, dst=PLAN.client)
        merged = merger.merge(response)
        assert merged.src == PLAN.snic
        assert merged.checksum_ok()
        assert merger.merged_packets == 1

    def test_snic_response_untouched(self):
        merger = TrafficMerger(PLAN)
        response = Packet(src=PLAN.snic, dst=PLAN.client)
        checksum = response.checksum
        merger.merge(response)
        assert response.src == PLAN.snic
        assert response.checksum == checksum
        assert merger.merged_packets == 0


class TestHardwareLoadBalancer:
    def test_ingress_charges_datapath_latency(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        p = packet()
        hlb.ingress(p)
        assert p.created_at == pytest.approx(-HLB_LATENCY_S)

    def test_ingress_monitors_bytes(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        hlb.ingress(packet(size=1000, mult=2))
        assert hlb.monitor.total_bytes == 2000

    def test_egress_merges(self):
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=100.0)
        response = Packet(src=PLAN.host, dst=PLAN.client)
        assert hlb.egress(response).src == PLAN.snic

    def test_end_to_end_invariant_client_never_sees_host(self):
        """Clients only ever see the SNIC identity (§V-A)."""
        sim = Simulator()
        hlb = HardwareLoadBalancer(sim, PLAN, initial_threshold_gbps=0.001)
        for _ in range(50):
            directed = hlb.ingress(packet())
            response = directed.make_response()
            out = hlb.egress(response)
            assert out.src == PLAN.snic
            assert out.checksum_ok()
