"""Hardware-based load balancer (HLB) — §V-A, Fig. 6.

Three blocks sit between the MAC unit and the eSwitch, implemented in the
paper on an Alveo U280 FPGA and modelled here cycle-approximately:

1. **Traffic monitor** — counts received bytes, computes ``Rate_Rx`` every
   window (10 µs in hardware), and hands it to the director;
2. **Traffic director** — enforces ``Fwd_Th``: packets within the
   threshold rate pass to the SNIC processor untouched; the excess is
   redirected by rewriting the destination IP/MAC to the hidden host
   identity (with a real RFC 1624 incremental checksum update) so the
   unmodified eSwitch routes them to the host CPU. Rate enforcement uses
   a token bucket refilled at ``Fwd_Th`` — the hardware-natural way to
   "limit the rate of packets delivered to the SNIC processor to the
   threshold";
3. **Traffic merger** — intercepts host→client responses and rewrites
   their source back to the SNIC identity (checksum updated), preserving
   the single-server illusion.

The whole datapath adds ``HLB_LATENCY_S`` (800 ns measured, §VII-C) to
each packet's round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addressing import AddressPlan
from repro.net.packet import Packet, rewrite_delta
from repro.sim.engine import Simulator

#: measured round-trip addition of the FPGA HLB datapath (§VII-C)
HLB_LATENCY_S = 800e-9
#: of which the transceiver + MAC units account for 365 ns
TRANSCEIVER_MAC_LATENCY_S = 365e-9
#: hardware window for the ReceivedBytes counter
MONITOR_WINDOW_S = 10e-6


class TrafficMonitor:
    """ReceivedBytes counter with periodic rate computation.

    Batched simulation events make a single hardware window too noisy to
    govern policy, so the monitor smooths window rates with an EWMA —
    functionally equivalent to a hardware moving-average register.

    Windows roll on demand rather than as heap events: ``observe``,
    ``rate_gbps`` and ``stop`` first roll every window that ended at or
    before the current instant. Only the monitor reads ``ReceivedBytes``,
    so the rates are bit-identical to a ``PRIORITY_CONTROL`` recurrence
    (which pops before a same-instant arrival, hence the inclusive end).
    """

    def __init__(
        self,
        sim: Simulator,
        window_s: float = 50e-6,
        ewma_alpha: float = 0.25,
    ) -> None:
        if window_s <= 0:
            raise ValueError("monitor window must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.sim = sim
        self.window_s = window_s
        self.ewma_alpha = ewma_alpha
        #: repro.obs tracer; None when untraced (one branch per window)
        self.tracer = None
        self.received_bytes = 0  # the hardware ReceivedBytes register
        self.total_bytes = 0
        self._rate_gbps = 0.0
        #: end of the open window, stepped as ``Simulator.every`` steps
        #: its firings; infinite once stopped
        self._next_roll_s = sim.now + window_s

    @property
    def rate_gbps(self) -> float:
        now = self.sim.now
        if self._next_roll_s <= now:
            self._roll_to(now)
        return self._rate_gbps

    def observe(self, packet: Packet, now: Optional[float] = None) -> None:
        if now is None:
            now = self.sim.now
        if self._next_roll_s <= now:
            self._roll_to(now)
        nbytes = packet.size_bytes * packet.multiplicity
        self.received_bytes += nbytes
        self.total_bytes += nbytes

    def _roll_to(self, now: float) -> None:
        """Roll, in order, every window whose end ``t <= now``."""
        t = self._next_roll_s
        window_s = self.window_s
        alpha = self.ewma_alpha
        tracer = self.tracer
        rate = self._rate_gbps
        while t <= now:
            window_rate = self.received_bytes * 8 / window_s / 1e9
            self.received_bytes = 0
            rate += alpha * (window_rate - rate)
            if tracer is not None:
                tracer.counter("hlb", "rate_rx_gbps", t, rate)
            t += window_s
        self._rate_gbps = rate
        self._next_roll_s = t

    def stop(self) -> None:
        """Roll up to the current instant, then freeze the rate."""
        self._roll_to(self.sim.now)
        self._next_roll_s = float("inf")


@dataclass
class DirectorStats:
    to_snic_packets: int = 0
    to_host_packets: int = 0
    to_snic_bytes: int = 0
    to_host_bytes: int = 0

    @property
    def host_fraction(self) -> float:
        total = self.to_snic_packets + self.to_host_packets
        return self.to_host_packets / total if total else 0.0


class TrafficDirector:
    """Token-bucket rate limiter + destination rewriter."""

    def __init__(
        self,
        sim: Simulator,
        plan: AddressPlan,
        fwd_threshold_gbps: float,
        bucket_depth_s: float = 50e-6,
    ) -> None:
        if fwd_threshold_gbps < 0:
            raise ValueError("threshold cannot be negative")
        if bucket_depth_s <= 0:
            raise ValueError("bucket depth must be positive")
        self.sim = sim
        self.plan = plan
        self._fwd_threshold_gbps = fwd_threshold_gbps
        self.bucket_depth_s = bucket_depth_s
        self._capacity_bits = self._bucket_capacity_bits()
        self._tokens_bits = self._capacity_bits  # start full
        self._last_refill = sim.now
        self.stats = DirectorStats()
        # warm the memoized RFC 1624 delta for the one rewrite this block
        # performs (snic → host), so the steady-state redirect is a single
        # cached incremental-update application
        rewrite_delta(plan.snic, plan.host)

    @property
    def fwd_threshold_gbps(self) -> float:
        return self._fwd_threshold_gbps

    def set_threshold(self, gbps: float, now: Optional[float] = None) -> None:
        """Update ``Fwd_Th`` — the memory-mapped register LBP writes.

        ``now`` is the time of the write (default: the simulator clock);
        a policy evaluating a past tick passes that tick's time."""
        if gbps < 0:
            raise ValueError("threshold cannot be negative")
        self._refill(self.sim.now if now is None else now)
        self._fwd_threshold_gbps = gbps
        self._capacity_bits = self._bucket_capacity_bits()
        self._tokens_bits = min(self._tokens_bits, self._capacity_bits)

    #: minimum bucket depth: one maximum-size event burst (32 MTU packets),
    #: so low thresholds still trickle packets to the SNIC instead of
    #: starving it outright
    MIN_BUCKET_BITS = 32 * 1500 * 8.0

    def _bucket_capacity_bits(self) -> float:
        """Bucket depth at the current threshold; cached as
        ``_capacity_bits``, which only the threshold write moves."""
        return max(
            self._fwd_threshold_gbps * 1e9 * self.bucket_depth_s,
            self.MIN_BUCKET_BITS,
        )

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens_bits = min(
                self._capacity_bits,
                self._tokens_bits + self._fwd_threshold_gbps * 1e9 * elapsed,
            )
            self._last_refill = now

    def direct(self, packet: Packet) -> Packet:
        """Decide SNIC vs host for one packet, rewriting if redirected."""
        self._refill(self.sim._now)
        multiplicity = packet.multiplicity
        nbytes = packet.size_bytes * multiplicity
        bits = nbytes * 8
        stats = self.stats
        if bits <= self._tokens_bits:
            self._tokens_bits -= bits
            stats.to_snic_packets += multiplicity
            stats.to_snic_bytes += nbytes
            return packet
        packet.rewrite_destination(self.plan.host)
        stats.to_host_packets += multiplicity
        stats.to_host_bytes += nbytes
        return packet


class TrafficMerger:
    """Source-rewrites host responses back to the SNIC identity."""

    def __init__(self, plan: AddressPlan) -> None:
        self.plan = plan
        self.merged_packets = 0
        # warm the memoized host → snic masquerade delta (see TrafficDirector)
        rewrite_delta(plan.host, plan.snic)

    def merge(self, packet: Packet) -> Packet:
        if packet.src == self.plan.host:
            packet.rewrite_source(self.plan.snic)
            self.merged_packets += packet.multiplicity
        return packet


class HardwareLoadBalancer:
    """Monitor + director + merger glued into one ingress/egress block."""

    def __init__(
        self,
        sim: Simulator,
        plan: AddressPlan,
        initial_threshold_gbps: float,
        monitor_window_s: float = 50e-6,
        datapath_latency_s: float = HLB_LATENCY_S,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.monitor = TrafficMonitor(sim, window_s=monitor_window_s)
        self.director = TrafficDirector(sim, plan, initial_threshold_gbps)
        self.merger = TrafficMerger(plan)
        self.datapath_latency_s = datapath_latency_s

    @property
    def rate_rx_gbps(self) -> float:
        return self.monitor.rate_gbps

    def enable_tracing(self, tracer) -> None:
        """Route the monitor's window rate into a ``repro.obs`` tracer.

        The director/merger counters (split ratio, merged packets) are
        sampled by the system-level probe pump — per-packet emission
        would swamp the trace."""
        self.monitor.tracer = tracer

    def ingress(self, packet: Packet) -> Packet:
        """MAC → monitor → director; charges the datapath latency."""
        # charging the fixed datapath cost by back-dating creation keeps
        # the event count flat while preserving measured latency
        packet.created_at -= self.datapath_latency_s
        self.monitor.observe(packet, self.sim._now)
        return self.director.direct(packet)

    def egress(self, packet: Packet) -> Packet:
        """Host/SNIC → merger → MAC."""
        return self.merger.merge(packet)

    def stop(self) -> None:
        self.monitor.stop()
