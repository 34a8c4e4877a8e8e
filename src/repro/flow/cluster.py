"""Rack-scale flow mode: fluid members behind a fluid front tier.

The rack *control plane* is the real one: the flow cluster instantiates
:class:`repro.cluster.autoscaler.RackAutoscaler` and
:class:`repro.cluster.power.RackPowerModel` unmodified — the autoscaler
reads dispatched-bits deltas from the fluid front tier and Rx-ring
occupancy / quiescence from the fluid stations through the same
duck-typed surface a packet-mode rack exposes.  Only the data path is
fluid: each control interval the front tier splits the offered-rate
train across routable members (packing concentrates load at low
indices, the other policies spread it), and each member expands its
share analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.cluster.autoscaler import (
    STATE_ASLEEP,
    STATE_DRAINING,
    STATE_WAKING,
    AutoscalerConfig,
    ManagedServer,
    RackAutoscaler,
)
from repro.cluster.fronttier import TOR_LATENCY_S
from repro.cluster.policies import POLICIES, ServerSlot, member_slots
from repro.cluster.power import RackPowerConfig, RackPowerModel
from repro.cluster.system import _member_kinds, scaled_trace
from repro.core.systems import DRAIN_S, snic_share
from repro.flow.batch import FlowBatch
from repro.flow.source import TraceRateSource
from repro.flow.system import (
    FLOW_SYSTEM_CLASSES,
    WINDOW_S,
    FlowServerSystem,
    fill_reservoir,
)
from repro.hw.power import PowerConfig
from repro.net.addressing import RackAddressPlan
from repro.sim.engine import Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.exp.server import RunConfig


class FlowFrontTier:
    """Per-interval rate dispatch across routable member slots."""

    def __init__(
        self,
        slots: List[ServerSlot],
        capacities_gbps: List[float],
        policy: str,
        tor_latency_s: float = TOR_LATENCY_S,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
        self.slots = slots
        self.capacities_gbps = capacities_gbps
        self.policy = policy
        self.tor_latency_s = tor_latency_s
        self.dispatched_bits = 0.0
        self.dispatched_packets = 0.0
        self.reroutes = 0
        self._last_primary = -1

    def dispatch(self, rate_gbps: float, dt_s: float, packet_bits: int) -> List[float]:
        """Split one interval's offered rate; returns per-slot rates."""
        shares = [0.0] * len(self.slots)
        routable = [slot for slot in self.slots if slot.routable]
        if not routable:
            routable = list(self.slots)
        if rate_gbps > 0:
            if self.policy == "packing":
                # fill low indices to capacity, spill the excess upward;
                # the final slot absorbs any rate beyond rack capacity
                remaining = rate_gbps
                for position, slot in enumerate(routable):
                    take = min(remaining, self.capacities_gbps[slot.index])
                    if position == len(routable) - 1:
                        take = remaining
                    shares[slot.index] = take
                    remaining -= take
                    if remaining <= 0:
                        break
            else:
                # flowhash / roundrobin / p2c all average to an even split
                # at flow granularity
                share = rate_gbps / len(routable)
                for slot in routable:
                    shares[slot.index] = share
            primary = next(
                (slot.index for slot in routable if shares[slot.index] > 0),
                -1,
            )
            if primary != self._last_primary:
                self.reroutes += 1
                self._last_primary = primary
        bits = rate_gbps * 1e9 * dt_s
        self.dispatched_bits += bits
        self.dispatched_packets += bits / packet_bits
        for slot in self.slots:
            if shares[slot.index] > 0:
                slot_bits = shares[slot.index] * 1e9 * dt_s
                slot.dispatched_bits += int(slot_bits)
                slot.dispatched_packets += int(slot_bits / packet_bits)
        return shares

    def dispatched_gbps(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            return 0.0
        return self.dispatched_bits / elapsed_s / 1e9


class FlowClusterSystem:
    """N fluid members, one simulator, the real rack controllers."""

    def __init__(
        self,
        member_kind: str = "hal",
        function: str = "nat",
        servers: int = 4,
        seed: int = 2024,
        policy: str = "packing",
        autoscale: bool = True,
        functional_rate: float = 0.0,
        interval_s: float = 100e-6,
        packet_bytes: int = 1500,
        power_config: Optional[PowerConfig] = None,
        rack_power_config: Optional[RackPowerConfig] = None,
        autoscaler_config: Optional[AutoscalerConfig] = None,
        tor_latency_s: float = TOR_LATENCY_S,
    ) -> None:
        if servers < 1:
            raise ValueError("a rack needs at least one server")
        self.function = function
        self.servers = servers
        self.policy = policy
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.metrics = RunMetrics()
        self.rack_plan = RackAddressPlan.build(servers)
        self.plan = self.rack_plan.front
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes

        kinds = _member_kinds(member_kind, servers, FLOW_SYSTEM_CLASSES)
        self.members: List[FlowServerSystem] = []
        for index, kind in enumerate(kinds):
            instance = f"s{index}"
            member = FLOW_SYSTEM_CLASSES[kind](
                function,
                seed=seed,
                functional_rate=functional_rate,
                interval_s=interval_s,
                packet_bytes=packet_bytes,
                power_config=power_config,
                sim=self.sim,
                rng=self.rng.spawn(instance),
                plan=self.rack_plan.servers[index],
                instance=instance,
            )
            self.members.append(member)

        self.slots = member_slots(self.rack_plan.servers, self.members)

        self.front = FlowFrontTier(
            self.slots,
            [member.capacity_gbps for member in self.members],
            policy,
            tor_latency_s=tor_latency_s,
        )
        self.rack_power = RackPowerModel(
            self.sim,
            [member.power for member in self.members],
            rack_power_config,
        )
        self.autoscaler: Optional[RackAutoscaler] = None
        if autoscale and servers > 1:
            managed = [
                ManagedServer(slot, member)
                for slot, member in zip(self.slots, self.members)
            ]
            self.autoscaler = RackAutoscaler(
                self.sim,
                self.front,
                managed,
                self.rack_power,
                autoscaler_config,
            )

    def total_backlog_packets(self) -> float:
        return sum(member.total_backlog_packets() for member in self.members)

    def run(
        self,
        source: Any,
        duration_s: float,
        train_multiplicity: int = 1,
    ) -> RunMetrics:
        """Offer ``source``'s whole rate schedule at once: the one-shot
        drive of a :class:`RackStepper`."""
        rates = source.rates(duration_s, self.interval_s)
        stepper = RackStepper(self, len(rates), train_multiplicity)
        stepper.push_rates(rates)
        return stepper.finish(source.offered_gbps, duration_s)


def weighted_quantile(samples: List[Tuple[float, float]], q: float) -> float:
    """Quantile of ``(value, weight)`` samples; 0 for an empty window."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        return ordered[-1][0]
    target = q * total
    accumulated = 0.0
    for value, weight in ordered:
        accumulated += weight
        if accumulated >= target:
            return value
    return ordered[-1][0]


@dataclass(frozen=True)
class RackSnapshot:
    """Boundary state one rack exports at an epoch barrier.

    Counters are cumulative since construction; the fabric control plane
    differences consecutive snapshots to get per-epoch rates.
    """

    now_s: float
    dispatched_bits: float
    delivered_bits: float
    delivered_packets: float
    dropped_packets: float
    backlog_packets: float
    rxq_occupancy: int
    awake: float
    energy_j: float


class RackStepper:
    """The one rack loop of a :class:`FlowClusterSystem`.

    Both drives of a flow rack run this loop.  :meth:`FlowClusterSystem.run`
    pushes a whole rate schedule and finishes; the fabric layer instead
    advances a rack *one epoch at a time* — push the rates the global
    dispatcher assigned, advance the simulator to the barrier, read the
    boundary snapshot, repeat — so a parent process can drive it.

    Rates not yet pushed read as 0.0 (idle), so a tick that drifts past a
    barrier by float accumulation is harmless — it sees the same rate at
    every worker count.
    """

    def __init__(
        self,
        cluster: FlowClusterSystem,
        offered_intervals: int,
        train_multiplicity: int = 1,
    ) -> None:
        if offered_intervals < 1:
            raise ValueError("offered_intervals must be >= 1")
        self.cluster = cluster
        self.offered_intervals = offered_intervals
        self.train_multiplicity = train_multiplicity
        sim = cluster.sim
        self._start_s = sim.now
        self._rates: List[float] = []
        self._index = 0
        self._generated_packets = 0.0
        self._window_start_s = self._start_s
        self._window_bits = 0.0
        self._max_window_gbps = 0.0
        self._frozen: Dict[str, float] = {}
        self._sample_marks: List[int] = [0] * len(cluster.members)
        self._finished = False
        self._stop_tick = sim.every(
            cluster.interval_s,
            self._tick,
            start=self._start_s + cluster.interval_s,
            priority=Simulator.PRIORITY_NORMAL,
        )

    # -- data-plane tick ------------------------------------------------

    def _delivered_bits(self) -> float:
        return sum(member._delivered_bits for member in self.cluster.members)

    def _delivered_packets(self) -> float:
        return sum(member._delivered_packets for member in self.cluster.members)

    def _dropped_packets(self) -> float:
        return sum(member._dropped_packets for member in self.cluster.members)

    def _tick(self) -> None:
        cluster = self.cluster
        sim = cluster.sim
        interval = cluster.interval_s
        packet_bits = cluster.packet_bytes * 8
        index = self._index
        self._index = index + 1
        offered = index < self.offered_intervals
        rate = self._rates[index] if index < len(self._rates) else 0.0
        if offered:
            self._generated_packets += rate * 1e9 * interval / packet_bits
        shares = cluster.front.dispatch(rate, interval, packet_bits)
        start_s = sim.now - interval
        packet_bytes = cluster.packet_bytes
        multiplicity = self.train_multiplicity
        for member, share in zip(cluster.members, shares):
            member._tick(
                FlowBatch(start_s, interval, share, packet_bytes), multiplicity
            )
        if index == self.offered_intervals - 1:
            self._frozen["final_backlog_packets"] = cluster.total_backlog_packets()
            if cluster.autoscaler is not None:
                self._frozen["rack_awake_mean"] = cluster.autoscaler.awake_mean()
        elapsed_s = sim.now - self._window_start_s
        if elapsed_s >= WINDOW_S:
            bits = self._delivered_bits()
            gbps = (bits - self._window_bits) / elapsed_s / 1e9
            self._max_window_gbps = max(self._max_window_gbps, gbps)
            self._window_start_s = sim.now
            self._window_bits = bits

    # -- barrier protocol -----------------------------------------------

    def push_rates(self, rates_gbps: List[float]) -> None:
        """Append the next epoch's per-interval offered rates."""
        for rate_gbps in rates_gbps:
            if rate_gbps < 0:
                raise ValueError(f"rate cannot be negative ({rate_gbps})")
        self._rates.extend(rates_gbps)

    def advance_to(self, when_s: float) -> None:
        """Run the rack's simulator up to the barrier at ``when_s``."""
        if self._finished:
            raise RuntimeError("stepper already finished")
        self.cluster.sim.run(until=when_s)

    def snapshot(self) -> RackSnapshot:
        """Cumulative boundary counters at the current simulator time."""
        cluster = self.cluster
        awake = float(cluster.servers)
        if cluster.autoscaler is not None:
            awake = float(cluster.autoscaler.active_count())
        now_s = cluster.sim.now
        return RackSnapshot(
            now_s=now_s,
            dispatched_bits=cluster.front.dispatched_bits,
            delivered_bits=self._delivered_bits(),
            delivered_packets=self._delivered_packets(),
            dropped_packets=self._dropped_packets(),
            backlog_packets=cluster.total_backlog_packets(),
            rxq_occupancy=max(slot.occupancy() for slot in cluster.slots),
            awake=awake,
            energy_j=cluster.rack_power.average_watts() * now_s,
        )

    def telemetry_sample(self) -> Dict[str, float]:
        """Read-only per-epoch telemetry beyond the boundary snapshot:
        the weighted p99 latency (µs, ToR hop included) over samples
        that arrived since the previous call, and the autoscaler's state
        census.  Pure observation — reads the same member sample lists
        ``finish`` consumes without mutating any simulation state, so
        sampling cannot perturb the payload."""
        cluster = self.cluster
        tor_s = cluster.front.tor_latency_s
        window: List[Tuple[float, float]] = []
        for position, member in enumerate(cluster.members):
            samples = member._samples
            mark = self._sample_marks[position]
            window.extend(
                (latency + tor_s, weight) for latency, weight in samples[mark:]
            )
            self._sample_marks[position] = len(samples)
        out: Dict[str, float] = {
            "p99_us": weighted_quantile(window, 0.99) * 1e6,
            "sampled_weight": sum(weight for _, weight in window),
            "draining": 0.0,
            "asleep": 0.0,
            "waking": 0.0,
        }
        if cluster.autoscaler is not None:
            for server in cluster.autoscaler.servers:
                if server.state == STATE_DRAINING:
                    out["draining"] += 1.0
                elif server.state == STATE_ASLEEP:
                    out["asleep"] += 1.0
                elif server.state == STATE_WAKING:
                    out["waking"] += 1.0
        return out

    def finish(self, offered_gbps: float, duration_s: float) -> RunMetrics:
        """Drain, stop the control plane, assemble the rack's metrics.

        ``duration_s`` is the measured (offered) duration; the simulator
        runs to ``duration_s`` past the start plus the standard drain
        window.  Callers pass the duration they scheduled, not one rebuilt
        from the interval count, because the two differ in floating point.
        """
        if self._finished:
            raise RuntimeError("stepper already finished")
        self._finished = True
        cluster = self.cluster
        sim = cluster.sim
        sim.run(until=self._start_s + duration_s + DRAIN_S)
        self._stop_tick()
        for member in cluster.members:
            member.stop()
        if cluster.autoscaler is not None:
            cluster.autoscaler.stop()

        metrics = cluster.metrics
        metrics.offered_gbps = offered_gbps
        metrics.duration_s = duration_s
        metrics.delivered_bytes = int(round(self._delivered_bits() / 8))
        metrics.delivered_packets = int(round(self._delivered_packets()))
        metrics.dropped_packets = int(round(self._dropped_packets()))
        metrics.generated_packets = int(round(self._generated_packets))
        metrics.average_power_w = cluster.rack_power.average_watts()
        metrics.power_breakdown = cluster.rack_power.breakdown()
        samples: List[Tuple[float, float]] = []
        tor_s = cluster.front.tor_latency_s
        for member in cluster.members:
            samples.extend(
                (latency + tor_s, weight) for latency, weight in member._samples
            )
        fill_reservoir(metrics.latency, samples)
        metrics.snic_share = snic_share(cluster.members)
        extras = metrics.extras
        extras["max_window_gbps"] = max(
            self._max_window_gbps, metrics.throughput_gbps
        )
        extras["servers"] = float(cluster.servers)
        extras["front_reroutes"] = float(cluster.front.reroutes)
        extras["front_dispatched_gbps"] = cluster.front.dispatched_gbps(duration_s)
        extras["final_backlog_packets"] = self._frozen.get(
            "final_backlog_packets", 0.0
        )
        if cluster.autoscaler is not None:
            extras["rack_awake_mean"] = self._frozen.get(
                "rack_awake_mean", float(cluster.servers)
            )
            extras["rack_wakes"] = float(cluster.autoscaler.wakes)
            extras["rack_sleeps"] = float(cluster.autoscaler.sleeps)
        return metrics


def run_rack_flow(
    member_kind: str,
    function: str,
    trace: str,
    config: "RunConfig",
    servers: int = 4,
    policy: str = "packing",
    autoscale: bool = True,
    **kwargs: Any,
) -> RunMetrics:
    """Flow-mode rack trace run (dispatched from ``cluster.run_rack``)."""
    spec = scaled_trace(trace, servers)
    cluster = FlowClusterSystem(
        member_kind,
        function,
        servers=servers,
        seed=config.seed,
        policy=policy,
        autoscale=autoscale,
        functional_rate=config.functional_rate,
        interval_s=config.flow_interval_s,
        packet_bytes=config.packet_bytes,
        **kwargs,
    )
    traffic_spec = config.spec(spec.average_gbps * 3)
    source = TraceRateSource(
        spec,
        cluster.rng,
        cluster.plan,
        traffic_spec,
        trace_interval_s=config.trace_interval_s,
        line_rate_gbps=100.0 * servers,
    )
    return cluster.run(
        source, config.duration_s, train_multiplicity=traffic_spec.batch
    )
