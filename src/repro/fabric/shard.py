"""One rack as a shard: the unit a sharded worker process owns.

A :class:`RackShard` wraps a flow-mode
:class:`~repro.flow.cluster.FlowClusterSystem` behind the three-verb
barrier protocol :class:`~repro.runner.sharded.ShardedRunner` speaks
(``describe`` / ``step`` / ``finish``).  Everything a shard needs is in
its frozen, scalar-only :class:`RackShardSpec`, so the spec pickles
cleanly under both fork and spawn start methods and a shard rebuilt in
any process from the same spec evolves identically.

Determinism: the spec carries a *pre-spawned* rack seed (the parent
derives it with :func:`repro.sim.rng.spawn_seed` from the fleet seed and
the rack index), and a shard's evolution depends only on that seed and
the rate sequence pushed to it — never on which worker hosts it or how
many siblings it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.autoscaler import STATE_ASLEEP, STATE_DRAINING, STATE_WAKING
from repro.flow.cluster import FlowClusterSystem
from repro.obs.fleet import ProbeDeltaTap
from repro.obs.probes import ProbeRegistry


#: dotted path the sharded runner resolves in each worker process
SHARD_FACTORY = "repro.fabric.shard:build_rack_shard"


@dataclass(frozen=True)
class RackShardSpec:
    """Scalar-only description of one rack shard (picklable)."""

    index: int
    member_kind: str
    function: str
    servers: int
    policy: str
    seed: int
    flow_interval_s: float
    epoch_s: float
    epochs: int
    packet_bytes: int
    train_multiplicity: int
    autoscale: bool = True
    #: attach a local ProbeRegistry and ship per-epoch probe deltas in
    #: every step summary (read-only: never changes the rack's evolution)
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("rack index cannot be negative")
        if self.servers < 1:
            raise ValueError("a rack needs at least one server")
        if self.flow_interval_s <= 0 or self.epoch_s <= 0:
            raise ValueError("intervals must be positive")
        if self.epoch_s < self.flow_interval_s:
            raise ValueError("epoch_s must be >= flow_interval_s")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.train_multiplicity < 1:
            raise ValueError("train_multiplicity must be >= 1")

    @property
    def intervals_per_epoch(self) -> int:
        return max(1, round(self.epoch_s / self.flow_interval_s))


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


class RackShard:
    """Steppable rack: one epoch in, one boundary summary out."""

    def __init__(self, spec: RackShardSpec) -> None:
        self.spec = spec
        self.cluster = FlowClusterSystem(
            spec.member_kind,
            spec.function,
            servers=spec.servers,
            seed=spec.seed,
            policy=spec.policy,
            autoscale=spec.autoscale,
            interval_s=spec.flow_interval_s,
            packet_bytes=spec.packet_bytes,
        )
        self.stepper = self.cluster.start(
            spec.epochs * spec.intervals_per_epoch, spec.train_multiplicity
        )
        self.epoch = 0
        #: per-member sample-list lengths already read by telemetry
        self._sample_marks: List[int] = [0] * spec.servers
        self._previous = self.snapshot()
        self.probes: Optional[ProbeRegistry] = None
        self._tap: Optional[ProbeDeltaTap] = None
        if spec.telemetry:
            self.probes = ProbeRegistry()
            self._tap = ProbeDeltaTap(self.probes)

    def snapshot(self) -> RackSnapshot:
        """Cumulative boundary counters at the current simulator time."""
        cluster = self.cluster
        stepper = self.stepper
        awake = float(len(cluster.members))
        if cluster.autoscaler is not None:
            awake = float(cluster.autoscaler.active_count())
        now_s = cluster.sim.now
        return RackSnapshot(
            now_s=now_s,
            dispatched_bits=cluster.front.dispatched_bits,
            delivered_bits=stepper.delivered_bits(),
            delivered_packets=stepper.delivered_packets(),
            dropped_packets=stepper.dropped_packets(),
            backlog_packets=stepper.backlog_packets(),
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

    def describe(self) -> Dict[str, float]:
        """Static facts the fleet balancer needs before the first epoch."""
        return {
            "index": float(self.spec.index),
            "servers": float(self.spec.servers),
            "capacity_gbps": sum(self.cluster.front.capacities_gbps),
        }

    def step(self, rate_gbps: float) -> Dict[str, Any]:
        """Offer ``rate_gbps`` for one epoch, advance to the barrier,
        return the epoch's boundary summary (per-epoch deltas of the
        cumulative snapshot counters).  With ``spec.telemetry`` the
        summary additionally carries ``"probes"`` — the local registry's
        delta since the previous barrier — which downstream consumers
        that only read the numeric keys ignore."""
        if self.epoch >= self.spec.epochs:
            raise RuntimeError("shard already consumed all offered epochs")
        spec = self.spec
        self.stepper.push_rates([rate_gbps] * spec.intervals_per_epoch)
        self.epoch += 1
        self.stepper.advance_to(self.epoch * spec.epoch_s)
        snapshot = self.snapshot()
        previous = self._previous
        self._previous = snapshot
        epoch_s = spec.epoch_s
        summary: Dict[str, Any] = {
            "dispatched_gbps": (
                (snapshot.dispatched_bits - previous.dispatched_bits)
                / epoch_s
                / 1e9
            ),
            "delivered_gbps": (
                (snapshot.delivered_bits - previous.delivered_bits)
                / epoch_s
                / 1e9
            ),
            "power_w": (snapshot.energy_j - previous.energy_j) / epoch_s,
            "rxq_occupancy": float(snapshot.rxq_occupancy),
            "awake": snapshot.awake,
            "backlog_packets": snapshot.backlog_packets,
            "dropped_packets": (
                snapshot.dropped_packets - previous.dropped_packets
            ),
        }
        if self._tap is not None and self.probes is not None:
            probes = self.probes
            probes.counter("rack/dispatched_bits").inc(
                snapshot.dispatched_bits - previous.dispatched_bits
            )
            probes.counter("rack/delivered_bits").inc(
                snapshot.delivered_bits - previous.delivered_bits
            )
            probes.counter("rack/dropped_packets").inc(
                snapshot.dropped_packets - previous.dropped_packets
            )
            sample = self.telemetry_sample()
            probes.gauge("rack/power_w").set(summary["power_w"])
            probes.gauge("rack/rxq_occupancy").set(float(snapshot.rxq_occupancy))
            probes.gauge("rack/awake").set(snapshot.awake)
            probes.gauge("rack/draining").set(sample["draining"])
            probes.gauge("rack/asleep").set(sample["asleep"])
            probes.gauge("rack/waking").set(sample["waking"])
            probes.gauge("rack/backlog_packets").set(snapshot.backlog_packets)
            probes.gauge("rack/p99_us").set(sample["p99_us"])
            summary["probes"] = self._tap.collect()
        return summary

    def finish(self, offered_gbps: Any = 0.0) -> Dict[str, Any]:
        """Drain and return the rack's final RunMetrics payload."""
        offered = float(offered_gbps) if offered_gbps is not None else 0.0
        duration_s = self.stepper.offered_intervals * self.spec.flow_interval_s
        return self.cluster.finish(self.stepper, offered, duration_s).to_dict()


def build_rack_shard(spec: RackShardSpec) -> RackShard:
    """Module-level factory the sharded worker resolves by dotted path."""
    return RackShard(spec)
