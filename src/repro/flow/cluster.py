"""Rack-scale flow mode: fluid members behind a fluid front tier.

The rack *control plane* is the real one: a flow rack is wired by the
same :class:`repro.cluster.system.Rack` as a packet-mode rack, so the
:class:`repro.cluster.autoscaler.RackAutoscaler` and
:class:`repro.cluster.power.RackPowerModel` run unmodified — the
autoscaler reads dispatched-bits deltas from the fluid front tier and
Rx-ring occupancy / quiescence from the fluid stations through the same
duck-typed surface a packet-mode rack exposes.  Only the data path is
fluid: each control interval the front tier splits the offered-rate
train across routable members (packing concentrates load at low
indices, the other policies spread it), and each member expands its
share analytically.

:meth:`FlowClusterSystem.start` arms the one flow-mode run loop,
:class:`repro.flow.system.RackStepper`, over the members and front tier.
"""

from __future__ import annotations

from typing import Any, List

from repro.cluster.fronttier import TOR_LATENCY_S
from repro.cluster.policies import POLICIES, ServerSlot
from repro.cluster.system import Rack
from repro.core.systems import capacity_gbps, snic_share
from repro.flow.system import FLOW_SYSTEM_CLASSES, RackStepper, fill_reservoir
from repro.sim.metrics import RunMetrics


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


# the cluster layer sits outside the strictly typed subset, so its
# classes read as Any here
class FlowClusterSystem(Rack):  # type: ignore[misc]
    """N fluid members, one simulator, the real rack controllers."""

    member_classes = FLOW_SYSTEM_CLASSES

    def __init__(
        self,
        *args: Any,
        interval_s: float = 100e-6,
        packet_bytes: int = 1500,
        **kwargs: Any,
    ) -> None:
        """:class:`~repro.cluster.system.Rack`'s arguments, plus the flow
        interval and packet size every member and the run loop use."""
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        super().__init__(
            *args, interval_s=interval_s, packet_bytes=packet_bytes, **kwargs
        )

    def _front_tier(self, policy: str, tor_latency_s: float) -> FlowFrontTier:
        return FlowFrontTier(
            self.slots,
            [capacity_gbps(member) for member in self.members],
            policy,
            tor_latency_s=tor_latency_s,
        )

    def start(
        self, offered_intervals: int, train_multiplicity: int = 1
    ) -> RackStepper:
        """Arm this rack's run loop for ``offered_intervals`` offered
        intervals; rates are pushed to it afterwards."""
        return RackStepper(
            self.sim,
            self.members,
            self.interval_s,
            self.packet_bytes,
            self.front.dispatch,
            offered_intervals,
            train_multiplicity,
            self.autoscaler,
        )

    def finish(
        self, stepper: RackStepper, offered_gbps: float, duration_s: float
    ) -> RunMetrics:
        """Drain ``stepper`` and add the rack's power, latency (ToR hop
        included), SNIC share and extras."""
        metrics = stepper.finish(self.metrics, offered_gbps, duration_s)
        metrics.average_power_w = self.rack_power.average_watts()
        metrics.power_breakdown = self.rack_power.breakdown()
        tor_s = self.front.tor_latency_s
        fill_reservoir(
            metrics.latency,
            [
                (latency + tor_s, weight)
                for member in self.members
                for latency, weight in member._samples
            ],
        )
        metrics.snic_share = snic_share(self.members)
        self._rack_extras(metrics.extras, duration_s)
        return metrics

    def run(
        self,
        source: Any,
        duration_s: float,
        train_multiplicity: int = 1,
    ) -> RunMetrics:
        """Offer ``source``'s whole rate schedule at once."""
        rates = source.rates(duration_s, self.interval_s)
        stepper = self.start(len(rates), train_multiplicity)
        stepper.push_rates(rates)
        return self.finish(stepper, source.offered_gbps, duration_s)
