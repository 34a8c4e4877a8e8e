"""The front-tier L4 balancer port.

A rack's clients address one virtual identity (the VIP).  The ToR-
resident balancer picks a back-end server per packet (policy-driven),
rewrites the destination from the VIP to that server's SNIC identity —
the same RFC 1624 incremental-checksum rewrite the HLB director performs
inside each server — and forwards it through an
:class:`~repro.net.eswitch.EmbeddedSwitch` whose ports are the servers'
ingress paths.  Responses pass back through :meth:`egress`, which
masquerades the per-server SNIC source as the VIP so the single-source
illusion of §V-A holds at rack scope too: clients can never tell how
many servers (or which) served them.

The ToR hop itself is charged by back-dating ``created_at`` — the same
mechanism every forward stage in the repo uses — so rack p99 includes
the extra switch traversal.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.policies import DispatchPolicy, ServerSlot
from repro.net.addressing import RackAddressPlan
from repro.net.eswitch import EmbeddedSwitch, PortHandler
from repro.net.packet import Packet
from repro.sim.engine import Simulator

#: one ToR store-and-forward traversal (cut-through switches do better;
#: derived, not paper-anchored)
TOR_LATENCY_S = 1e-6


class FrontTierPort:
    """Policy-driven VIP dispatch over an embedded-switch port table."""

    def __init__(
        self,
        sim: Simulator,
        rack_plan: RackAddressPlan,
        policy: DispatchPolicy,
        slots: Sequence[ServerSlot],
        handlers: Sequence[PortHandler],
        tor_latency_s: float = TOR_LATENCY_S,
    ) -> None:
        if len(slots) != len(handlers):
            raise ValueError("one ingress handler per server slot")
        if len(slots) != len(rack_plan):
            raise ValueError("slot count must match the rack address plan")
        self.sim = sim
        self.vip = rack_plan.front.snic
        self.policy = policy
        self.slots: List[ServerSlot] = list(slots)
        self.tor_latency_s = tor_latency_s
        self.eswitch = EmbeddedSwitch(name="front-tier")
        for slot, handler in zip(self.slots, handlers):
            port = f"s{slot.index}"
            self.eswitch.attach_port(port, handler)
            self.eswitch.add_rule(slot.plan.snic, port)
        self.dispatched_packets = 0
        self.dispatched_bits = 0
        self.responses = 0
        #: dispatch decisions that switched away from the previous target
        #: server — the balancer-decision signal the trace records
        self.reroutes = 0
        self._last_target = -1
        #: repro.obs tracer; None (untraced) costs one branch per dispatch
        self.tracer = None

    # -- data path -------------------------------------------------------
    def routable_slots(self) -> List[ServerSlot]:
        return [slot for slot in self.slots if slot.routable]

    def ingress(self, packet: Packet) -> None:
        """Dispatch one client packet to a back-end server."""
        awake = [slot for slot in self.slots if slot.routable]
        if not awake:
            # the autoscaler keeps >= min_awake servers routable; if a
            # misconfigured caller parks everything, degrade gracefully
            awake = self.slots
        slot = awake[0] if len(awake) == 1 else self.policy.select(awake, packet)
        multiplicity = packet.multiplicity
        bits = packet.size_bytes * 8 * multiplicity
        self.dispatched_packets += multiplicity
        self.dispatched_bits += bits
        slot.dispatched_packets += multiplicity
        slot.dispatched_bits += bits
        if slot.index != self._last_target:
            self.reroutes += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "rack/front-tier",
                    f"dispatch->s{slot.index}",
                    self.sim.now,
                    {"occupancy": slot.occupancy(), "awake": len(awake)},
                )
            self._last_target = slot.index
        # charge the ToR traversal, then the checksum-correct VIP rewrite
        packet.created_at -= self.tor_latency_s
        packet.rewrite_destination(slot.plan.snic)
        self.eswitch.forward(packet)

    def egress(self, slot: ServerSlot, packet: Packet) -> None:
        """Masquerade a server's response as the VIP on its way out."""
        if packet.src != self.vip:
            packet.rewrite_source(self.vip)
        multiplicity = packet.multiplicity
        slot.responses += multiplicity
        self.responses += multiplicity

    # -- reporting -------------------------------------------------------
    def dispatched_gbps(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            return 0.0
        return self.dispatched_bits / elapsed_s / 1e9
