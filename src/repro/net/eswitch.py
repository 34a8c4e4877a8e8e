"""Embedded switch (eSwitch) — the OvS data plane inside the SNIC.

Section II-A: the BlueField-2 eSwitch forwards packets arriving at the
Ethernet port to either the SNIC CPU or the host CPU according to
forwarding rules programmed by the SNIC CPU (the OvS control plane).
HAL and SLB both rely on exactly this behaviour: a packet whose
destination field carries the host identity is delivered across PCIe to
the host, all others go to the SNIC processor.

The model is a rule table keyed by destination (MAC, IP) mapping to a
named port, with a per-port delivery callback and per-port counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.net.addressing import Endpoint
from repro.net.packet import Packet

PortHandler = Callable[[Packet], None]


class SwitchError(RuntimeError):
    """Raised for misconfigured forwarding state."""


@dataclass
class PortStats:
    packets: int = 0
    bytes: int = 0


class EmbeddedSwitch:
    """Destination-based forwarding with an optional default port."""

    def __init__(self, name: str = "eswitch") -> None:
        self.name = name
        self._rules: Dict[Tuple[int, int], str] = {}
        self._ports: Dict[str, PortHandler] = {}
        self.stats: Dict[str, PortStats] = {}
        self.default_port: Optional[str] = None
        self.unmatched_drops = 0

    def attach_port(self, port: str, handler: PortHandler) -> None:
        """Register a delivery callback for ``port``."""
        if port in self._ports:
            raise SwitchError(f"port {port!r} already attached")
        self._ports[port] = handler
        self.stats[port] = PortStats()

    def add_rule(self, dst: Endpoint, port: str) -> None:
        """Program an OvS-style rule: packets to ``dst`` leave via ``port``."""
        if port not in self._ports:
            raise SwitchError(f"cannot add rule to unattached port {port!r}")
        self._rules[(dst.mac, dst.ip)] = port

    def remove_rule(self, dst: Endpoint) -> None:
        self._rules.pop((dst.mac, dst.ip), None)

    def set_default(self, port: str) -> None:
        if port not in self._ports:
            raise SwitchError(f"cannot default to unattached port {port!r}")
        self.default_port = port

    def forward(self, packet: Packet) -> bool:
        """Forward one packet; returns False if no rule matched.

        The rule lookup and the port counters are inline: this runs once
        per packet."""
        dst = packet.dst
        multiplicity = packet.multiplicity
        port = self._rules.get((dst.mac, dst.ip))
        if port is None:
            port = self.default_port
            if port is None:
                self.unmatched_drops += multiplicity
                return False
        stats = self.stats[port]
        stats.packets += multiplicity
        stats.bytes += packet.size_bytes * multiplicity
        self._ports[port](packet)
        return True

    def rule_count(self) -> int:
        return len(self._rules)

    def wrap_ports(self, factory: Callable[[str, PortHandler], PortHandler]) -> None:
        """Replace every port handler with ``factory(port, handler)``.

        The observability layer uses this to interpose
        :class:`~repro.net.capture.CaptureTap` windows on each port
        without the switch knowing about capture at all."""
        for port, handler in list(self._ports.items()):
            self._ports[port] = factory(port, handler)
