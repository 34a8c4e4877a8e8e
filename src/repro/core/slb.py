"""SLB — the software-based load balancer baseline (§IV).

SLB runs entirely on the SNIC CPU: every packet lands in the SNIC's Rx
rings, and dedicated SNIC cores re-transmit the excess (above ``Fwd_Th``)
to the host through the long path
``eSwitch → SNIC memory → SNIC CPU → SNIC memory → eSwitch → host``.

The costs the paper measures fall straight out of the model:

* forwarding cores are taken away from the network function (NAT's
  memory-bound scaling makes the remaining cores slower);
* each forwarding core can only move ~15 Gbps (fitted to Fig. 5: one core
  drops ~58–61% of an 80 Gbps offered load, four cores sustain ~60 Gbps
  of forwarding);
* forwarded packets pay the long store-and-forward path latency, so SLB's
  p99 exceeds even SNIC-only overload processing.

``HostSideSlbSystem`` models the §IV alternative of running SLB on the
host: it works at high rates but keeps the power-hungry host CPU awake to
count packets and doubles the DPDK processing on the forwarded path.
"""

from __future__ import annotations

from repro.core.hlb import TrafficDirector
from repro.core.systems import ServerSystem, snic_share
from repro.hw.pcie import host_delivery_latency_s, snic_delivery_latency_s
from repro.hw.power import ROLE_HOST, ROLE_SNIC
from repro.hw.profiles import EngineProfile
from repro.net.packet import Packet

#: per-SNIC-core DPDK store-and-forward capacity (fitted to Fig. 5)
SLB_FORWARD_GBPS_PER_CORE = 15.0
#: one-way latency of the eSwitch→memory→CPU→memory→eSwitch round trip
SLB_FORWARD_PATH_US = 12.0
#: host-side SLB: the extra full DPDK RX/TX pass on the host CPU that every
#: packet pays before reaching its processor (§IV: 2x the DPDK processing)
HOST_SLB_PATH_US = 25.0


#: software forwarding rings are memory-backed and deep (mbuf pools)
SLB_FORWARD_RING_PACKETS = 4096
#: rx_burst software loops serve burstily, unlike a hardware pipeline
SLB_SERVICE_JITTER = 0.5


#: host-side SLB's forwarding stage: host cores always awake, because
#: they count and forward every packet
HOST_SLB_FWD_PROFILE = EngineProfile(
    name="host-slb-fwd",
    capacity_gbps=100.0,
    cores=8,
    scaling_exponent=1.0,
    base_latency_us=HOST_SLB_PATH_US,
    dynamic_power_w=40.0,
    queue_capacity_packets=512,
)


def slb_nf_cores(
    snic: EngineProfile, slb_cores: int, total_snic_cores: int
) -> int:
    """SNIC cores left to the network function once ``slb_cores`` of the
    ``total_snic_cores`` forward; at least one must be left."""
    if not 1 <= slb_cores < total_snic_cores:
        raise ValueError(
            f"slb_cores must leave at least one NF core "
            f"(got {slb_cores} of {total_snic_cores})"
        )
    return min(total_snic_cores - slb_cores, snic.cores)


def _forward_profile(cores: int) -> EngineProfile:
    return EngineProfile(
        name=f"slb-fwd-{cores}c",
        capacity_gbps=SLB_FORWARD_GBPS_PER_CORE * cores,
        cores=cores,
        scaling_exponent=1.0,
        base_latency_us=SLB_FORWARD_PATH_US,
        dynamic_power_w=3.0,
        queue_capacity_packets=SLB_FORWARD_RING_PACKETS,
    )


class SlbSystem(ServerSystem):
    """SNIC-resident software load balancer (§IV, Fig. 5)."""

    kind = "slb"

    def __init__(
        self,
        function: str,
        fwd_threshold_gbps: float = 20.0,
        slb_cores: int = 4,
        total_snic_cores: int = 8,
        **kwargs,
    ) -> None:
        self.fwd_threshold_gbps = fwd_threshold_gbps
        self.slb_cores = slb_cores
        self.total_snic_cores = total_snic_cores
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        self.snic_engine = self._nf_engine(
            profile.snic, ROLE_SNIC,
            active_cores=slb_nf_cores(
                profile.snic, self.slb_cores, self.total_snic_cores
            ),
            delivery_latency_s=snic_delivery_latency_s(),
        )
        self.forward_engine = self._engine(
            _forward_profile(self.slb_cores), ROLE_SNIC,
            forward_stage=True,
            service_jitter=SLB_SERVICE_JITTER,
            on_complete=self._deliver_to_host,
        )
        self.host_engine = self._nf_engine(
            profile.host, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
        )
        # the rate split SLB computes in software from rx_burst counts
        self.director = TrafficDirector(self.sim, self.plan, self.fwd_threshold_gbps)

    def ingress(self, packet: Packet) -> None:
        directed = self.director.direct(packet)
        if directed.dst == self.plan.host:
            # excess: must be re-transmitted by an SLB core
            self.forward_engine.receive(directed)
        else:
            self.snic_engine.receive(directed)

    def _deliver_to_host(self, packet: Packet) -> None:
        self.host_engine.receive(packet)

    def _finalize(self) -> None:
        self.metrics.dropped_packets += self.forward_engine.dropped_packets
        self.metrics.snic_share = snic_share([self])
        self.metrics.extras["forwarded_packets"] = float(
            self.forward_engine.delivered_packets
        )
        self.metrics.extras["forward_drops"] = float(
            self.forward_engine.dropped_packets
        )


class HostSideSlbSystem(ServerSystem):
    """SLB running on the host CPU instead (§IV's alternative)."""

    kind = "host-slb"

    def __init__(self, function: str, fwd_threshold_gbps: float = 20.0, **kwargs) -> None:
        self.fwd_threshold_gbps = fwd_threshold_gbps
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        self.host_fwd_engine = self._engine(
            HOST_SLB_FWD_PROFILE, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
            forward_stage=True,
            on_complete=self._split,
        )
        self.snic_engine = self._nf_engine(
            profile.snic, ROLE_SNIC,
            delivery_latency_s=snic_delivery_latency_s(),
        )
        self.host_engine = self._nf_engine(
            profile.host, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
        )
        self.director = TrafficDirector(self.sim, self.plan, self.fwd_threshold_gbps)

    def ingress(self, packet: Packet) -> None:
        # every packet crosses to the host CPU for counting/forwarding first
        self.host_fwd_engine.receive(packet)

    def _split(self, packet: Packet) -> None:
        directed = self.director.direct(packet)
        if directed.dst == self.plan.host:
            self.host_engine.receive(directed)
        else:
            # forwarded back through the eSwitch to the SNIC CPU: a second
            # PCIe crossing and a second DPDK processing pass
            packet.created_at -= host_delivery_latency_s()
            self.snic_engine.receive(directed)

    def _finalize(self) -> None:
        self.metrics.snic_share = snic_share([self])
