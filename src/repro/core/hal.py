"""HAL — the full hardware-assisted load-balancing system (§V).

Data path (Fig. 6):

  client → [HLB: monitor ▸ director] → eSwitch → SNIC engine (≤ Fwd_Th)
                                               ↘ host engine (excess)
  host engine → [HLB: merger] → client
  SNIC engine → client

Control path: LBP (Algorithm 1) runs every period on an SNIC core,
estimating SNIC throughput and Rx occupancy and writing ``Fwd_Th`` into
the director; its ticks are evaluated on demand, before each arrival
and each SNIC-engine event that changes those inputs. Host cores use
the DPDK power-management API: they sleep whenever HAL sends them
nothing, so at low packet rates the system runs at SNIC-only power
while retaining the host's capacity for bursts.

Stateful functions attach a :class:`~repro.nf.state.SharedStateDomain`:
coherent (CXL/UPI-class) by default, or the expensive non-coherent PCIe
flavour to demonstrate why §V-C wants a CXL-SNIC.
"""

from __future__ import annotations

from typing import Optional

from repro.core.hlb import HardwareLoadBalancer
from repro.core.lbp import LbpConfig, LoadBalancingPolicy, profiled_initial_threshold
from repro.core.systems import ServerSystem, snic_share
from repro.hw.cxl import make_cxl_state_domain, make_pcie_state_domain
from repro.hw.pcie import host_delivery_latency_s, snic_delivery_latency_s
from repro.hw.power import ROLE_HOST, ROLE_SNIC
from repro.hw.profiles import FunctionProfile
from repro.net.packet import Packet


def hal_initial_threshold(
    profile: FunctionProfile, initial_threshold_gbps: Optional[float]
) -> float:
    """The initial ``Fwd_Th`` of a HAL server in either simulation mode:
    the given value, or 90% of the profiled SLO throughput.  Refuses a
    function HAL cannot split between SNIC and host."""
    if not profile.cooperative:
        raise ValueError(
            f"{profile.function} cannot be processed cooperatively (§VI: "
            "the compression accelerator works at file granularity)"
        )
    if initial_threshold_gbps is not None:
        return initial_threshold_gbps
    return profiled_initial_threshold(profile.slo_gbps, headroom=0.9)


class HalSystem(ServerSystem):
    """SNIC-host cooperative processing under HAL."""

    kind = "hal"

    def __init__(
        self,
        function: str,
        lbp_config: Optional[LbpConfig] = None,
        initial_threshold_gbps: Optional[float] = None,
        interconnect: str = "cxl",
        host_sleep: bool = True,
        **kwargs,
    ) -> None:
        if interconnect not in ("cxl", "pcie"):
            raise ValueError(f"unknown interconnect {interconnect!r}")
        # None sentinel, not a default instance: a default evaluated at
        # import time would be one shared object across every HalSystem
        self.lbp_config = lbp_config if lbp_config is not None else LbpConfig()
        self.initial_threshold_gbps = initial_threshold_gbps
        self.interconnect = interconnect
        self.host_sleep = host_sleep
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        threshold = hal_initial_threshold(profile, self.initial_threshold_gbps)
        self.state_domain = None
        if profile.stateful:
            self.state_domain = (
                make_cxl_state_domain()
                if self.interconnect == "cxl"
                else make_pcie_state_domain()
            )

        self.hlb = HardwareLoadBalancer(self.sim, self.plan, threshold)
        self.add_stopper(self.hlb.stop)

        self.snic_engine = self._nf_engine(
            profile.snic, ROLE_SNIC,
            delivery_latency_s=snic_delivery_latency_s(),
            state_domain=self.state_domain, state_agent="snic",
        )
        self.host_engine = self._nf_engine(
            profile.host, ROLE_HOST,
            on_complete=self._host_egress,
            delivery_latency_s=host_delivery_latency_s(),
            state_domain=self.state_domain, state_agent="host",
            sleep_enabled=self.host_sleep,
        )
        self.power.set_constant("hlb", self.power.config.hlb_fpga_w)

        self.eswitch.attach_port("snic", self.snic_engine.receive)
        self.eswitch.attach_port("host", self.host_engine.receive)
        self.eswitch.add_rule(self.plan.snic, "snic")
        self.eswitch.add_rule(self.plan.host, "host")

        # on demand, like flow mode: the policy catches up before each
        # change to what Algorithm 1 reads (see ingress) instead of the
        # heap carrying one event per tick
        self.lbp = LoadBalancingPolicy(
            self.sim, self.snic_engine, self.hlb.director, self.lbp_config
        )
        self.snic_engine.on_input_change = self.lbp.advance_to
        self.add_stopper(self.lbp.stop)

    def ingress(self, packet: Packet) -> None:
        # the director refill and the SNIC ring push come after every
        # tick due by now, as after a PRIORITY_CONTROL recurrence
        self.lbp.advance_to(self.sim._now)
        directed = self.hlb.ingress(packet)
        self.eswitch.forward(directed)

    def _host_egress(self, response: Packet) -> None:
        self.client_sink(self.hlb.egress(response))

    def _finalize(self) -> None:
        self.metrics.snic_share = snic_share([self])
        self.metrics.extras["fwd_threshold_gbps"] = (
            self.hlb.director.fwd_threshold_gbps
        )
        self.metrics.extras["host_wakeups"] = float(self.host_engine.wake_count)
        self.metrics.extras["merged_packets"] = float(self.hlb.merger.merged_packets)
        if self.state_domain is not None:
            self.metrics.extras["coherence_stall_s"] = (
                self.state_domain.stats.total_stall_s
            )
            self.metrics.extras["sharing_ratio"] = self.state_domain.sharing_ratio()
