"""HAL core: hardware load balancer, policy, and evaluated systems."""

from typing import Dict, Type

from repro.core.costs import (
    CORUNDUM_LUTS,
    FPGA_TO_ASIC_POWER_FACTOR,
    U280_TOTAL_LUTS,
    HlbCostReport,
    lbp_control_bandwidth_bps,
)
from repro.core.hal import HalSystem
from repro.core.hlb import (
    HLB_LATENCY_S,
    MONITOR_WINDOW_S,
    TRANSCEIVER_MAC_LATENCY_S,
    DirectorStats,
    HardwareLoadBalancer,
    TrafficDirector,
    TrafficMerger,
    TrafficMonitor,
)
from repro.core.lbp import LbpConfig, LoadBalancingPolicy, profiled_initial_threshold
from repro.core.profiler import (
    FunctionCharacterization,
    ProfilePoint,
    build_profiled_hal,
    characterize_function,
)
from repro.core.slb import (
    HOST_SLB_PATH_US,
    SLB_FORWARD_GBPS_PER_CORE,
    SLB_FORWARD_PATH_US,
    HostSideSlbSystem,
    SlbSystem,
)
from repro.core.static import (
    PLATFORMS,
    HostOnlySystem,
    PlatformSystem,
    SnicOnlySystem,
)
from repro.core.systems import DRAIN_S, ServerSystem

#: system kind → packet-mode class: the one table single-server builds and
#: rack members index (the platform kinds in ``PLATFORMS`` build a
#: :class:`PlatformSystem` instead)
SYSTEM_CLASSES: Dict[str, Type[ServerSystem]] = {
    "host": HostOnlySystem,
    "snic": SnicOnlySystem,
    "hal": HalSystem,
    "slb": SlbSystem,
    "host-slb": HostSideSlbSystem,
}

__all__ = [
    "CORUNDUM_LUTS",
    "DRAIN_S",
    "DirectorStats",
    "FPGA_TO_ASIC_POWER_FACTOR",
    "FunctionCharacterization",
    "HLB_LATENCY_S",
    "HOST_SLB_PATH_US",
    "HalSystem",
    "HardwareLoadBalancer",
    "HlbCostReport",
    "HostOnlySystem",
    "HostSideSlbSystem",
    "LbpConfig",
    "LoadBalancingPolicy",
    "MONITOR_WINDOW_S",
    "PLATFORMS",
    "PlatformSystem",
    "SLB_FORWARD_GBPS_PER_CORE",
    "SLB_FORWARD_PATH_US",
    "SYSTEM_CLASSES",
    "ProfilePoint",
    "ServerSystem",
    "SlbSystem",
    "SnicOnlySystem",
    "TRANSCEIVER_MAC_LATENCY_S",
    "TrafficDirector",
    "TrafficMerger",
    "TrafficMonitor",
    "U280_TOTAL_LUTS",
    "build_profiled_hal",
    "characterize_function",
    "lbp_control_bandwidth_bps",
    "profiled_initial_threshold",
]
