"""Baseline systems: host-only, SNIC-only and the single-engine platforms.

The host-only and SNIC-only configurations are the two static baselines
HAL is compared against throughout the evaluation: every packet
processed by the host processor (eSwitch forwards straight through the
PCIe switch; all eight host cores busy-poll), or every packet processed
by the SNIC processor (host cores never touched — the server sits at
its ~194 W idle floor plus the SNIC's few active watts).  Both are
:class:`PlatformSystem` kinds pinned to the evaluation server's
platforms (Skylake, BlueField-2); Fig. 10 adds BlueField-3 and Sapphire
Rapids.  :func:`platform_stage` is the one description of a platform's
stage, which flow mode's platform kinds build from too.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.systems import ServerSystem
from repro.hw.host import host_engine_profile
from repro.hw.pcie import host_delivery_latency_s, snic_delivery_latency_s
from repro.hw.power import ROLE_HOST, ROLE_SNIC
from repro.hw.profiles import EngineProfile
from repro.hw.snic import snic_engine_profile
from repro.net.packet import Packet

#: single-engine platform kinds (Fig. 10): two SNIC generations, two hosts
PLATFORMS = ("bf2", "bf3", "skylake", "spr")
SNIC_PLATFORMS = ("bf2", "bf3")


def platform_stage(function: str, platform: str) -> Tuple[EngineProfile, float, str]:
    """``(profile, delivery latency, power role)`` of the one stage a
    ``platform`` kind runs ``function`` on, in either simulation mode."""
    if platform in SNIC_PLATFORMS:
        return (
            snic_engine_profile(function, platform),
            snic_delivery_latency_s(),
            ROLE_SNIC,
        )
    return (
        host_engine_profile(function, platform),
        host_delivery_latency_s(),
        ROLE_HOST,
    )


class PlatformSystem(ServerSystem):
    """A single engine built from a named platform's profile; its one
    eSwitch port, named by role, is the default route."""

    kind = "platform"

    def __init__(self, function: str, platform: str, **kwargs) -> None:
        if platform not in PLATFORMS:
            raise ValueError(f"unknown platform {platform!r}")
        self.platform = platform
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile, delivery, role = platform_stage(self.function, self.platform)
        self.engine = self._nf_engine(profile, role, delivery_latency_s=delivery)
        self.eswitch.attach_port(role, self.engine.receive)
        self.eswitch.set_default(role)

    def ingress(self, packet: Packet) -> None:
        self.eswitch.forward(packet)

    def _finalize(self) -> None:
        if self.platform in SNIC_PLATFORMS:
            # every delivered bit was processed on the SNIC
            self.metrics.snic_share = 1.0


class HostOnlySystem(PlatformSystem):
    """All packets to the host processor (the paper's 'Host' columns)."""

    kind = "host"

    def __init__(self, function: str, **kwargs) -> None:
        super().__init__(function, platform="skylake", **kwargs)


class SnicOnlySystem(PlatformSystem):
    """All packets to the SNIC processor (the paper's 'SNIC' columns)."""

    kind = "snic"

    def __init__(self, function: str, **kwargs) -> None:
        super().__init__(function, platform="bf2", **kwargs)
