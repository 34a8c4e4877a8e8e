"""Baseline systems: host-only and SNIC-only processing.

These are the two static configurations HAL is compared against
throughout the evaluation: every packet processed by the host processor
(eSwitch forwards straight through the PCIe switch; all eight host cores
busy-poll), or every packet processed by the SNIC processor (host cores
never touched — the server sits at its ~194 W idle floor plus the SNIC's
few active watts).
"""

from __future__ import annotations

from repro.core.systems import ServerSystem
from repro.hw.host import make_host_engine
from repro.hw.power import ROLE_HOST, ROLE_SNIC
from repro.hw.snic import make_snic_engine
from repro.net.packet import Packet

#: single-engine platform kinds (Fig. 10): two SNIC generations, two hosts
PLATFORMS = ("bf2", "bf3", "skylake", "spr")
SNIC_PLATFORMS = ("bf2", "bf3")


class HostOnlySystem(ServerSystem):
    """All packets to the host processor (the paper's 'Host' columns)."""

    kind = "host"

    def _build(self) -> None:
        self.engine = make_host_engine(
            self.sim,
            self.function,
            name_prefix=self.engine_prefix,
            nf=self.nf,
            functional_rate=self.functional_rate,
            metrics=self.metrics,
            on_complete=self.client_sink,
        )
        self.power.track(self.engine, ROLE_HOST)
        self.eswitch.attach_port("host", self.engine.receive)
        self.eswitch.add_rule(self.plan.snic, "host")
        self.eswitch.set_default("host")

    def ingress(self, packet: Packet) -> None:
        self.eswitch.forward(packet)


class SnicOnlySystem(ServerSystem):
    """All packets to the SNIC processor (the paper's 'SNIC' columns)."""

    kind = "snic"

    def _build(self) -> None:
        self.engine = make_snic_engine(
            self.sim,
            self.function,
            name_prefix=self.engine_prefix,
            nf=self.nf,
            functional_rate=self.functional_rate,
            metrics=self.metrics,
            on_complete=self.client_sink,
        )
        self.power.track(self.engine, ROLE_SNIC)
        self.eswitch.attach_port("snic", self.engine.receive)
        self.eswitch.add_rule(self.plan.snic, "snic")
        self.eswitch.set_default("snic")

    def ingress(self, packet: Packet) -> None:
        self.eswitch.forward(packet)

    def _finalize(self) -> None:
        # every delivered bit was processed on the SNIC
        self.metrics.snic_share = 1.0


class PlatformSystem(ServerSystem):
    """A single engine built from an explicit profile — used by the
    Fig. 10 BF-3 vs Sapphire Rapids comparison."""

    kind = "platform"

    def __init__(self, function: str, platform: str, **kwargs) -> None:
        if platform not in PLATFORMS:
            raise ValueError(f"unknown platform {platform!r}")
        self.platform = platform
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        if self.platform in SNIC_PLATFORMS:
            self.engine = make_snic_engine(
                self.sim, self.function, generation=self.platform,
                name_prefix=self.engine_prefix,
                nf=self.nf, functional_rate=self.functional_rate,
                metrics=self.metrics, on_complete=self.client_sink,
            )
            self.power.track(self.engine, ROLE_SNIC)
        else:
            self.engine = make_host_engine(
                self.sim, self.function, generation=self.platform,
                name_prefix=self.engine_prefix,
                nf=self.nf, functional_rate=self.functional_rate,
                metrics=self.metrics, on_complete=self.client_sink,
            )
            self.power.track(self.engine, ROLE_HOST)
        self.eswitch.attach_port("engine", self.engine.receive)
        self.eswitch.set_default("engine")

    def ingress(self, packet: Packet) -> None:
        self.eswitch.forward(packet)

    def _finalize(self) -> None:
        if self.platform in SNIC_PLATFORMS:
            self.metrics.snic_share = 1.0
