"""System-wide power model (§III-B calibration).

The paper measures *system* power through DCMI/BMC: the server idles at
194 W (SNIC plugged in, idle), the SNIC adds single-digit watts when
active, and the host side adds tens of watts for busy-polling DPDK cores
plus function-dependent dynamic power up to the 219–336 W loaded range.
Energy efficiency is throughput divided by this system power, which is
why SNIC processing wins at low rates: it avoids the host's polling and
dynamic power entirely while adding almost nothing itself.

:class:`PowerModel` tracks every :class:`~repro.hw.platform.ProcessingEngine`
(packet mode) or :class:`~repro.flow.station.FlowStation` (flow mode) and
integrates component power over simulated time:

* host engines: ``poll_w_per_core × cores`` while awake (DPDK busy-poll),
  plus ``dynamic_power_w × utilisation`` while processing;
* SNIC engines: ``dynamic_power_w × utilisation`` (the 29 W SNIC idle
  floor is part of the system idle);
* a sleeping engine draws nothing;
* constant adders (e.g. the HLB FPGA's <0.1 W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.sim.engine import Simulator
from repro.sim.metrics import PowerIntegrator, TimeSeries

if TYPE_CHECKING:
    from repro.flow.station import FlowStation
    from repro.hw.platform import ProcessingEngine

ROLE_HOST = "host"
ROLE_SNIC = "snic"


@dataclass(frozen=True)
class PowerConfig:
    """Calibrated system power coefficients (§III-B)."""

    system_idle_w: float = 194.0
    snic_idle_w: float = 29.0  # informational: included in system_idle_w
    host_poll_w_per_core: float = 6.0
    hlb_fpga_w: float = 0.1
    dcmi_sample_period_s: float = 1.0
    #: whole-server deep sleep (suspend-to-RAM class): the rack autoscaler
    #: drops an idle server's 194 W floor to this while it is parked.
    #: Derived from typical S3 draw of a 2-socket server, not paper-anchored.
    server_sleep_w: float = 18.0

    def __post_init__(self) -> None:
        if self.system_idle_w <= 0:
            raise ValueError("system idle power must be positive")
        if self.host_poll_w_per_core < 0 or self.hlb_fpga_w < 0:
            raise ValueError("power coefficients cannot be negative")
        if not 0 <= self.server_sleep_w <= self.system_idle_w:
            raise ValueError("server sleep power must be in [0, system idle]")


class PowerModel:
    """Integrates component power and provides DCMI-style sampling."""

    def __init__(self, sim: Simulator, config: Optional[PowerConfig] = None) -> None:
        self.sim = sim
        self.config = config = config if config is not None else PowerConfig()
        self.integrator = PowerIntegrator(start_time=sim.now)
        self.integrator.set_level("idle", config.system_idle_w, sim.now)
        self._roles: Dict[str, str] = {}
        self.samples = TimeSeries(name="dcmi-system-watts")
        #: whole-server deep-sleep flag (rack autoscaler); see set_server_asleep
        self.server_asleep = False
        #: repro.obs tracer; None (untraced) costs one branch per sample
        self.tracer = None

    def enable_tracing(self, tracer) -> None:
        """Mirror DCMI samples (and probe-pump reads) into a tracer."""
        self.tracer = tracer

    def trace_sample(self) -> None:
        """Emit the instantaneous power picture as tracer counters —
        system watts plus the SNIC/host dynamic split.  The probe pump
        calls this each interval; DCMI sampling also feeds the system
        counter when :meth:`start_sampling` is active."""
        tracer = self.tracer
        if tracer is None:
            return
        now = self.sim.now
        tracer.counter("power", "system_w", now, self.integrator.instantaneous_watts())
        for name, role in self._roles.items():
            level = self.integrator._levels.get(name, 0.0)
            tracer.counter("power", f"{role}:{name}_w", now, level)

    # -- engine tracking -------------------------------------------------
    def track(
        self, engine: Union[ProcessingEngine, FlowStation], role: str
    ) -> None:
        """Attach ``engine`` to the model; called once after construction."""
        if role not in (ROLE_HOST, ROLE_SNIC):
            raise ValueError(f"unknown power role {role!r}")
        if engine.name in self._roles:
            raise ValueError(f"engine {engine.name!r} already tracked")
        self._roles[engine.name] = role
        # bake the per-engine constants (name, role, dynamic power, the
        # host polling draw) into the callback: power updates fire on
        # every busy/idle transition, so the hot path is one utilization
        # read and one integrator update with no dict lookups
        name = engine.name
        dynamic_w = engine.profile.dynamic_power_w
        poll_w = self.config.host_poll_w_per_core
        integrator = self.integrator
        sim = self.sim

        if role == ROLE_HOST:

            def changed(e: Union[ProcessingEngine, FlowStation]) -> None:
                watts = (
                    0.0 if e.sleeping
                    else dynamic_w * e.utilization + poll_w * e.active_cores
                )
                integrator.set_level(name, watts, sim._now)

        else:

            def changed(e: Union[ProcessingEngine, FlowStation]) -> None:
                watts = 0.0 if e.sleeping else dynamic_w * e.utilization
                integrator.set_level(name, watts, sim._now)

        engine.on_power_change = changed
        changed(engine)

    def set_constant(self, component: str, watts: float) -> None:
        """Add a fixed draw (e.g. the HLB FPGA datapath)."""
        self.integrator.set_level(component, watts, self.sim.now)

    # -- whole-server deep sleep (rack autoscaler) -----------------------
    def set_server_asleep(self, asleep: bool) -> None:
        """Drop (or restore) the system idle floor for server deep sleep.

        The rack autoscaler parks drained servers: the 194 W idle floor
        falls to ``server_sleep_w`` while every tracked engine is quiet
        (the caller is responsible for having put engines to sleep first,
        so their dynamic/polling levels are already zero)."""
        if asleep == self.server_asleep:
            return
        self.server_asleep = asleep
        level = (
            self.config.server_sleep_w if asleep else self.config.system_idle_w
        )
        self.integrator.set_level("idle", level, self.sim.now)
        if self.tracer is not None:
            self.tracer.counter("power", "server_asleep", self.sim.now, float(asleep))

    # -- DCMI sampling ------------------------------------------------------
    def start_sampling(self) -> None:
        """Sample instantaneous system power once per DCMI period."""

        def sample() -> None:
            watts = self.integrator.instantaneous_watts()
            self.samples.append(self.sim.now, watts)
            if self.tracer is not None:
                self.tracer.counter("power", "dcmi_w", self.sim.now, watts)

        self.sim.every(self.config.dcmi_sample_period_s, sample)

    # -- reporting ----------------------------------------------------------
    def average_watts(self) -> float:
        return self.integrator.average_watts(self.sim.now)

    def breakdown(self) -> Dict[str, float]:
        return {
            component: self.integrator.average_watts(self.sim.now, component)
            for component in self.integrator.components()
        }

    def snic_host_split(self) -> Tuple[float, float]:
        """(snic_watts, host_watts) time-averaged dynamic components."""
        snic = host = 0.0
        for name, role in self._roles.items():
            watts = self.integrator.average_watts(self.sim.now, name)
            if role == ROLE_SNIC:
                snic += watts
            else:
                host += watts
        return snic, host
