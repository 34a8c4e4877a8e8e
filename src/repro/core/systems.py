"""Common server scaffolding for both simulation modes.

Every evaluated configuration — host-only, SNIC-only, SLB, HAL, the
platform kinds — is one composition: SNIC and host stages characterised
per function (Table II), each tracked by the server's power model.
:class:`Server` holds what both modes share: the function and its
profile, the simulator, address plan, RNG registry and metrics sink,
the per-server engine-name prefix, the power model, and the stage
registry (:meth:`Server.engines`, in build order, which is tracking
order).  :class:`ServerSystem` is the packet-mode base: it adds the
embedded switch, the network function and tracing, and builds its
stages through :meth:`ServerSystem._engine` and
:meth:`ServerSystem._nf_engine`; flow mode's twin is
:class:`repro.flow.system.FlowServerSystem` and its ``_station``.
Subclasses override :meth:`ServerSystem.ingress` (what happens to a
packet arriving from the client) and ``_build`` (which stages exist).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.hw.platform import ProcessingEngine
from repro.hw.power import ROLE_SNIC, PowerConfig, PowerModel
from repro.hw.profiles import EngineProfile, FunctionProfile, get_profile
from repro.net.addressing import AddressPlan
from repro.net.capture import CaptureTap
from repro.net.eswitch import EmbeddedSwitch
from repro.net.packet import Packet
from repro.net.traffic import PacketGenerator
from repro.nf.base import NetworkFunction
from repro.nf.registry import create_function
from repro.obs.tracer import current_session
from repro.sim.engine import Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RngRegistry

#: simulated drain time after the generator stops, letting queues empty
DRAIN_S = 0.02

#: throughput window behind the ``max_window_gbps`` extra (Table V's
#: "Max" column), in both simulation modes
WINDOW_S = 0.025


def sample_window(
    sim: Simulator, metrics: RunMetrics
) -> Tuple[Callable[[], None], Callable[[], float]]:
    """Sample ``metrics``' delivered throughput every :data:`WINDOW_S`;
    returns the recurrence's stopper and a reader of the highest window
    so far."""
    last_bytes = 0
    max_gbps = 0.0

    def sample() -> None:
        nonlocal last_bytes, max_gbps
        delivered = metrics.delivered_bytes
        gbps = (delivered - last_bytes) * 8 / WINDOW_S / 1e9
        last_bytes = delivered
        if gbps > max_gbps:
            max_gbps = gbps

    return sim.every(WINDOW_S, sample), lambda: max_gbps


def snic_share(systems: Iterable[Any]) -> float:
    """Delivered-bits SNIC share across ``systems`` (one server or a
    rack's members), in either simulation mode; 0.0 when nothing was
    delivered.  Forward stages move packets, they don't complete them,
    so they don't count."""
    snic = total = 0
    for system in systems:
        roles = system.power._roles
        for engine in system.engines():
            if engine.forward_stage:
                continue
            total += engine.delivered_bits
            if roles.get(engine.name) == ROLE_SNIC:
                snic += engine.delivered_bits
    return snic / total if total > 0 else 0.0


def capacity_gbps(system: Any) -> float:
    """A server's processing capacity in either simulation mode: forward
    stages move packets, they don't complete them, so they add none."""
    return sum(
        engine.capacity_gbps
        for engine in system.engines()
        if not engine.forward_stage
    )


class Server:
    """What a server is in both simulation modes: a function and its
    profile, the run's simulator, plan, RNG and metrics, a power model,
    and the stages that model tracks."""

    kind = "abstract"

    def __init__(
        self,
        function: str,
        seed: int = 2024,
        functional_rate: float = 0.0,
        power_config: Optional[PowerConfig] = None,
        sim: Optional[Simulator] = None,
        plan: Optional[AddressPlan] = None,
        rng: Optional[RngRegistry] = None,
        metrics: Optional[RunMetrics] = None,
        instance: Optional[str] = None,
    ) -> None:
        self.function = function
        self.profile: FunctionProfile = get_profile(function)
        self.functional_rate = functional_rate
        # standalone by default; a rack passes shared sim/metrics (one
        # event loop, one latency reservoir for the whole rack), a
        # per-server address plan, a spawned child RNG registry, and an
        # instance label that namespaces engine names per server
        self.sim = sim if sim is not None else Simulator()
        self.plan = plan if plan is not None else AddressPlan.default()
        self.rng = rng if rng is not None else RngRegistry(seed)
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.instance = instance
        self.engine_prefix = f"{instance}:" if instance else ""
        self.power = PowerModel(self.sim, power_config)
        self._engines: List[Any] = []

    def _track(self, stage: Any, role: str) -> Any:
        """Power-track ``stage`` in ``role`` and register it."""
        self.power.track(stage, role)
        self._engines.append(stage)
        return stage

    def engines(self) -> List[Any]:
        """Every stage, in build order (tracing, capacity, the rack
        autoscaler's sleep/wake and occupancy probes).  Read-only."""
        return self._engines


class ServerSystem(Server):
    """Packet-mode base: :class:`Server`'s arguments plus an optional
    network function ``nf``; adds the embedded switch and tracing."""

    def __init__(
        self, function: str, nf: Optional[NetworkFunction] = None, **kwargs: Any
    ) -> None:
        super().__init__(function, **kwargs)
        self.eswitch = EmbeddedSwitch()
        self.nf = nf if nf is not None else (
            create_function(function) if self.functional_rate > 0 else None
        )
        self.responses = 0
        #: optional response interposer (the rack front tier's egress
        #: masquerade); installed before _build so engines that capture
        #: bound callbacks still route responses through it
        self._egress_hook: Optional[Callable[[Packet], None]] = None
        self._stoppers: List[Callable[[], None]] = []
        # observability: under an ambient repro.obs session each system
        # is one traced run; untraced systems keep tracer=None and every
        # hot-path hook stays a single pointer comparison
        self._obs_session = current_session()
        label = f"{self.kind}/{function}" if self.instance is None else (
            f"{self.instance}:{self.kind}/{function}"
        )
        self.tracer = (
            self._obs_session.new_run(label)
            if self._obs_session.enabled
            else None
        )
        self._client_tap: Optional[CaptureTap] = None
        self._taps: List[CaptureTap] = []
        self._build()
        if self.tracer is not None:
            self._wire_tracing()

    # -- subclass hooks ---------------------------------------------------
    def _build(self) -> None:
        raise NotImplementedError

    def ingress(self, packet: Packet) -> None:
        raise NotImplementedError

    # -- stage builders ----------------------------------------------------
    def _engine(
        self, profile: EngineProfile, role: str, **kwargs: Any
    ) -> ProcessingEngine:
        """A stage named for this server (``s<i>:`` in a rack) and
        tracked by its power model; build order is tracking order.  The
        twin of flow mode's ``_station``."""
        engine = ProcessingEngine(
            self.sim, profile, name=self.engine_prefix + profile.name, **kwargs
        )
        return self._track(engine, role)

    def _nf_engine(
        self,
        profile: EngineProfile,
        role: str,
        on_complete: Optional[Callable[[Packet], None]] = None,
        **kwargs: Any,
    ) -> ProcessingEngine:
        """An :meth:`_engine` that runs the server's network function and
        records end-to-end latency; it answers the client unless
        ``on_complete`` says otherwise."""
        return self._engine(
            profile, role, nf=self.nf, functional_rate=self.functional_rate,
            metrics=self.metrics, on_complete=on_complete or self.client_sink,
            **kwargs,
        )

    # -- observability wiring ---------------------------------------------
    def _wire_tracing(self) -> None:
        """Attach the run tracer across the layers after ``_build``.

        Generic by construction: every stage in :meth:`engines` gets
        busy-span tracing, the kernel and power model get the tracer,
        and — when the session asks for packet capture — taps interpose
        on the eSwitch ports and the client egress."""
        tracer = self.tracer
        self.sim.set_tracer(tracer)
        self.power.enable_tracing(tracer)
        for engine in self.engines():
            engine.enable_tracing(tracer)
        hlb = getattr(self, "hlb", None)
        if hlb is not None:
            hlb.enable_tracing(tracer)
        lbp = getattr(self, "lbp", None)
        if lbp is not None:
            lbp.tracer = tracer
        capture = self._obs_session.capture_packets
        if capture:
            sim = self.sim

            def clock() -> float:
                return sim.now

            def tap_port(port: str, handler: Callable[[Packet], None]):
                tap = CaptureTap(
                    handler, clock, max_packets=capture, name=f"eswitch:{port}"
                )
                self._taps.append(tap)
                return tap

            self.eswitch.wrap_ports(tap_port)
            self._client_tap = CaptureTap(
                lambda packet: None, clock, max_packets=capture, name="client-egress"
            )
            self._taps.append(self._client_tap)

    # -- shared plumbing -----------------------------------------------------
    def client_sink(self, packet: Packet) -> None:
        """Terminal for response packets heading back to the client."""
        if self._egress_hook is not None:
            self._egress_hook(packet)
        if self._client_tap is not None:
            self._client_tap(packet)
        self.responses += packet.multiplicity

    def add_stopper(self, stop: Callable[[], None]) -> None:
        self._stoppers.append(stop)

    def stop_periodic(self) -> None:
        for stop in self._stoppers:
            stop()
        self._stoppers.clear()

    # -- run loop -------------------------------------------------------------
    def run(self, generator: PacketGenerator, duration_s: float) -> RunMetrics:
        """Drive ``generator`` into this system for ``duration_s`` simulated
        seconds, drain, and return the collected metrics."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        start = self.sim.now
        # lint: disable=DET01 wall time feeds only the flight record, never simulated results
        wall_started = perf_counter()
        if self.tracer is not None:
            self.tracer.set_label(
                f"{self.kind}/{self.function}@{generator.offered_gbps:g}Gbps"
            )
            generator.tracer = self.tracer
            self._start_probe_pump(generator, duration_s)
        generator.start(self.sim, self.ingress, duration_s)

        # windowed throughput sampling → Table V's "Max" throughput column
        stop_window, max_window = sample_window(self.sim, self.metrics)
        self.add_stopper(stop_window)

        self.sim.run(until=start + duration_s)
        # backlog still queued when the generator stops: the overload
        # signal short probes need when queues can swallow the whole run
        backlog = (
            generator.generated_packets
            - self.metrics.delivered_packets
            - self.metrics.dropped_packets
        )
        self.metrics.extras["final_backlog_packets"] = float(max(0, backlog))
        self.stop_periodic()
        self.sim.run(until=start + duration_s + DRAIN_S)
        self.metrics.offered_gbps = generator.offered_gbps
        self.metrics.duration_s = duration_s
        self.metrics.generated_packets = generator.generated_packets
        self.metrics.average_power_w = self.power.average_watts()
        self.metrics.power_breakdown = self.power.breakdown()
        self.metrics.extras["max_window_gbps"] = max(
            max_window(), self.metrics.throughput_gbps
        )
        self._finalize()
        if self.tracer is not None:
            # lint: disable=DET01 flight-record wall time only
            wall_s = perf_counter() - wall_started
            self._record_flight(generator, wall_s)
        return self.metrics

    def _finalize(self) -> None:
        """Subclass hook to stamp system-specific extras into metrics."""

    # -- observability: probe pump + flight recorder ----------------------
    def _start_probe_pump(self, generator: PacketGenerator, duration_s: float) -> None:
        """Periodic sampler feeding the tracer and the session probes.

        Runs only under tracing (the extra simulation events are why a
        traced run is *reproducible* but not bit-identical to an
        untraced one — see docs/ARCHITECTURE.md → Observability)."""
        tracer = self.tracer
        session = self._obs_session
        interval = session.probe_interval_s
        if interval is None:
            interval = max(duration_s / 100.0, 1e-5)
        prefix = tracer.label
        sim = self.sim
        metrics = self.metrics
        engines = self.engines()
        hlb = getattr(self, "hlb", None)
        state = {
            "generated": generator.generated_bytes,
            "delivered": metrics.delivered_bytes,
        }

        offered_series = session.probes.series(f"{prefix}/offered_gbps")
        delivered_series = session.probes.series(f"{prefix}/delivered_gbps")
        power_series = session.probes.series(f"{prefix}/system_w")

        # the pump exists only in traced runs (installed behind the one
        # is-not-None branch in run()), so tracer is non-None by construction
        def pump() -> None:  # lint: disable=OBS01
            now = sim.now
            gen_bytes = generator.generated_bytes
            del_bytes = metrics.delivered_bytes
            offered_gbps = (gen_bytes - state["generated"]) * 8 / interval / 1e9
            delivered_gbps = (del_bytes - state["delivered"]) * 8 / interval / 1e9
            state["generated"] = gen_bytes
            state["delivered"] = del_bytes
            tracer.counter("traffic", "offered_gbps", now, offered_gbps)
            tracer.counter("traffic", "delivered_gbps", now, delivered_gbps)
            tracer.counter("kernel", "events_processed", now, sim.events_processed)
            tracer.counter("kernel", "pending_events", now, sim.pending())
            for engine in engines:
                tracer.counter(
                    engine.name, "utilization", now, engine.utilization
                )
                tracer.counter(
                    engine.name, "rxq_occ_packets", now, engine.rx_queue_occupancy()
                )
            if hlb is not None:
                stats = hlb.director.stats
                tracer.counter("hlb", "host_fraction", now, stats.host_fraction)
                tracer.counter(
                    "hlb", "merged_packets", now, hlb.merger.merged_packets
                )
            self.power.trace_sample()
            offered_series.sample(now, offered_gbps)
            delivered_series.sample(now, delivered_gbps)
            power_series.sample(now, self.power.integrator.instantaneous_watts())

        self.add_stopper(sim.every(interval, pump))

    def _record_flight(self, generator: PacketGenerator, wall_s: float) -> None:
        """One structured summary of this run into the session's flight
        recorder (and the capture-tap invariant verdicts, if any)."""
        metrics = self.metrics
        summary = self._obs_session.flight.record_run(
            self.tracer.label,
            kind=self.kind,
            function=self.function,
            offered_gbps=generator.offered_gbps,
            duration_s=metrics.duration_s,
            wall_s=wall_s,
            sim_events=self.sim.events_processed,
            generated_packets=metrics.generated_packets,
            delivered_packets=metrics.delivered_packets,
            dropped_packets=metrics.dropped_packets,
            throughput_gbps=metrics.throughput_gbps,
            p99_latency_us=metrics.p99_latency_us,
            average_power_w=metrics.average_power_w,
            snic_share=metrics.snic_share,
            trace_events=len(self.tracer.events),
            trace_dropped=self.tracer.dropped,
        )
        lbp = getattr(self, "lbp", None)
        if lbp is not None:
            summary["lbp_decisions"] = len(lbp.decisions)
            summary["fwd_threshold_gbps"] = lbp.director.fwd_threshold_gbps
        if self._taps:
            summary["captures"] = [
                {
                    "name": tap.name,
                    "packets": tap.total_packets,
                    "bytes": tap.total_bytes,
                    "records": len(tap.records),
                    "sources_seen": len(tap.sources_seen()),
                    "checksums_ok": tap.all_checksums_valid(),
                    "single_source_ok": tap.single_source_illusion_holds(self.plan),
                }
                for tap in self._taps
            ]
