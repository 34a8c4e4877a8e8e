"""The rack facade: N server systems behind one front tier.

:class:`ClusterSystem` mirrors the :class:`~repro.core.systems.ServerSystem`
run/result contract — ``run(generator, duration_s) -> RunMetrics`` — so
the runner, the report tables and the CLI treat a rack exactly like a
single server.  Internally it composes N member systems inside **one**
simulator:

* every member shares the cluster's :class:`~repro.sim.metrics.RunMetrics`
  (one latency reservoir, so rack p99 spans all servers) but keeps its own
  per-server :class:`~repro.hw.power.PowerModel`;
* every member draws randomness from a :meth:`~repro.sim.rng.RngRegistry.spawn`
  child registry keyed by its slot name, so adding server ``s4`` to a rack
  cannot perturb a single draw inside ``s0``–``s3``;
* engine names are prefixed ``s<i>:`` so the per-engine crc32 jitter
  streams decorrelate across servers.

The member, slot, rack-power and autoscaler wiring lives in
:class:`Rack`, which the flow-mode rack
(:class:`repro.flow.cluster.FlowClusterSystem`) shares.

:func:`run_rack` is the executor entry point in both simulation modes:
it scales the selected Meta trace to rack size (N servers see N× the
average offered load, clipped at N× line rate) and runs the diurnal
workload against the rack.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional

from repro.cluster.autoscaler import AutoscalerConfig, ManagedServer, RackAutoscaler
from repro.cluster.fronttier import TOR_LATENCY_S, FrontTierPort
from repro.cluster.policies import make_policy, member_slots
from repro.cluster.power import RackPowerConfig, RackPowerModel
from repro.core import SYSTEM_CLASSES
from repro.core.systems import DRAIN_S, sample_window, snic_share
from repro.net.addressing import RackAddressPlan
from repro.net.traffic import (
    LINE_RATE_GBPS,
    META_TRACES,
    LogNormalSpec,
    LogNormalTraceGenerator,
    PacketGenerator,
)
from repro.obs.tracer import current_session
from repro.sim.engine import Simulator
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RngRegistry

def _member_kinds(
    member_kind: str, servers: int, table: Mapping[str, Any]
) -> List[str]:
    """Expand ``"hal"`` or ``"hal,host"`` to one kind per slot (cycling),
    checking each kind against the mode's kind → class ``table``."""
    kinds = [k.strip() for k in member_kind.split(",") if k.strip()]
    if not kinds:
        raise ValueError("member_kind cannot be empty")
    for kind in kinds:
        if kind not in table:
            raise ValueError(
                f"unknown member kind {kind!r}; known: {tuple(table)}"
            )
    return [kinds[i % len(kinds)] for i in range(servers)]


class Rack:
    """The rack wiring both simulation modes share.

    N members from the mode's kind → class table :attr:`member_classes`
    in one simulator, one :class:`~repro.cluster.policies.ServerSlot`
    each, the front tier a subclass builds in :meth:`_front_tier`, the
    :class:`~repro.cluster.power.RackPowerModel` over the members' power
    models, and, with ``autoscale``, the
    :class:`~repro.cluster.autoscaler.RackAutoscaler`.  Each mode keeps
    only its front tier and its run drive.  ``member_kwargs``
    (``functional_rate``, ``power_config``, ...) go to every member.
    """

    #: the mode's system kind → member class table
    member_classes: Mapping[str, Any]
    #: the rack run's tracer (a traced packet-mode rack sets it before
    #: the members build, so the rack run groups ahead of theirs)
    tracer: Any = None

    def __init__(
        self,
        member_kind: str = "hal",
        function: str = "nat",
        servers: int = 4,
        seed: int = 2024,
        policy: str = "packing",
        autoscale: bool = True,
        rack_power_config: Optional[RackPowerConfig] = None,
        autoscaler_config: Optional[AutoscalerConfig] = None,
        tor_latency_s: float = TOR_LATENCY_S,
        **member_kwargs: Any,
    ) -> None:
        if servers < 1:
            raise ValueError("a rack needs at least one server")
        self.member_kind = member_kind
        self.function = function
        self.policy = policy
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.metrics = RunMetrics()
        self.rack_plan = RackAddressPlan.build(servers)
        #: the client-facing plan (client + VIP) — what generators target
        self.plan = self.rack_plan.front

        table = self.member_classes
        self.members: List[Any] = []
        for index, kind in enumerate(_member_kinds(member_kind, servers, table)):
            instance = f"s{index}"
            self.members.append(
                table[kind](
                    function,
                    sim=self.sim,
                    plan=self.rack_plan.servers[index],
                    rng=self.rng.spawn(instance),
                    metrics=self.metrics,
                    instance=instance,
                    **member_kwargs,
                )
            )
        if self.tracer is not None:
            # members each wired the shared kernel to their own tracer as
            # they built; the rack run owns kernel-level events
            self.sim.set_tracer(self.tracer)

        self.slots = member_slots(self.rack_plan.servers, self.members)
        self.front = self._front_tier(policy, tor_latency_s)
        self.rack_power = RackPowerModel(
            self.sim, [member.power for member in self.members], rack_power_config
        )
        self.autoscaler: Optional[RackAutoscaler] = None
        if autoscale:
            self.autoscaler = RackAutoscaler(
                self.sim,
                self.front,
                [
                    ManagedServer(slot, member)
                    for slot, member in zip(self.slots, self.members)
                ],
                self.rack_power,
                autoscaler_config,
                tracer=self.tracer,
            )

    def _front_tier(self, policy: str, tor_latency_s: float) -> Any:
        """The mode's front tier over :attr:`slots`."""
        raise NotImplementedError

    def _rack_extras(self, extras: Dict[str, float], duration_s: float) -> None:
        """The rack's extras, one rule in both modes.  An autoscaled rack
        froze ``rack_awake_mean`` at the end of the offered period; any
        other rack reports every server awake."""
        servers = float(len(self.members))
        extras["servers"] = servers
        extras.setdefault("rack_awake_mean", servers)
        extras["front_reroutes"] = float(self.front.reroutes)
        extras["front_dispatched_gbps"] = self.front.dispatched_gbps(duration_s)
        if self.autoscaler is not None:
            extras["rack_wakes"] = float(self.autoscaler.wakes)
            extras["rack_sleeps"] = float(self.autoscaler.sleeps)


class ClusterSystem(Rack):
    """A rack of member server systems behind a front-tier balancer."""

    kind = "cluster"
    member_classes = SYSTEM_CLASSES

    def __init__(
        self,
        member_kind: str = "hal",
        function: str = "nat",
        servers: int = 4,
        **kwargs: Any,
    ) -> None:
        # rack-level observability first, so the cluster run groups ahead
        # of its members' per-server runs in the trace
        self._obs_session = current_session()
        if self._obs_session.enabled:
            self.tracer = self._obs_session.new_run(
                f"cluster[{servers}]/{member_kind}/{function}"
            )
        super().__init__(member_kind, function, servers, **kwargs)
        self._stoppers: List = []

    def _front_tier(self, policy: str, tor_latency_s: float) -> FrontTierPort:
        front = FrontTierPort(
            self.sim,
            self.rack_plan,
            make_policy(policy, self.rng),
            self.slots,
            [member.ingress for member in self.members],
            tor_latency_s=tor_latency_s,
        )
        front.tracer = self.tracer
        for slot, member in zip(self.slots, self.members):
            member._egress_hook = (
                lambda packet, slot=slot: front.egress(slot, packet)
            )
        return front

    # -- plumbing ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.members)

    def add_stopper(self, stop) -> None:
        self._stoppers.append(stop)

    def stop_periodic(self) -> None:
        for stop in self._stoppers:
            stop()
        self._stoppers.clear()
        if self.autoscaler is not None:
            self.autoscaler.stop()

    def ingress(self, packet) -> None:
        self.front.ingress(packet)

    # -- run loop ---------------------------------------------------------
    def run(self, generator: PacketGenerator, duration_s: float) -> RunMetrics:
        """Drive ``generator`` into the front tier for ``duration_s``
        simulated seconds, drain, and return rack-level metrics."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        start = self.sim.now
        # lint: disable=DET01 wall time feeds only the flight record, never simulated results
        wall_started = perf_counter()
        if self.tracer is not None:
            self.tracer.set_label(
                f"cluster[{len(self.members)}]/{self.member_kind}/"
                f"{self.function}@{generator.offered_gbps:g}Gbps"
            )
            generator.tracer = self.tracer
            self._start_probe_pump(generator, duration_s)
        generator.start(self.sim, self.ingress, duration_s)

        stop_window, max_window = sample_window(self.sim, self.metrics)
        self.add_stopper(stop_window)

        self.sim.run(until=start + duration_s)
        backlog = (
            generator.generated_packets
            - self.metrics.delivered_packets
            - self.metrics.dropped_packets
        )
        self.metrics.extras["final_backlog_packets"] = float(max(0, backlog))
        if self.autoscaler is not None:
            # freeze the awake integral before periodic control stops: the
            # drain window would otherwise dilute the diurnal duty cycle
            self.metrics.extras["rack_awake_mean"] = self.autoscaler.awake_mean()
        self.stop_periodic()
        self.sim.run(until=start + duration_s + DRAIN_S)
        for member in self.members:
            member.stop_periodic()

        metrics = self.metrics
        metrics.offered_gbps = generator.offered_gbps
        metrics.duration_s = duration_s
        metrics.generated_packets = generator.generated_packets
        metrics.average_power_w = self.rack_power.average_watts()
        metrics.power_breakdown = self.rack_power.breakdown()
        metrics.snic_share = snic_share(self.members)
        metrics.extras["max_window_gbps"] = max(
            max_window(), metrics.throughput_gbps
        )
        self._rack_extras(metrics.extras, duration_s)
        if self.tracer is not None:
            # lint: disable=DET01 flight-record wall time only
            wall_s = perf_counter() - wall_started
            self._record_flight(generator, wall_s)
        return metrics

    # -- observability ----------------------------------------------------
    def _start_probe_pump(self, generator: PacketGenerator, duration_s: float) -> None:
        """Rack-level counters + probes; members' engine/power tracks are
        wired by their own constructors."""
        tracer = self.tracer
        session = self._obs_session
        interval = session.probe_interval_s
        if interval is None:
            interval = max(duration_s / 100.0, 1e-5)
        sim = self.sim
        metrics = self.metrics
        front = self.front
        autoscaler = self.autoscaler
        state = {
            "generated": generator.generated_bytes,
            "delivered": metrics.delivered_bytes,
        }
        # per-run prefix: one focused comparison runs several racks in
        # one session, and probe series are append-only in time order
        prefix = tracer.label
        offered_series = session.probes.series(f"{prefix}/rack/offered_gbps")
        delivered_series = session.probes.series(f"{prefix}/rack/delivered_gbps")
        awake_series = session.probes.series(f"{prefix}/rack/awake_servers")
        power_series = session.probes.series(f"{prefix}/rack/system_w")

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
            watts = self.rack_power.instantaneous_watts()
            awake = (
                autoscaler.active_count()
                if autoscaler is not None
                else len(self.members)
            )
            tracer.counter("rack/traffic", "offered_gbps", now, offered_gbps)
            tracer.counter("rack/traffic", "delivered_gbps", now, delivered_gbps)
            tracer.counter("rack/power", "system_w", now, watts)
            tracer.counter("rack/power", "awake_servers", now, awake)
            tracer.counter(
                "rack/front-tier", "routable", now, len(front.routable_slots())
            )
            offered_series.sample(now, offered_gbps)
            delivered_series.sample(now, delivered_gbps)
            awake_series.sample(now, float(awake))
            power_series.sample(now, watts)

        self.add_stopper(sim.every(interval, pump))

    def _record_flight(self, generator: PacketGenerator, wall_s: float) -> None:
        metrics = self.metrics
        summary = self._obs_session.flight.record_run(
            self.tracer.label,
            kind=self.kind,
            member_kind=self.member_kind,
            servers=len(self.members),
            policy=self.policy,
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
        summary["front_reroutes"] = self.front.reroutes
        if self.autoscaler is not None:
            summary["rack_wakes"] = self.autoscaler.wakes
            summary["rack_sleeps"] = self.autoscaler.sleeps


def scaled_trace(trace: str, servers: int) -> LogNormalSpec:
    """The rack-size version of a Meta trace: same diurnal shape (μ/σ),
    N× the average offered rate, clipped at N× line rate downstream."""
    if trace not in META_TRACES:
        raise ValueError(f"unknown trace {trace!r}; known: {sorted(META_TRACES)}")
    base = META_TRACES[trace]
    return LogNormalSpec(
        name=base.name,
        mu=base.mu,
        sigma=base.sigma,
        average_gbps=base.average_gbps * servers,
    )


def run_rack(
    member_kind: str,
    function: str,
    trace: str,
    config: Optional["object"] = None,
    servers: int = 4,
    policy: str = "packing",
    autoscale: bool = True,
    **kwargs,
) -> RunMetrics:
    """One rack-scale trace run (the Fig. 10-style workhorse), in the
    simulation mode ``config.sim_mode`` names.

    ``config`` is a :class:`repro.exp.server.RunConfig` (imported lazily
    to keep the cluster layer importable without the experiment harness).
    """
    if config is None:
        from repro.exp.server import DEFAULT_CONFIG as config  # noqa: F811
    spec = scaled_trace(trace, servers)
    traffic = config.spec(spec.average_gbps * 3)
    common = dict(
        servers=servers,
        seed=config.seed,
        policy=policy,
        autoscale=autoscale,
        functional_rate=config.functional_rate,
        **kwargs,
    )
    if config.sim_mode == "flow":
        # imported lazily: the flow rack builds on this module
        from repro.flow.cluster import FlowClusterSystem
        from repro.flow.source import TraceRateSource

        flow = FlowClusterSystem(
            member_kind,
            function,
            interval_s=config.flow_interval_s,
            packet_bytes=config.packet_bytes,
            **common,
        )
        source = TraceRateSource(
            spec,
            flow.rng,
            flow.plan,
            traffic,
            trace_interval_s=config.trace_interval_s,
            line_rate_gbps=LINE_RATE_GBPS * servers,
        )
        return flow.run(source, config.duration_s, train_multiplicity=traffic.batch)
    cluster = ClusterSystem(member_kind, function, **common)
    generator = LogNormalTraceGenerator(
        cluster.plan,
        traffic,
        cluster.rng,
        spec,
        interval_s=config.trace_interval_s,
        line_rate_gbps=LINE_RATE_GBPS * servers,
    )
    return cluster.run(generator, config.duration_s)
