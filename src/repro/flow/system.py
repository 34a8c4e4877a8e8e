"""Flow-mode server systems: fluid stations behind the real control plane.

Each class here mirrors one packet-mode system kind (``host``, ``snic``,
``hal``, ``slb``, ``host-slb``, plus the platform variants) with
:class:`~repro.flow.station.FlowStation` stages in place of
``ProcessingEngine``.  The *control plane is shared, not mirrored*: HAL
runs the real :class:`~repro.core.lbp.LoadBalancingPolicy` (Algorithm 1)
against the station's Rx-ring shim and writes the real
:class:`~repro.core.hlb.TrafficDirector` threshold register; the flow
tick then applies that register to the whole arrival train — the
per-batch steering decision the paper's HLB makes per packet.

:class:`FlowServerSystem` derives from the same
:class:`~repro.core.systems.Server` as packet mode's ``ServerSystem``:
one power model fed by each station's busy fraction once per interval,
one stage registry filled by :meth:`FlowServerSystem._station` (the twin
of packet mode's ``_engine``) in build order.  Each kind's wiring facts
(HAL's cooperative check and initial ``Fwd_Th``, SLB's NF-core split,
the host-side SLB forwarding profile, a platform's stage, the SNIC
share) are the ones :mod:`repro.core` declares for packet mode too.

:class:`RackStepper` is the one flow-mode run loop.  A flow rack
(:class:`repro.flow.cluster.FlowClusterSystem`) drives it through its
front tier; a single server's :meth:`FlowServerSystem.run` drives it as
a rack of one, with the offered rate passed straight through.  Both
modes build single servers through :func:`repro.exp.server.build_system`.
"""

from __future__ import annotations

from math import ceil
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.cluster.autoscaler import RackAutoscaler
from repro.core.hal import hal_initial_threshold
from repro.core.hlb import HLB_LATENCY_S, TrafficDirector
from repro.core.lbp import LbpConfig, LoadBalancingPolicy
from repro.core.slb import (
    HOST_SLB_FWD_PROFILE,
    SLB_SERVICE_JITTER,
    _forward_profile,
    slb_nf_cores,
)
from repro.core.static import PLATFORMS, SNIC_PLATFORMS, platform_stage
from repro.core.systems import DRAIN_S, WINDOW_S, Server, snic_share
from repro.flow.batch import FlowBatch
from repro.flow.station import FlowStation, LatencySamples, mean_latency_s
from repro.hw.pcie import host_delivery_latency_s, snic_delivery_latency_s
from repro.hw.power import ROLE_HOST, ROLE_SNIC
from repro.hw.profiles import EngineProfile
from repro.sim.engine import Simulator
from repro.sim.metrics import LatencyReservoir, RunMetrics

#: ``dispatch(rate_gbps, dt_s, packet_bits)`` → one rate per member
Dispatch = Callable[[float, float, int], List[float]]

#: cap on reservoir samples expanded from the weighted quantile pairs
MAX_RESERVOIR_SAMPLES = 20_000


# repro.core sits outside the strictly typed subset, so Server reads as
# Any here
class FlowServerSystem(Server):  # type: ignore[misc]
    """Flow-mode base: :class:`~repro.core.systems.Server`'s arguments
    plus the flow interval and packet size; the flow-mode result
    contract.

    :meth:`run` produces the same :class:`~repro.sim.metrics.RunMetrics`
    shape as :meth:`repro.core.systems.ServerSystem.run` (offered/
    delivered/dropped/generated counts, latency reservoir, integrated
    power, ``max_window_gbps``/``final_backlog_packets`` extras), so
    experiment code and the result cache treat both modes
    interchangeably.
    """

    def __init__(
        self,
        function: str,
        interval_s: float = 100e-6,
        packet_bytes: int = 1500,
        **kwargs: Any,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"flow interval must be positive ({interval_s})")
        super().__init__(function, **kwargs)
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self._samples: LatencySamples = []
        self._delivered_packets = 0.0
        self._delivered_bits = 0.0
        self._dropped_packets = 0.0
        self._build()

    # -- subclass hooks --------------------------------------------------
    def _build(self) -> None:
        raise NotImplementedError

    def _tick(self, batch: FlowBatch, train_multiplicity: int) -> None:
        """Route one interval's arrival train through the stations."""
        raise NotImplementedError

    def _finalize(self) -> None:
        """Stamp subclass extras after the run (threshold, shares, ...)."""

    def stop(self) -> None:
        """Finish periodic control processes (LBP ticks etc.) at the
        current time."""

    def total_backlog_packets(self) -> float:
        stations: List[FlowStation] = self.engines()
        return sum(station.backlog_packets for station in stations)

    # -- shared build and data-path helpers ----------------------------
    def _station(
        self, profile: EngineProfile, role: str, **kwargs: Any
    ) -> FlowStation:
        """A stage named for this server (``s<i>:`` in a rack) and
        tracked by its power model; build order is tracking order.  The
        twin of packet mode's ``ServerSystem._engine``."""
        station: FlowStation = self._track(
            FlowStation(profile, name=self.engine_prefix + profile.name, **kwargs),
            role,
        )
        return station

    def _advance(
        self,
        station: FlowStation,
        batch: FlowBatch,
        train_multiplicity: int,
        extra_latency_s: float = 0.0,
    ) -> float:
        """Advance a stage whose output leaves the server; its samples,
        plus ``extra_latency_s``, go straight into the run's sample list.
        Returns the packets it served."""
        served, dropped = station.advance(
            batch, self._samples, train_multiplicity, extra_latency_s
        )
        self._dropped_packets += dropped
        self._delivered_packets += served
        self._delivered_bits += served * batch.packet_bits
        return served

    def _forward(
        self, station: FlowStation, batch: FlowBatch, train_multiplicity: int
    ) -> Tuple[FlowBatch, float]:
        """Advance a forward stage: ``(train it passes on, its mean
        latency)``, which the next stage carries; its own samples are not
        recorded."""
        samples: LatencySamples = []
        served, dropped = station.advance(batch, samples, train_multiplicity)
        self._dropped_packets += dropped
        return batch.forwarded(served), mean_latency_s(samples)

    # -- the run loop ----------------------------------------------------
    def run(
        self,
        source: Any,
        duration_s: float,
        train_multiplicity: int = 1,
    ) -> RunMetrics:
        """Run the rack loop as a rack of one: no front tier, ToR hop,
        rack power or autoscaler; the offered rate passes straight
        through to this server."""
        rates = source.rates(duration_s, self.interval_s)
        stepper = RackStepper(
            self.sim,
            [self],
            self.interval_s,
            self.packet_bytes,
            _pass_through,
            len(rates),
            train_multiplicity,
        )
        stepper.push_rates(rates)
        metrics = stepper.finish(self.metrics, source.offered_gbps, duration_s)
        metrics.average_power_w = self.power.average_watts()
        metrics.power_breakdown = self.power.breakdown()
        fill_reservoir(metrics.latency, self._samples)
        self._finalize()
        return metrics


def _pass_through(rate_gbps: float, dt_s: float, packet_bits: int) -> List[float]:
    """A single server's dispatch: the whole offered rate."""
    return [rate_gbps]


class RackStepper:
    """The one flow-mode run loop: every interval, dispatch the offered
    rate across ``members`` and advance each one's stations.

    A rack's one-shot :meth:`FlowClusterSystem.run` pushes a whole rate
    schedule and finishes, and so does a single flow server, as a rack
    of one.  The fabric layer instead advances a rack *one epoch at a
    time* — push the rates the global dispatcher assigned, advance the
    simulator to the barrier, read the boundary snapshot, repeat — so a
    parent process can drive it.

    Rates not yet pushed read as 0.0 (idle), so a tick that drifts past a
    barrier by float accumulation is harmless — it sees the same rate at
    every worker count.
    """

    def __init__(
        self,
        sim: Simulator,
        members: Sequence[FlowServerSystem],
        interval_s: float,
        packet_bytes: int,
        dispatch: Dispatch,
        offered_intervals: int,
        train_multiplicity: int = 1,
        autoscaler: Optional[RackAutoscaler] = None,
    ) -> None:
        if offered_intervals < 1:
            raise ValueError("offered_intervals must be >= 1")
        self.sim = sim
        self.members = members
        self.interval_s = interval_s
        self.packet_bytes = packet_bytes
        self.dispatch = dispatch
        self.offered_intervals = offered_intervals
        self.train_multiplicity = train_multiplicity
        self.autoscaler = autoscaler
        self._start_s = sim.now
        self._rates: List[float] = []
        self._index = 0
        self._generated_packets = 0.0
        self._window_start_s = self._start_s
        self._window_bits = 0.0
        self._max_window_gbps = 0.0
        #: extras frozen at the last offered interval
        self._frozen: Dict[str, float] = {}
        self._finished = False
        self._stop_tick = sim.every(
            interval_s,
            self._tick,
            start=self._start_s + interval_s,
            priority=Simulator.PRIORITY_NORMAL,
        )

    # -- member totals ----------------------------------------------------

    def delivered_bits(self) -> float:
        return sum(member._delivered_bits for member in self.members)

    def delivered_packets(self) -> float:
        return sum(member._delivered_packets for member in self.members)

    def dropped_packets(self) -> float:
        return sum(member._dropped_packets for member in self.members)

    def backlog_packets(self) -> float:
        return sum(member.total_backlog_packets() for member in self.members)

    # -- data-plane tick ------------------------------------------------

    def _tick(self) -> None:
        sim = self.sim
        interval = self.interval_s
        packet_bytes = self.packet_bytes
        packet_bits = packet_bytes * 8
        index = self._index
        self._index = index + 1
        offered = index < self.offered_intervals
        rate = self._rates[index] if index < len(self._rates) else 0.0
        if offered:
            self._generated_packets += rate * 1e9 * interval / packet_bits
        shares = self.dispatch(rate, interval, packet_bits)
        start_s = sim.now - interval
        multiplicity = self.train_multiplicity
        for member, share in zip(self.members, shares):
            member._tick(
                FlowBatch(start_s, interval, share, packet_bytes), multiplicity
            )
        if index == self.offered_intervals - 1:
            self._frozen["final_backlog_packets"] = self.backlog_packets()
            if self.autoscaler is not None:
                self._frozen["rack_awake_mean"] = self.autoscaler.awake_mean()
        elapsed_s = sim.now - self._window_start_s
        if elapsed_s >= WINDOW_S:
            bits = self.delivered_bits()
            gbps = (bits - self._window_bits) / elapsed_s / 1e9
            self._max_window_gbps = max(self._max_window_gbps, gbps)
            self._window_start_s = sim.now
            self._window_bits = bits

    # -- drive ------------------------------------------------------------

    def push_rates(self, rates_gbps: List[float]) -> None:
        """Append the next per-interval offered rates."""
        for rate_gbps in rates_gbps:
            if rate_gbps < 0:
                raise ValueError(f"rate cannot be negative ({rate_gbps})")
        self._rates.extend(rates_gbps)

    def advance_to(self, when_s: float) -> None:
        """Run the simulator up to the barrier at ``when_s``."""
        if self._finished:
            raise RuntimeError("stepper already finished")
        self.sim.run(until=when_s)

    def finish(
        self, metrics: RunMetrics, offered_gbps: float, duration_s: float
    ) -> RunMetrics:
        """Drain, stop the members' and autoscaler's control, and fill
        ``metrics`` with the loop's counters and extras; power, latency
        and the SNIC share are the driver's.

        ``duration_s`` is the measured (offered) duration; the simulator
        runs to ``duration_s`` past the start plus the standard drain
        window.  Callers pass the duration they scheduled, not one rebuilt
        from the interval count, because the two differ in floating point.
        """
        if self._finished:
            raise RuntimeError("stepper already finished")
        self._finished = True
        self.sim.run(until=self._start_s + duration_s + DRAIN_S)
        self._stop_tick()
        for member in self.members:
            member.stop()
        if self.autoscaler is not None:
            self.autoscaler.stop()

        metrics.offered_gbps = offered_gbps
        metrics.duration_s = duration_s
        metrics.delivered_bytes = int(round(self.delivered_bits() / 8))
        metrics.delivered_packets = int(round(self.delivered_packets()))
        metrics.dropped_packets = int(round(self.dropped_packets()))
        metrics.generated_packets = int(round(self._generated_packets))
        metrics.extras["max_window_gbps"] = max(
            self._max_window_gbps, metrics.throughput_gbps
        )
        metrics.extras.update(self._frozen)
        return metrics


def _fill_count(total_weight: float) -> int:
    """Records a fill of ``total_weight`` expands into."""
    return min(MAX_RESERVOIR_SAMPLES, max(1, int(round(total_weight))))


def fill_reservoir(
    reservoir: LatencyReservoir, samples: List[Tuple[float, float]]
) -> None:
    """Expand weighted (latency, weight) pairs into reservoir records at
    evenly spaced cumulative-weight quantiles, preserving the weighted
    distribution (and therefore p50/p99) up to reservoir resolution."""
    if not samples:
        return
    ordered = sorted(samples)
    total_weight = sum(weight for _, weight in ordered)
    if total_weight <= 0:
        return
    count = _fill_count(total_weight)
    position = 0
    cumulative = ordered[0][1]
    last = len(ordered) - 1
    values: List[float] = []
    for k in range(count):
        target = (k + 0.5) * total_weight / count
        while cumulative < target and position < last:
            position += 1
            cumulative += ordered[position][1]
        values.append(ordered[position][0])
    reservoir.record_many(values)


def fill_reservoir_unit(reservoir: LatencyReservoir, latencies: List[float]) -> None:
    """:func:`fill_reservoir` for latencies that weigh 1 each, without
    building (latency, 1.0) pairs. Sorts ``latencies`` in place.

    The running weights are the integers 1…n, exact in floating point, so
    record ``k`` takes the sorted latency at index ``ceil(target) - 1``.
    Every target lies in (0, n], so every index is in range."""
    if not latencies:
        return
    latencies.sort()
    total_weight = float(len(latencies))
    count = _fill_count(total_weight)
    reservoir.record_many(
        [latencies[ceil((k + 0.5) * total_weight / count) - 1] for k in range(count)]
    )


# -- concrete kinds ------------------------------------------------------


class FlowPlatformSystem(FlowServerSystem):
    """One station built from a named platform's profile (Fig. 10)."""

    kind = "platform"

    def __init__(self, function: str, platform: str, **kwargs: Any) -> None:
        if platform not in PLATFORMS:
            raise ValueError(f"unknown platform {platform!r}")
        self.platform = platform
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile, delivery, role = platform_stage(self.function, self.platform)
        self.engine = self._station(profile, role, delivery_latency_s=delivery)

    def _tick(self, batch: FlowBatch, train_multiplicity: int) -> None:
        self._advance(self.engine, batch, train_multiplicity)

    def _finalize(self) -> None:
        if self.platform in SNIC_PLATFORMS:
            # every delivered bit was processed on the SNIC
            self.metrics.snic_share = 1.0


class FlowHostOnlySystem(FlowPlatformSystem):
    """Every train to the host processor (the baseline Skylake engine)."""

    kind = "host"

    def __init__(self, function: str, **kwargs: Any) -> None:
        super().__init__(function, platform="skylake", **kwargs)


class FlowSnicOnlySystem(FlowPlatformSystem):
    """Every train to the SNIC processor (the baseline BlueField-2 engine)."""

    kind = "snic"

    def __init__(self, function: str, **kwargs: Any) -> None:
        super().__init__(function, platform="bf2", **kwargs)


class FlowHalSystem(FlowServerSystem):
    """HAL in flow mode: real Algorithm 1 + director register, fluid
    stations.  The per-interval steering split applies the threshold
    register to the whole train: min(rate, Fwd_Th) stays on the SNIC,
    the excess is forwarded to host cores (woken on demand)."""

    kind = "hal"

    def __init__(
        self,
        function: str,
        lbp_config: Optional[LbpConfig] = None,
        initial_threshold_gbps: Optional[float] = None,
        host_sleep: bool = True,
        **kwargs: Any,
    ) -> None:
        self.lbp_config = lbp_config
        self.initial_threshold_gbps = initial_threshold_gbps
        self.host_sleep = host_sleep
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        threshold = hal_initial_threshold(profile, self.initial_threshold_gbps)
        self.snic_engine = self._station(
            profile.snic, ROLE_SNIC,
            delivery_latency_s=snic_delivery_latency_s(),
        )
        self.host_engine = self._station(
            profile.host, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
            sleep_enabled=self.host_sleep,
        )
        self.power.set_constant("hlb", self.power.config.hlb_fpga_w)
        self.director = TrafficDirector(self.sim, self.plan, threshold)
        # station-clocked: Algorithm 1's inputs only change when a station
        # advances, so _tick catches the policy up instead of the heap
        # carrying one event per tick
        self.lbp = LoadBalancingPolicy(
            self.sim, self.snic_engine, self.director, config=self.lbp_config
        )
        self._merged_packets = 0.0

    def stop(self) -> None:
        self.lbp.stop()

    def _tick(self, batch: FlowBatch, train_multiplicity: int) -> None:
        self.lbp.advance_to(self.sim.now)
        snic_batch, host_batch = batch.steer(self.director.fwd_threshold_gbps)
        self._advance(
            self.snic_engine, snic_batch, train_multiplicity, HLB_LATENCY_S
        )
        # every host response re-enters through the merger on its way out
        self._merged_packets += self._advance(
            self.host_engine, host_batch, train_multiplicity, HLB_LATENCY_S
        )

    def _finalize(self) -> None:
        metrics = self.metrics
        metrics.snic_share = snic_share([self])
        metrics.extras["fwd_threshold_gbps"] = self.director.fwd_threshold_gbps
        metrics.extras["host_wakeups"] = float(self.host_engine.wake_count)
        metrics.extras["merged_packets"] = round(self._merged_packets)
        metrics.extras["lbp_adjustments_up"] = float(self.lbp.adjustments_up)
        metrics.extras["lbp_adjustments_down"] = float(self.lbp.adjustments_down)


class FlowSlbSystem(FlowServerSystem):
    """Software LB on the SNIC: static threshold, forwarding cores."""

    kind = "slb"

    def __init__(
        self,
        function: str,
        fwd_threshold_gbps: float = 20.0,
        slb_cores: int = 4,
        total_snic_cores: int = 8,
        **kwargs: Any,
    ) -> None:
        self.fwd_threshold_gbps = fwd_threshold_gbps
        self.slb_cores = slb_cores
        self.total_snic_cores = total_snic_cores
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        self.snic_engine = self._station(
            profile.snic, ROLE_SNIC,
            active_cores=slb_nf_cores(
                profile.snic, self.slb_cores, self.total_snic_cores
            ),
            delivery_latency_s=snic_delivery_latency_s(),
        )
        self.forward_engine = self._station(
            _forward_profile(self.slb_cores), ROLE_SNIC,
            forward_stage=True,
            service_jitter=SLB_SERVICE_JITTER,
        )
        self.host_engine = self._station(
            profile.host, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
        )

    def _tick(self, batch: FlowBatch, train_multiplicity: int) -> None:
        snic_batch, forward_batch = batch.steer(self.fwd_threshold_gbps)
        self._advance(self.snic_engine, snic_batch, train_multiplicity)
        forwarded, carry = self._forward(
            self.forward_engine, forward_batch, train_multiplicity
        )
        self._advance(self.host_engine, forwarded, train_multiplicity, carry)

    def _finalize(self) -> None:
        metrics = self.metrics
        metrics.snic_share = snic_share([self])
        metrics.extras["forwarded_packets"] = round(
            self.forward_engine.delivered_packets
        )
        metrics.extras["forward_drops"] = round(
            self.forward_engine.dropped_packets
        )


class FlowHostSideSlbSystem(FlowServerSystem):
    """SLB on the host CPU: every train crosses PCIe for forwarding."""

    kind = "host-slb"

    def __init__(
        self, function: str, fwd_threshold_gbps: float = 20.0, **kwargs: Any
    ) -> None:
        self.fwd_threshold_gbps = fwd_threshold_gbps
        super().__init__(function, **kwargs)

    def _build(self) -> None:
        profile = self.profile
        self.host_fwd_engine = self._station(
            HOST_SLB_FWD_PROFILE, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
            forward_stage=True,
        )
        self.snic_engine = self._station(
            profile.snic, ROLE_SNIC,
            delivery_latency_s=snic_delivery_latency_s(),
        )
        self.host_engine = self._station(
            profile.host, ROLE_HOST,
            delivery_latency_s=host_delivery_latency_s(),
        )

    def _tick(self, batch: FlowBatch, train_multiplicity: int) -> None:
        forwarded, carry = self._forward(
            self.host_fwd_engine, batch, train_multiplicity
        )
        snic_batch, host_batch = forwarded.steer(self.fwd_threshold_gbps)
        # forwarded-to-SNIC trains pay a second PCIe crossing
        self._advance(
            self.snic_engine, snic_batch, train_multiplicity,
            extra_latency_s=carry + host_delivery_latency_s(),
        )
        self._advance(
            self.host_engine, host_batch, train_multiplicity,
            extra_latency_s=carry,
        )

    def _finalize(self) -> None:
        self.metrics.snic_share = snic_share([self])


#: system kind → flow-mode class, the counterpart of
#: :data:`repro.core.SYSTEM_CLASSES` (platform kinds build a
#: :class:`FlowPlatformSystem` instead)
FLOW_SYSTEM_CLASSES: Dict[str, Type[FlowServerSystem]] = {
    "host": FlowHostOnlySystem,
    "snic": FlowSnicOnlySystem,
    "hal": FlowHalSystem,
    "slb": FlowSlbSystem,
    "host-slb": FlowHostSideSlbSystem,
}
