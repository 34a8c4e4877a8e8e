"""Analytic (fluid) expansion of one queueing stage per flow batch.

A :class:`FlowStation` is the flow-mode counterpart of
:class:`repro.hw.platform.ProcessingEngine`: same
:func:`~repro.hw.profiles.service_costs` coefficients, same overload
EWMA and quadratic SLO-knee ramp, same sleep/wake machinery — but one
``advance()`` call per control interval instead of one simulator event
per packet batch.  Within an interval the station solves the fluid
queue update

    served = min(backlog + arrivals, capacity · dt)

drops whatever exceeds the Rx-ring capacity, and reports latency as a
small set of *weighted quantile samples* along the arrival envelope
(fluid backlog wait, plus a Kingman VUT term for the stochastic
queueing the fluid limit cannot see, plus wake-up and overload
penalties).

The station also exposes the exact duck-typed surface that
:mod:`repro.hw.dpdk`, :mod:`repro.core.lbp` and
:mod:`repro.cluster.autoscaler` read from a real engine —
``delivered_bits``, ``active_cores``, ``_rings[q].occupancy_packets``,
``_in_pipeline``, ``busy_cores``, ``total_queued_packets()``,
``sleeping``/``sleep_enabled``/``_notify_power()`` — so Algorithm 1,
the rack autoscaler and :class:`repro.hw.power.PowerModel` run
**unmodified** against fluid state.  A station notifies its power
callback once at the end of every ``advance()``, after its utilisation
and sleep state for the interval are settled.

``advance()`` is the flow tick's inner step, run once per stage per
server per interval, so it is written flat: it appends its latency
samples straight into a list the caller owns, returns only the served
and dropped packet counts, and spells each ``min``/``max`` as the
comparison the builtin makes (``min(a, b)`` is ``b`` only if ``b < a``,
``max(a, b)`` is ``b`` only if ``b > a``), so every float, tie and type
is the one the builtins would give.  Most stations of a packed rack or
fabric are idle in most intervals (a zero-rate train, an empty backlog,
no wake in progress); that case skips the fluid update and sets the
same floats the full expansion would, through the same idle tail.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.flow.batch import FlowBatch
from repro.hw.profiles import EngineProfile, service_costs

#: EWMA horizon of the delivered-rate estimator feeding the overload
#: ramp — same constant as ``ProcessingEngine._rate_tau_s``
RATE_TAU_S = 2e-3

#: quantile points sampled along each interval's arrival envelope
LATENCY_QUANTILES = (0.125, 0.375, 0.625, 0.875)
_QUANTILE_COUNT = len(LATENCY_QUANTILES)

#: Kingman utilisation clamp: the VUT term diverges at ρ→1, where the
#: fluid backlog wait takes over anyway
KINGMAN_MAX_RHO = 0.98

#: (latency_s, weight_packets) pairs, one per served quantile point
LatencySamples = List[Tuple[float, float]]


class RingView:
    """Occupancy snapshot of one Rx ring (what ``rte_eth_rx_queue_count``
    reads in flow mode)."""

    __slots__ = ("occupancy_packets",)

    def __init__(self) -> None:
        self.occupancy_packets = 0


def mean_latency_s(samples: LatencySamples) -> float:
    """Weighted mean latency of ``samples`` (0.0 when they weigh nothing);
    a forward stage hands this to the stage after it."""
    weight = sum(w for _, w in samples)
    if weight <= 0:
        return 0.0
    return sum(latency * w for latency, w in samples) / weight


class FlowStation:
    """Fluid model of one processing engine."""

    def __init__(
        self,
        profile: EngineProfile,
        name: str,
        active_cores: Optional[int] = None,
        delivery_latency_s: float = 0.0,
        forward_stage: bool = False,
        sleep_enabled: bool = False,
        wake_latency_s: float = 30e-6,
        sleep_after_idle_s: float = 200e-6,
        service_jitter: float = 0.0,
        on_power_change: Optional[Callable[["FlowStation"], None]] = None,
    ) -> None:
        self.profile = profile
        self.name = name
        self.active_cores = active_cores if active_cores is not None else profile.cores
        if not 1 <= self.active_cores <= profile.cores:
            raise ValueError(
                f"active_cores must be in [1, {profile.cores}] "
                f"(got {self.active_cores})"
            )
        costs = service_costs(profile, self.active_cores)
        self._per_core_bps = costs.per_core_bps
        self._per_packet_overhead_s = costs.per_packet_overhead_s
        self._base_latency_s = costs.base_latency_s
        self._overload_ramp_s = costs.overload_latency_s
        # arrivals are paced trains (Ca²≈0); service variability carries
        # the profile cv² plus the uniform batch jitter's variance
        self._service_cs_sq = costs.service_cv_sq + service_jitter**2 / 3.0
        self._capacity_gbps = costs.capacity_gbps
        #: the SLO knee the overload ramp starts from; None when this
        #: station has no ramp (no knee, no ramp latency, or a knee at or
        #: above capacity)
        knee = profile.slo_knee_gbps
        self._ramp_knee_gbps: Optional[float] = (
            knee
            if knee is not None
            and self._overload_ramp_s > 0
            and not self._capacity_gbps <= knee
            else None
        )
        self.delivery_latency_s = delivery_latency_s
        self.forward_stage = forward_stage
        self.sleep_enabled = sleep_enabled
        self.wake_latency_s = wake_latency_s
        self.sleep_after_idle_s = sleep_after_idle_s
        self._ring_capacity_packets = profile.queue_capacity_packets * self.active_cores

        # fluid state
        self.backlog_packets = 0.0
        self.sleeping = False
        self._wake_remaining_s = 0.0
        self._idle_s = 0.0
        self._rate_bps_ewma = 0.0
        self._last_busy_fraction = 0.0

        # counters (floats; rounded once at run finalisation)
        self.received_packets = 0.0
        self.delivered_packets = 0.0
        self.delivered_bits = 0.0
        self.dropped_packets = 0.0
        self.wake_count = 0

        # LBP/dpdk shim surface: the fluid backlog spreads evenly over the
        # queues, so every queue is one shared ring view
        self._rings = [RingView()] * self.active_cores
        self._in_pipeline = [0] * self.active_cores
        self.on_power_change = on_power_change

    # -- engine-compatible surface --------------------------------------
    @property
    def capacity_gbps(self) -> float:
        return self._capacity_gbps

    @property
    def busy_cores(self) -> int:
        """Cores occupied at the last interval boundary (quiescence test)."""
        if self.backlog_packets < 0.5:
            return 0
        return max(1, round(self._last_busy_fraction * self.active_cores))

    @property
    def utilization(self) -> float:
        return self._last_busy_fraction

    def total_queued_packets(self) -> int:
        return int(self.backlog_packets)

    def rx_queue_occupancy(self) -> int:
        # every queue holds the same occupancy (one shared ring view)
        return self._rings[0].occupancy_packets

    def _notify_power(self) -> None:
        if self.on_power_change is not None:
            self.on_power_change(self)

    # -- the analytic expansion -----------------------------------------
    def advance(
        self,
        batch: FlowBatch,
        samples: LatencySamples,
        train_multiplicity: int = 1,
        extra_latency_s: float = 0.0,
    ) -> Tuple[float, float]:
        """Expand one arrival train through this stage.

        Appends one ``(latency_s + extra_latency_s, weight)`` sample per
        quantile point to ``samples`` when the stage served anything, and
        returns ``(served_packets, dropped_packets)``.  ``extra_latency_s``
        is the latency the caller's path adds after this stage (the HLB
        hop, a forward stage's mean); it is added last, so each sample is
        the float the stage latency plus the extra gives.

        ``train_multiplicity`` is the wire-batch size the packet-mode
        generator would have used at this offered rate: packet mode
        delivers an m-packet train as one service span whose midpoint
        correction leaves an effective (m+1)/2 per-packet service
        component, and flow mode charges the same so the two modes'
        latency floors agree.
        """
        dt = batch.duration_s
        if (
            batch.rate_gbps == 0.0
            and self.backlog_packets == 0.0
            and self._wake_remaining_s == 0.0
        ):
            # idle: nothing arrives, nothing is queued and no wake is in
            # progress, so nothing is served, dropped or ramped; only the
            # rate EWMA decays (its ``+ delivered · (1 - decay)`` term
            # adds an exact 0.0) and the shim state reads empty
            self._rate_bps_ewma *= math.exp(-dt / RATE_TAU_S)
            self.backlog_packets = self._last_busy_fraction = 0.0
            self._rings[0].occupancy_packets = 0
            self._end_interval(dt, True)
            return 0.0, 0.0
        packet_bits = batch.packet_bytes * 8
        arriving = batch.rate_gbps * 1e9 * dt / packet_bits
        cores = self.active_cores
        per_packet_s = packet_bits / self._per_core_bps + self._per_packet_overhead_s
        mu_pps = cores / per_packet_s

        # sleep/wake, same constants as the engine
        wake_used = 0.0
        if arriving > 0:
            self._idle_s = 0.0
            if self.sleeping:
                self.sleeping = False
                self._wake_remaining_s = self.wake_latency_s
                self.wake_count += 1
        wake_remaining = self._wake_remaining_s
        if wake_remaining > 0:
            wake_used = wake_remaining if wake_remaining < dt else dt
            self._wake_remaining_s = wake_remaining - wake_used

        # fluid queue update over the service-available fraction
        service_budget = mu_pps * (dt - wake_used)
        backlog_0 = self.backlog_packets
        total = backlog_0 + arriving
        served = service_budget if service_budget < total else total
        backlog_1 = total - served
        ring_capacity = self._ring_capacity_packets
        excess = backlog_1 - ring_capacity
        dropped = excess if excess > 0.0 else 0.0
        if ring_capacity < backlog_1:
            backlog_1 = ring_capacity

        # delivered-rate EWMA → overload penalty (discrete-interval form
        # of the engine's per-delivery exponential update)
        decay = math.exp(-dt / RATE_TAU_S)
        delivered_bps = served * packet_bits / dt
        rate_bps = self._rate_bps_ewma * decay + delivered_bps * (1.0 - decay)
        self._rate_bps_ewma = rate_bps
        overload_s = 0.0
        knee = self._ramp_knee_gbps
        if knee is not None:
            frac = (rate_bps / 1e9 - knee) / (self._capacity_gbps - knee)
            if not frac <= 0:
                overload_s = self._overload_ramp_s * (frac if frac < 1.0 else 1.0) ** 2

        # latency: quantile samples along the arrival envelope
        if served > 0:
            lam_pps = arriving / dt
            rho = lam_pps / mu_pps
            if not rho < KINGMAN_MAX_RHO:
                rho = KINGMAN_MAX_RHO
            service_component_s = per_packet_s * (train_multiplicity + 1) / 2.0
            kingman_wait_s = (
                rho
                / (1.0 - rho)
                * (self._service_cs_sq / 2.0)
                * (per_packet_s / cores)
            )
            fixed_s = (
                service_component_s
                + self._base_latency_s
                + self.delivery_latency_s
                + overload_s
            )
            weight = served / _QUANTILE_COUNT
            ring_capacity_f = float(ring_capacity)
            for q in LATENCY_QUANTILES:
                elapsed = q * dt
                backlog_q = backlog_0 + lam_pps * elapsed
                serving_s = elapsed - wake_used
                if serving_s > 0.0:
                    backlog_q -= mu_pps * serving_s
                if not backlog_q > 0.0:
                    backlog_q = 0.0
                elif ring_capacity_f < backlog_q:
                    backlog_q = ring_capacity_f
                wait_s = backlog_q / mu_pps
                if kingman_wait_s > wait_s:
                    wait_s = kingman_wait_s
                wake_wait_s = wake_used - elapsed
                if not wake_wait_s > 0.0:
                    wake_wait_s = 0.0
                samples.append(
                    (wait_s + wake_wait_s + fixed_s + extra_latency_s, weight)
                )

        # counters + shim state
        self.backlog_packets = backlog_1
        self.received_packets += arriving
        self.delivered_packets += served
        self.delivered_bits += served * packet_bits
        self.dropped_packets += dropped
        busy = served * per_packet_s / (cores * dt)
        self._last_busy_fraction = busy if busy < 1.0 else 1.0
        self._rings[0].occupancy_packets = int(backlog_1 / cores + 0.5)

        self._end_interval(dt, arriving <= 0 and served <= 0 and backlog_1 <= 0)
        return served, dropped

    def _end_interval(self, dt: float, idle: bool) -> None:
        """The tail of every :meth:`advance`: count an ``idle`` interval
        toward sleep (the engine parks cores after ``sleep_after_idle_s``),
        then notify the power callback once."""
        if idle:
            self._idle_s += dt
            if (
                self.sleep_enabled
                and not self.sleeping
                and self._idle_s >= self.sleep_after_idle_s
            ):
                self.sleeping = True
        on_power_change = self.on_power_change
        if on_power_change is not None:
            on_power_change(self)

