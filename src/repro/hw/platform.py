"""Processing-engine queueing model.

Every packet consumer in the system — the 8 wimpy SNIC Arm cores, the
SNIC's REM/crypto/compression accelerator blocks, the 8 host Xeon cores,
the host QAT — is an instance of :class:`ProcessingEngine`: ``n`` servers
fed by per-server Rx rings (RSS by flow hash), with per-packet service
time derived from the engine's calibrated capacity
(:class:`repro.hw.profiles.EngineProfile`).

The engine also implements the two behaviours the paper's systems build
on:

* **DPDK observables** — ring occupancy (``rx_queue_occupancy``) and
  delivered-bit counters, which Algorithm 1 (LBP) polls;
* **core sleep/wake** — the DPDK power-management API HAL uses to let
  idle host cores sleep (§V-B), with the wake-up penalty the paper notes
  shows up in host-side p99.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.hw.profiles import EngineProfile, service_costs
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.metrics import LatencyReservoir, RunMetrics


@dataclass
class PacketRing:
    """A bounded Rx ring accounted in *packets* (batched events carry
    ``multiplicity`` packets each, as a real descriptor ring would).

    :meth:`ProcessingEngine.receive` pushes (or drops) and
    ``_start_service`` pops in place: both run once per packet."""

    capacity_packets: int
    items: Deque[Packet] = field(default_factory=deque)
    occupancy_packets: int = 0
    dropped_packets: int = 0
    enqueued_packets: int = 0

    def __len__(self) -> int:
        return len(self.items)


class ProcessingEngine:
    """``n``-server queueing station with calibrated service rates."""

    def __init__(
        self,
        sim: Simulator,
        profile: EngineProfile,
        name: Optional[str] = None,
        active_cores: Optional[int] = None,
        nf: Optional[object] = None,
        functional_rate: float = 0.0,
        state_domain: Optional[object] = None,
        state_agent: Optional[str] = None,
        delivery_latency_s: float = 0.0,
        on_complete: Optional[Callable[[Packet], None]] = None,
        on_power_change: Optional[Callable[["ProcessingEngine"], None]] = None,
        metrics: Optional[RunMetrics] = None,
        sleep_enabled: bool = False,
        wake_latency_s: float = 30e-6,
        sleep_after_idle_s: float = 200e-6,
        forward_stage: bool = False,
        dispatch: str = "roundrobin",
        service_jitter: float = 0.0,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.name = name or profile.name
        self.active_cores = active_cores if active_cores is not None else profile.cores
        if not 1 <= self.active_cores <= profile.cores:
            raise ValueError(
                f"{self.name}: active_cores must be in [1, {profile.cores}]"
            )
        self.nf = nf
        if not 0.0 <= functional_rate <= 1.0:
            raise ValueError("functional_rate must be in [0, 1]")
        self.functional_rate = functional_rate
        self.state_domain = state_domain
        self.state_agent = state_agent or self.name
        self.delivery_latency_s = delivery_latency_s
        self.on_complete = on_complete
        self.on_power_change = on_power_change
        #: called with the current time before an event of this engine
        #: changes ``delivered_bits`` or ring/pipeline occupancy on its
        #: own (a completion, a pipelined delivery, a wake): the hook a
        #: reader of those inputs uses to evaluate what it owes first.
        #: Arrivals are the caller's to cover.  None costs one branch.
        self.on_input_change: Optional[Callable[[float], None]] = None
        self.metrics = metrics
        #: a forward stage passes the *original* packet downstream and does
        #: not record end-to-end latency (an SLB forwarding hop, not an NF)
        self.forward_stage = forward_stage
        # "roundrobin" models RSS over a large well-mixed flow population
        # (per-queue load stays balanced); "flow" pins flows to queues
        if dispatch not in ("roundrobin", "flow"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.dispatch = dispatch
        self._dispatch_counter = 0
        # mean-preserving uniform service-time jitter: software stages
        # (rx_burst loops) are bursty, hardware pipelines are not
        if not 0.0 <= service_jitter < 1.0:
            raise ValueError("service_jitter must be in [0, 1)")
        self.service_jitter = service_jitter
        # gamma-distributed per-packet service when the profile declares a
        # coefficient of variation (input-dependent work, §III / Table II)
        self.service_cv = profile.service_cv
        # zlib.crc32 rather than hash(): str hashing is randomized per
        # interpreter invocation, which would make otherwise-identical runs
        # (and the runner's content-addressed cache) non-reproducible
        self._jitter_rng = random.Random(zlib.crc32(self.name.encode()) & 0xFFFF)

        # delivered-rate EWMA feeding the overload-latency model: engines
        # running above their SLO knee hold work in deeper pipeline/ring
        # occupancy, so latency degrades before throughput does (§III-C)
        self._rate_tau_s = 2e-3
        self._rate_bps_ewma = 0.0
        self._rate_last_t = sim.now

        # pre-derived per-service constants (unit conversions, per-core
        # rate, cv²) — see repro.hw.profiles.service_costs. Profiles are
        # frozen and engine coefficients never change after construction,
        # so the hot path reads these instead of converting per packet.
        costs = service_costs(profile, self.active_cores)
        self._per_core_bps = costs.per_core_bps
        self._per_packet_overhead_s = costs.per_packet_overhead_s
        self._base_latency_s = costs.base_latency_s
        self._overload_ramp_s = costs.overload_latency_s
        self._service_cv_sq = costs.service_cv_sq
        self._capacity_gbps = costs.capacity_gbps
        # the forward-stage back-dating charge, summed exactly as the hot
        # path's parenthesized (base + delivery) expression did
        self._forward_charge_s = costs.base_latency_s + delivery_latency_s
        self._rings: List[PacketRing] = [
            PacketRing(profile.queue_capacity_packets)
            for _ in range(self.active_cores)
        ]
        self._core_busy: List[bool] = [False] * self.active_cores
        # running count of True entries in _core_busy: busy_cores (and the
        # power model's utilization reads through it) is on the per-service
        # path, so it must not re-sum the list every transition
        self._busy_count = 0
        # packets that finished service but are still in flight through the
        # deepened pipeline while the engine runs above its SLO knee; they
        # count toward the observable ring occupancy (backpressure)
        self._in_pipeline: List[int] = [0] * self.active_cores

        # sleep management (host cores under HAL)
        self.sleep_enabled = sleep_enabled
        self.wake_latency_s = wake_latency_s
        self.sleep_after_idle_s = sleep_after_idle_s
        self.sleeping = sleep_enabled  # start asleep if allowed
        self._waking = False
        self.wake_count = 0

        # counters
        self.delivered_packets = 0
        self.delivered_bits = 0
        self.dropped_packets = 0
        self.received_packets = 0
        self.latency = LatencyReservoir()
        self._functional_accumulator = 0.0
        self._seq = 0

        # observability (repro.obs): untraced engines keep _tracer=None
        # and the service path pays one is-not-None branch per core
        # busy/idle transition (never per packet)
        self._tracer = None
        self._busy_since: List[float] = []

    def enable_tracing(self, tracer) -> None:
        """Record per-core busy spans into a ``repro.obs`` tracer.

        A span covers one contiguous busy period of one core (back-to-
        back services coalesce), emitted on the ``<engine>/c<n>`` track
        when the core goes idle."""
        self._tracer = tracer
        self._busy_since = [0.0] * self.active_cores

    # -- observables (DPDK APIs) ---------------------------------------
    def rx_queue_occupancy(self) -> int:
        """Max per-queue backlog in packets (``rte_eth_rx_queue_count``).

        Includes packets held in a deepened accelerator pipeline during
        overload — exactly the backpressure a hardware input FIFO exposes,
        and the signal Algorithm 1 throttles on.
        """
        return max(
            ring.occupancy_packets + pipelined
            for ring, pipelined in zip(self._rings, self._in_pipeline)
        )

    def total_queued_packets(self) -> int:
        return sum(ring.occupancy_packets for ring in self._rings) + sum(
            self._in_pipeline
        )

    @property
    def busy_cores(self) -> int:
        return self._busy_count

    @property
    def utilization(self) -> float:
        return self._busy_count / self.active_cores

    @property
    def capacity_gbps(self) -> float:
        return self._capacity_gbps

    # -- data path -------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Packet delivered to this engine's Rx rings (RSS by flow)."""
        multiplicity = packet.multiplicity
        self.received_packets += multiplicity
        if self.dispatch == "roundrobin":
            core = self._dispatch_counter % self.active_cores
            self._dispatch_counter += 1
        else:
            core = packet.flow_id % self.active_cores
        ring = self._rings[core]
        if ring.occupancy_packets + multiplicity > ring.capacity_packets:
            ring.dropped_packets += multiplicity
            self.dropped_packets += multiplicity
            if self.metrics is not None:
                self.metrics.dropped_packets += multiplicity
            return
        ring.items.append(packet)
        ring.occupancy_packets += multiplicity
        ring.enqueued_packets += multiplicity
        if self.sleeping:
            self._begin_wake()
            return
        if not self._core_busy[core]:
            self._start_service(core)

    def _begin_wake(self) -> None:
        if self._waking:
            return
        self._waking = True
        self.wake_count += 1

        def wake() -> None:
            on_input_change = self.on_input_change
            if on_input_change is not None:
                on_input_change(self.sim._now)
            self.sleeping = False
            self._waking = False
            self._notify_power()
            for core in range(self.active_cores):
                if not self._core_busy[core] and self._rings[core].items:
                    self._start_service(core)

        self.sim.schedule(self.wake_latency_s, wake)

    def _start_service(self, core: int) -> None:
        # every caller has checked that the ring holds a packet
        ring = self._rings[core]
        packet = ring.items.popleft()
        multiplicity = packet.multiplicity
        ring.occupancy_packets -= multiplicity
        if not self._core_busy[core]:
            self._core_busy[core] = True
            self._busy_count += 1
            if self._tracer is not None:
                self._busy_since[core] = self.sim._now
        callback = self.on_power_change
        if callback is not None:
            callback(self)
        service_s = packet.size_bytes * 8 * multiplicity / self._per_core_bps
        if self._per_packet_overhead_s > 0:
            # fixed per-packet cost: descriptor handling, header parsing —
            # dominates for small packets (§III-A)
            service_s += self._per_packet_overhead_s * multiplicity
        if self.service_cv > 0:
            # mean-preserving gamma draw; a batched event of B packets
            # averages B draws, so its relative spread shrinks by sqrt(B)
            shape = multiplicity / self._service_cv_sq
            service_s *= self._jitter_rng.gammavariate(shape, 1.0 / shape)
        if self.service_jitter:
            service_s *= 1.0 + self.service_jitter * (
                2.0 * self._jitter_rng.random() - 1.0
            )
        state_domain = self.state_domain
        if state_domain is not None:
            # one coherence transaction per service event, keyed by flow:
            # the cores batch state updates across a burst (the paper
            # measures only 0.3-3% throughput/latency impact from
            # NUMA-shared state, §VII-B)
            service_s += state_domain.access(self.state_agent, packet.flow_id, True)
        self.sim.schedule(service_s, self._finish_service, core, packet)

    def _overload_latency_s(self) -> float:
        knee = self.profile.slo_knee_gbps
        if knee is None or self._overload_ramp_s <= 0:
            return 0.0
        cap = self._capacity_gbps
        if cap <= knee:
            return 0.0
        frac = (self._rate_bps_ewma / 1e9 - knee) / (cap - knee)
        if frac <= 0:
            return 0.0
        return self._overload_ramp_s * min(1.0, frac) ** 2

    def _finish_service(self, core: int, packet: Packet) -> None:
        now = self.sim._now
        on_input_change = self.on_input_change
        if on_input_change is not None:
            on_input_change(now)
        multiplicity = packet.multiplicity
        wire_bits = packet.size_bytes * 8 * multiplicity
        self.delivered_packets += multiplicity
        self.delivered_bits += wire_bits
        # delivered-rate EWMA (the overload-latency model's input)
        dt = now - self._rate_last_t
        if dt > 0:
            self._rate_bps_ewma *= math.exp(-dt / self._rate_tau_s)
            self._rate_last_t = now
        self._rate_bps_ewma += wire_bits / self._rate_tau_s
        if self.forward_stage:
            # mid-path hop: charge its delivery latency by back-dating the
            # packet and hand the original packet to the next stage
            packet.created_at -= self._forward_charge_s
            if self.on_complete is not None:
                self.on_complete(packet)
        else:
            overload_s = self._overload_latency_s()
            if overload_s > 0:
                # overload deepens the pipeline: completion is delayed and
                # the packet keeps occupying the observable input backlog
                self._in_pipeline[core] += multiplicity
                self.sim.schedule(overload_s, self._deliver, core, packet, True)
            else:
                self._deliver(core, packet, False)
        if self._rings[core].items:
            self._start_service(core)
        else:
            self._core_busy[core] = False
            self._busy_count -= 1
            if self._tracer is not None:
                self._tracer.span(
                    f"{self.name}/c{core}",
                    "busy",
                    self._busy_since[core],
                    self.sim._now,
                )
            callback = self.on_power_change
            if callback is not None:
                callback(self)
            if self.sleep_enabled and self._busy_count == 0:
                self._schedule_sleep_check()

    def _deliver(self, core: int, packet: Packet, pipelined: bool) -> None:
        multiplicity = packet.multiplicity
        if pipelined:
            # its own event: _finish_service already caught up otherwise
            on_input_change = self.on_input_change
            if on_input_change is not None:
                on_input_change(self.sim._now)
            self._in_pipeline[core] -= multiplicity
        packet.processed_by = self.name
        # midpoint correction: a batched event of B wire packets is served
        # as one block, but the representative (median) packet finishes
        # half a block earlier than the block completion
        batch_service = packet.size_bytes * 8 * multiplicity / self._per_core_bps
        midpoint = batch_service * (multiplicity - 1) / (2 * multiplicity)
        latency = (
            self.sim._now
            - packet.created_at
            + self._base_latency_s
            + self.delivery_latency_s
            - midpoint
        )
        # never below one wire packet's service time
        floor = batch_service / multiplicity
        if floor > latency:
            latency = floor
        self.latency.record(latency)
        metrics = self.metrics
        if metrics is not None:
            metrics.delivered_packets += multiplicity
            metrics.delivered_bytes += packet.size_bytes * multiplicity
            metrics.latency.record(latency)
        if self.nf is not None and self.functional_rate > 0.0:
            self._maybe_run_function(packet)
        if self.on_complete is not None:
            self.on_complete(packet.make_response())

    def _maybe_run_function(self, packet: Packet) -> None:
        """Execute the real NF on a sampled fraction of packets.

        Running the genuine computation for every wire packet would make
        100 Gbps simulation infeasible in Python, so ``functional_rate``
        controls the sampled fraction; the accumulated fraction is exact
        over time (no RNG needed). The caller checks that an NF is attached
        and ``functional_rate`` is positive.
        """
        self._functional_accumulator += self.functional_rate * packet.multiplicity
        while self._functional_accumulator >= 1.0:
            self._functional_accumulator -= 1.0
            self._seq += 1
            request = packet.payload
            if request is None:
                request = self.nf.make_request(self._seq, packet.flow_id)
            self.nf.process(request)

    def _schedule_sleep_check(self) -> None:
        scheduled_at = self.sim.now

        def maybe_sleep() -> None:
            if (
                self.sleep_enabled
                and not self.sleeping
                and self.busy_cores == 0
                and self.total_queued_packets() == 0
                and self.sim.now - scheduled_at >= self.sleep_after_idle_s * 0.999
            ):
                self.sleeping = True
                self._notify_power()

        self.sim.schedule(self.sleep_after_idle_s, maybe_sleep)

    def _notify_power(self) -> None:
        if self.on_power_change is not None:
            self.on_power_change(self)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "received_packets": self.received_packets,
            "delivered_packets": self.delivered_packets,
            "dropped_packets": self.dropped_packets,
            "delivered_gbit": self.delivered_bits / 1e9,
            "p99_latency_us": self.latency.p99() * 1e6,
            "mean_latency_us": self.latency.mean * 1e6,
        }
