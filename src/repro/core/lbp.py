"""Load-balancing policy (LBP) — Algorithm 1, §V-B.

Runs on one SNIC CPU core, periodically:

1. estimates SNIC throughput (``SNIC_TP``) from accumulated
   ``rte_eth_rx_burst`` return values;
2. when ``Fwd_Th < SNIC_TP + Delta_TP`` (the SNIC is operating near its
   current threshold), inspects the maximum Rx-queue occupancy
   (``RxQ_Occ``, via ``rte_eth_rx_queue_count`` per queue);
3. raises ``Fwd_Th`` by ``Step_Th`` when occupancy is below the low
   watermark (SNIC underutilised), lowers it when above the high
   watermark (SNIC overloaded), and writes the result to the traffic
   director's register.

The adaptive variant the paper sketches ("further optimize Algorithm 1
... by adaptively changing Step_Th") scales the step with how far the
occupancy sits outside the watermark band.

Ticks are kept by one cursor (:attr:`LoadBalancingPolicy.next_tick_s`)
in both simulation modes and evaluated on demand by
:meth:`LoadBalancingPolicy.advance_to`, each at its own time; no tick is
a heap event.  Algorithm 1 reads only the SNIC's delivered bits, its
Rx-ring plus in-pipeline occupancy and its own director register, so
the owner calls ``advance_to(now)`` before anything changes those
inputs or reads the register: flow mode from the station tick, packet
mode before each arrival and from the SNIC engine's
``on_input_change`` hook.  A ``PRIORITY_CONTROL`` recurrence would
have popped before any same-instant data event, so catching up on
every tick ``t <= now`` gives the same decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.hlb import TrafficDirector
from repro.hw.dpdk import ThroughputEstimator, rx_queue_max_occupancy
from repro.hw.platform import ProcessingEngine
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LbpDecision:
    """One Algorithm-1 tick, as the decision trace records it.

    ``direction`` is ``"up"``/``"down"`` when the threshold moved,
    ``"hold"`` when the occupancy sat inside the watermark band, and
    ``"idle"`` when the SNIC ran comfortably below ``Fwd_Th`` and the
    algorithm never inspected the queues.
    """

    t: float
    snic_tp_gbps: float
    rxq_occ: int
    fwd_th_before_gbps: float
    fwd_th_after_gbps: float
    direction: str


@dataclass(frozen=True)
class LbpConfig:
    """Algorithm 1 parameters."""

    period_s: float = 100e-6
    delta_tp_gbps: float = 5.0
    step_gbps: float = 1.0
    wm_low_packets: int = 4
    wm_high_packets: int = 16
    min_threshold_gbps: float = 0.05
    max_threshold_gbps: float = 100.0
    adaptive_step: bool = True
    #: scale the step with the current threshold so slow functions (KVS at
    #: ~3 Gbps) are not whipsawed by steps sized for 40 Gbps functions
    relative_step: bool = True

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if self.step_gbps <= 0 or self.delta_tp_gbps < 0:
            raise ValueError("step/delta must be positive")
        if not 0 <= self.wm_low_packets < self.wm_high_packets:
            raise ValueError("watermarks must satisfy 0 <= low < high")
        if not 0 <= self.min_threshold_gbps < self.max_threshold_gbps:
            raise ValueError("threshold bounds are inverted")


class LoadBalancingPolicy:
    """Algorithm 1 driving a :class:`TrafficDirector` register."""

    def __init__(
        self,
        sim: Simulator,
        snic_engine: ProcessingEngine,
        director: TrafficDirector,
        config: Optional[LbpConfig] = None,
        on_update: Optional[Callable[[float], None]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.sim = sim
        self.engine = snic_engine
        self.director = director
        self.config = config = config if config is not None else LbpConfig()
        self.on_update = on_update
        #: repro.obs tracer; None (the default) records nothing and the
        #: tick path pays a single is-not-None branch
        self.tracer = tracer
        self._estimator = ThroughputEstimator(snic_engine)
        self._estimator.sample(sim.now)  # zero the accumulator
        self.adjustments_up = 0
        self.adjustments_down = 0
        self.threshold_history: List[float] = [director.fwd_threshold_gbps]
        #: Algorithm-1 decision trace, populated only when a tracer is set
        # lint: disable=SNAP01 observer output like the tracer itself; no decision reads it
        self.decisions: List[LbpDecision] = []
        #: time of the next tick not yet evaluated, the policy's only
        #: clock; stepped by the same float addition as
        #: ``Simulator.every``, so tick times are bit-equal to those of a
        #: recurrence started at construction
        self.next_tick_s = sim.now + config.period_s
        #: time of the tick being evaluated; None outside :meth:`advance_to`
        # lint: disable=SNAP01 transient; always None at a barrier, where walkers run
        self._tick_s: Optional[float] = None

    def advance_to(self, now: float) -> None:
        """Evaluate, in order, every tick due at or before ``now``.

        Each tick is one :meth:`set_forward_rate` evaluation, at its own
        time.  No simulated time passes inside this call and Algorithm 1
        never moves ``delivered_bits``, so only the first tick can see
        bits delivered since the last sample; every later tick's SNIC_TP
        estimate is exactly 0.0, as is the first's when nothing was
        delivered.

        A zero-TP tick with ``Fwd_Th >= 0.0 + Delta_TP`` is an "idle"
        no-op, and nothing but the tick can move the register here, so
        once that holds every tick left is one too.  Untraced, the
        catch-up then only steps the cursor by the same additions; the
        check is repeated after each evaluated tick, because a threshold
        below ``Delta_TP`` steps up one tick at a time.  A tracer turns
        the skip off, so the decision trace records every tick.  The
        estimator's timestamp and the cursor are written once, after the
        last tick.  A call with no tick due, or after :meth:`stop`,
        changes nothing.
        """
        t = self.next_tick_s
        if t > now:
            return
        period = self.config.period_s
        estimator = self._estimator
        set_forward_rate = self.set_forward_rate
        last = t
        if self.engine.delivered_bits != estimator._last_bits:
            self._tick_s = t
            set_forward_rate(estimator.sample(t))
            t = t + period
        # the float set_forward_rate(0.0) compares the register against
        skip_idle = self.tracer is None
        idle_th = 0.0 + self.config.delta_tp_gbps
        director = self.director
        while t <= now:
            if skip_idle and director._fwd_threshold_gbps >= idle_th:
                while t <= now:
                    last = t
                    t = t + period
                break
            self._tick_s = t
            set_forward_rate(0.0)
            last = t
            t = t + period
        estimator._last_time = last
        self.next_tick_s = t
        self._tick_s = None

    def set_forward_rate(self, snic_tp_gbps: float) -> None:
        """One Algorithm 1 evaluation with the given SNIC_TP estimate,
        at the time of the tick being evaluated (else the current time)."""
        cfg = self.config
        # the register itself, not the property: this runs every tick
        fwd_th = old_th = self.director._fwd_threshold_gbps
        occupancy = -1  # not inspected (the "idle" early-out)
        if fwd_th >= snic_tp_gbps + cfg.delta_tp_gbps:
            # SNIC comfortably below threshold; leave Fwd_Th alone
            direction = "idle"
        else:
            occupancy = rx_queue_max_occupancy(self.engine)
            step = cfg.step_gbps
            if cfg.relative_step:
                step *= max(0.05, min(1.0, fwd_th / 20.0))
            if cfg.adaptive_step:
                if occupancy > cfg.wm_high_packets:
                    step *= 1.0 + min(4.0, occupancy / cfg.wm_high_packets - 1.0)
                elif occupancy < cfg.wm_low_packets:
                    step *= 1.0 + min(
                        2.0,
                        (cfg.wm_low_packets - occupancy) / max(1, cfg.wm_low_packets),
                    )
            if occupancy < cfg.wm_low_packets:
                fwd_th = min(cfg.max_threshold_gbps, fwd_th + step)
                self.adjustments_up += 1
                direction = "up"
            elif occupancy > cfg.wm_high_packets:
                fwd_th = max(cfg.min_threshold_gbps, fwd_th - step)
                self.adjustments_down += 1
                direction = "down"
            else:
                direction = "hold"
            if direction != "hold":
                self.director.set_threshold(fwd_th, self._tick_time())
                self.threshold_history.append(fwd_th)
                if self.on_update is not None:
                    self.on_update(fwd_th)
        if self.tracer is not None:
            self._trace_decision(
                self._tick_time(), snic_tp_gbps, occupancy, old_th, fwd_th,
                direction,
            )

    def _tick_time(self) -> float:
        """The time of the tick being evaluated, else the current time
        (read only when a tick writes the register or is traced)."""
        return self.sim.now if self._tick_s is None else self._tick_s

    def _trace_decision(  # lint: disable=OBS01 caller holds the single is-not-None branch
        self,
        now: float,
        snic_tp_gbps: float,
        occupancy: int,
        old_th: float,
        new_th: float,
        direction: str,
    ) -> None:
        """Record one tick into the decision trace (tracer-enabled only).

        Idle ticks never read the queues on the algorithm path; the
        trace inspects them here so every tick carries RxQ_Occ (a pure
        read — no simulated state changes)."""
        if occupancy < 0:
            occupancy = rx_queue_max_occupancy(self.engine)
        self.decisions.append(
            LbpDecision(now, snic_tp_gbps, occupancy, old_th, new_th, direction)
        )
        tracer = self.tracer
        tracer.instant(
            "lbp",
            f"fwd_th {direction}",
            now,
            {
                "snic_tp_gbps": snic_tp_gbps,
                "rxq_occ": occupancy,
                "fwd_th_before_gbps": old_th,
                "fwd_th_after_gbps": new_th,
            },
        )
        tracer.counter("lbp", "fwd_th_gbps", now, new_th)
        tracer.counter("lbp", "snic_tp_gbps", now, snic_tp_gbps)
        tracer.counter("lbp", "rxq_occ_packets", now, occupancy)

    def stop(self) -> None:
        """Evaluate the ticks due up to now, then no more: the cursor
        never comes due again."""
        self.advance_to(self.sim.now)
        self.next_tick_s = math.inf


def profiled_initial_threshold(slo_gbps: float, headroom: float = 1.0) -> float:
    """§V-B's offline alternative: profile the function in advance and set
    ``Fwd_Th`` at (a fraction of) its SLO throughput."""
    if slo_gbps <= 0:
        raise ValueError("SLO throughput must be positive")
    if not 0.0 < headroom <= 1.5:
        raise ValueError("headroom out of sensible range")
    return slo_gbps * headroom
