"""The rack autoscaler: wake/park whole servers from LBP's observables.

HAL's LBP (Algorithm 1) already exports everything a rack controller
needs — delivered throughput (rx_burst deltas) and Rx-queue occupancy —
so the autoscaler is deliberately the same shape: a periodic tick that
EWMA-smooths the front tier's dispatched rate, computes how many servers
the rack needs at a target utilisation, and walks the awake set toward
that with hysteresis.  Scaling *up* is immediate but pays a wake-up
latency (suspend-to-RAM resume, link retrain — milliseconds, the cost
Fig. 10-style energy savings must absorb); scaling *down* drains first:
a surplus server stops being routable, finishes its queued work, and
only then parks into deep sleep.

Server lifecycle::

    AWAKE --(surplus for N ticks)--> DRAINING --(queues empty)--> ASLEEP
    ASLEEP --(demand)--> WAKING --(wake_latency_s)--> AWAKE

Packing order is stable: wakes take the lowest-indexed sleeper, drains
take the highest-indexed awake server, so under the ``packing`` dispatch
policy load concentrates at low indices and the high indices sleep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.fronttier import FrontTierPort
from repro.cluster.policies import ServerSlot
from repro.cluster.power import RackPowerModel
from repro.core.systems import Server, capacity_gbps
from repro.sim.engine import EventHandle, Simulator

STATE_AWAKE = "awake"
STATE_DRAINING = "draining"
STATE_ASLEEP = "asleep"
STATE_WAKING = "waking"


@dataclass(frozen=True)
class AutoscalerConfig:
    """Rack scaling knobs."""

    period_s: float = 500e-6
    #: size the awake set so it runs at this fraction of capacity
    target_utilization: float = 0.6
    min_awake: int = 1
    #: suspend-to-RAM resume + NIC link retrain (derived, not paper-anchored)
    wake_latency_s: float = 2e-3
    #: surplus must persist this many ticks before a server drains
    sleep_after_ticks: int = 4
    ewma_alpha: float = 0.25
    #: burst escape hatch: any routable server queuing this deep wakes one more
    occupancy_wake_packets: int = 64

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.wake_latency_s < 0:
            raise ValueError("autoscaler periods must be positive")
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target utilization must be in (0, 1]")
        if self.min_awake < 1 or self.sleep_after_ticks < 1:
            raise ValueError("min_awake and sleep_after_ticks must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma alpha must be in (0, 1]")


class ManagedServer:
    """One member under autoscaler control."""

    __slots__ = ("slot", "system", "capacity_gbps", "state")

    def __init__(self, slot: ServerSlot, system: Server) -> None:
        self.slot = slot
        self.system = system
        self.capacity_gbps = capacity_gbps(system)
        self.state = STATE_AWAKE

    def quiescent(self) -> bool:
        """No core busy, nothing queued anywhere — safe to park."""
        for engine in self.system.engines():
            if engine.busy_cores > 0 or engine.total_queued_packets() > 0:
                return False
        return True


class RackAutoscaler:
    """Periodic controller over the awake set."""

    def __init__(
        self,
        sim: Simulator,
        front: FrontTierPort,
        servers: Sequence[ManagedServer],
        rack_power: RackPowerModel,
        config: Optional[AutoscalerConfig] = None,
        tracer=None,
    ) -> None:
        if not servers:
            raise ValueError("autoscaler needs at least one server")
        self.sim = sim
        self.front = front
        self.servers: List[ManagedServer] = list(servers)
        self.rack_power = rack_power
        self.config = config = config if config is not None else AutoscalerConfig()
        if config.min_awake > len(self.servers):
            raise ValueError("min_awake exceeds the rack size")
        self.tracer = tracer
        self.wakes = 0
        self.sleeps = 0
        self.rate_ewma_gbps = 0.0
        self._last_bits = front.dispatched_bits
        self._surplus_ticks = 0
        # ∫ active dt for the awake_mean metric
        self._active_integral = 0.0
        self._last_t = sim.now
        self._capacity_mean = sum(s.capacity_gbps for s in self.servers) / len(
            self.servers
        )
        # in-flight wake completions by server index — named (not closure)
        # events so checkpoint code can snapshot and re-arm them
        # lint: disable=SNAP01 captured as wake-timer records by serve/state._collect_timers and re-armed by _rearm_timers, not by the _autoscaler_state walker
        self._pending_wakes: Dict[int, EventHandle] = {}
        self._stop = sim.every(config.period_s, self._tick)

    def stop(self) -> None:
        self._stop()

    # -- accounting ------------------------------------------------------
    def active_count(self) -> int:
        """Servers drawing full power (everything but ASLEEP)."""
        return sum(1 for s in self.servers if s.state != STATE_ASLEEP)

    def awake_mean(self) -> float:
        """Time-averaged count of non-sleeping servers."""
        now = self.sim.now
        integral = self._active_integral + self.active_count() * (now - self._last_t)
        elapsed = now  # integrator starts at sim time 0 for a fresh cluster
        return integral / elapsed if elapsed > 0 else float(self.active_count())

    def _advance_integral(self) -> None:
        now = self.sim.now
        self._active_integral += self.active_count() * (now - self._last_t)
        self._last_t = now

    # -- transitions -----------------------------------------------------
    def _wake(self, server: ManagedServer) -> None:
        server.state = STATE_WAKING
        self.wakes += 1
        index = server.slot.index
        if self.tracer is not None:
            self.tracer.instant(
                "rack/autoscaler", f"wake s{index}", self.sim.now,
                {"rate_gbps": round(self.rate_ewma_gbps, 3)},
            )

        self._pending_wakes[index] = self.sim.schedule(
            self.config.wake_latency_s, self._finish_wake, server
        )

    def _finish_wake(self, server: ManagedServer) -> None:
        self._pending_wakes.pop(server.slot.index, None)
        self._advance_integral()
        self.rack_power.wake_server(server.slot.index)
        for engine in server.system.engines():
            # engines with their own sleep management (HAL host cores)
            # stay parked until traffic demands them; everything else
            # resumes polling immediately
            if engine.sleeping and not engine.sleep_enabled:
                engine.sleeping = False
                engine._notify_power()
        server.state = STATE_AWAKE
        server.slot.routable = True

    def _drain(self, server: ManagedServer) -> None:
        self._advance_integral()
        server.state = STATE_DRAINING
        server.slot.routable = False
        if self.tracer is not None:
            self.tracer.instant(
                "rack/autoscaler", f"drain s{server.slot.index}", self.sim.now,
                {"rate_gbps": round(self.rate_ewma_gbps, 3)},
            )

    def _park(self, server: ManagedServer) -> None:
        self._advance_integral()
        index = server.slot.index
        for engine in server.system.engines():
            if not engine.sleeping:
                engine.sleeping = True
                engine._notify_power()
        self.rack_power.sleep_server(index)
        server.state = STATE_ASLEEP
        self.sleeps += 1
        if self.tracer is not None:
            self.tracer.instant("rack/autoscaler", f"park s{index}", self.sim.now)

    # -- the control loop -------------------------------------------------
    def _tick(self) -> None:
        config = self.config
        self._advance_integral()
        bits = self.front.dispatched_bits
        instantaneous = (bits - self._last_bits) / config.period_s / 1e9
        self._last_bits = bits
        self.rate_ewma_gbps += config.ewma_alpha * (
            instantaneous - self.rate_ewma_gbps
        )

        # one pass over the rack: park any draining server whose queues
        # ran dry, count the committed servers (waking ones count toward
        # the target, their latency is already committed; draining ones
        # are on the way out) and collect the routable ones, probing their
        # queues until one runs deep
        deep_packets = config.occupancy_wake_packets
        committed = 0
        routable: List[ManagedServer] = []
        burst = False
        for server in self.servers:
            state = server.state
            if state == STATE_DRAINING:
                if server.quiescent():
                    self._park(server)
            elif state != STATE_ASLEEP:
                committed += 1
            slot = server.slot
            if slot.routable:
                routable.append(server)
                if not burst and slot.occupancy() >= deep_packets:
                    burst = True

        needed = math.ceil(
            self.rate_ewma_gbps / (config.target_utilization * self._capacity_mean)
        )
        needed = max(config.min_awake, min(len(self.servers), needed))
        # burst escape hatch: deep queues mean the EWMA is lagging reality
        if burst:
            needed = min(len(self.servers), max(needed, len(routable) + 1))

        if needed > committed:
            self._surplus_ticks = 0
            for server in self.servers:  # lowest index first
                if committed >= needed:
                    break
                if server.state == STATE_ASLEEP:
                    self._wake(server)
                    committed += 1
                elif server.state == STATE_DRAINING:
                    # cheapest capacity: un-drain before waking a sleeper
                    self._advance_integral()
                    server.state = STATE_AWAKE
                    server.slot.routable = True
                    committed += 1
        elif needed < len(routable):
            self._surplus_ticks += 1
            if self._surplus_ticks >= config.sleep_after_ticks:
                self._surplus_ticks = 0
                # highest index drains first (stable packing order)
                for server in reversed(self.servers):
                    if len(routable) <= max(needed, config.min_awake):
                        break
                    if server.state == STATE_AWAKE and server.slot.routable:
                        self._drain(server)
                        routable.remove(server)
                        break  # one server per decision: gentle scale-down
        else:
            self._surplus_ticks = 0
