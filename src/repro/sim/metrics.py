"""Measurement primitives: latency percentiles, throughput, energy.

The paper reports four headline metrics — maximum/average throughput
(Gbps), p99 latency (µs), average system power (W), and energy efficiency
(throughput / power). These classes collect them during simulation runs
in the same way the testbed instruments do:

* latency is recorded per completed packet and summarised by percentile;
* throughput is delivered bytes over the measurement window;
* power is integrated piecewise over component state changes and sampled
  at a 1 s period like the paper's DCMI/BMC readout.
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1] (got {fraction})")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = fraction * (len(sorted_values) - 1)
    lower = math.floor(pos)
    upper = math.ceil(pos)
    if lower == upper:
        return sorted_values[lower]
    weight = pos - lower
    a, b = sorted_values[lower], sorted_values[upper]
    # a + (b-a)w keeps the result inside [a, b] even under FP rounding
    return min(b, a + (b - a) * weight)


class LatencyReservoir:
    """Reservoir of latency samples with percentile queries.

    Keeps every sample up to ``max_samples``; beyond that it switches to
    uniform reservoir sampling so long runs stay bounded in memory while
    the percentile estimates remain unbiased.
    """

    def __init__(self, max_samples: int = 200_000, seed: int = 12345) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._max_samples = max_samples
        self._seed = seed
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        # private RNG so the reservoir needs no external RNG plumbing
        self._rng = _random.Random(seed)

    def _rand_below(self, n: int) -> int:
        return self._rng.randrange(n)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative (got {value})")
        self._count += 1
        self._sum += value
        self._sorted = None
        if value > self._max:
            self._max = value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            slot = self._rand_below(self._count)
            if slot < self._max_samples:
                self._samples[slot] = value

    def record_many(self, values: Sequence[float]) -> None:
        """Record ``values`` in order: the same state as one :meth:`record`
        call per value, with the in-capacity prefix appended in one step.

        Nothing is recorded if any value is negative."""
        total = self._sum
        peak = self._max
        for value in values:
            if value < 0:
                raise ValueError(f"latency cannot be negative (got {value})")
            # one addition per value, in order: the float result must
            # equal record()'s running sum bit for bit
            total += value
            if value > peak:
                peak = value
        if not values:
            return
        self._sum = total
        self._max = peak
        self._sorted = None
        samples = self._samples
        room = max(0, self._max_samples - len(samples))
        samples.extend(values[:room])
        self._count += min(room, len(values))
        for value in values[room:]:
            self._count += 1
            slot = self._rand_below(self._count)
            if slot < self._max_samples:
                samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def quantile(self, fraction: float) -> float:
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile(self._sorted, fraction)

    def p50(self) -> float:
        return self.quantile(0.50)

    def p99(self) -> float:
        return self.quantile(0.99)

    def p999(self) -> float:
        return self.quantile(0.999)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (floats round-trip exactly through ``json``)."""
        return {
            "max_samples": self._max_samples,
            "seed": self._seed,
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "samples": list(self._samples),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LatencyReservoir":
        """Rebuild a reservoir snapshot.

        Percentile/mean/max queries are exact. The sampling RNG restarts
        from the original seed, so only a reservoir that is *recorded
        into again* after more than ``max_samples`` prior observations
        could diverge from the never-serialized original.
        """
        reservoir = cls(
            max_samples=int(data["max_samples"]), seed=int(data["seed"])
        )
        reservoir._samples = [float(v) for v in data["samples"]]
        reservoir._count = int(data["count"])
        reservoir._sum = float(data["sum"])
        reservoir._max = float(data["max"])
        return reservoir

    def state_dict(self) -> Dict[str, Any]:
        """Mid-run checkpoint form: :meth:`to_dict` plus the sampling RNG
        state, so a restored reservoir that keeps recording past
        ``max_samples`` stays byte-identical to the uninterrupted one
        (the ``from_dict`` caveat does not apply)."""
        from repro.sim.rng import rng_state

        state = self.to_dict()
        state["rng"] = rng_state(self._rng)
        return state

    @classmethod
    def restore_state(cls, state: Dict[str, Any]) -> "LatencyReservoir":
        from repro.sim.rng import set_rng_state

        reservoir = cls.from_dict(state)
        set_rng_state(reservoir._rng, state["rng"])
        return reservoir


class ThroughputMeter:
    """Counts delivered packets/bytes and converts to rates."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self._window_start = 0.0

    def record(self, nbytes: int, npackets: int = 1) -> None:
        if nbytes < 0 or npackets < 0:
            raise ValueError("throughput increments must be non-negative")
        self.bytes += nbytes
        self.packets += npackets

    def start_window(self, now: float) -> None:
        self._window_start = now
        self.packets = 0
        self.bytes = 0

    def gbps(self, now: float) -> float:
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.bytes * 8 / elapsed / 1e9

    def mpps(self, now: float) -> float:
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.packets / elapsed / 1e6


class PowerIntegrator:
    """Integrates instantaneous power into energy, per component.

    Components report their power level whenever it changes; the
    integrator accumulates ``∫ P dt`` and exposes the time-average, which
    is what the DCMI/BMC sampling in the paper converges to.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._levels: Dict[str, float] = {}
        self._energy: Dict[str, float] = {}
        self._last_update: float = start_time
        self._start_time: float = start_time

    def set_level(self, component: str, watts: float, now: float) -> None:
        if watts < 0:
            raise ValueError(f"power cannot be negative ({component}: {watts})")
        self._advance(now)
        if component not in self._energy:
            self._energy[component] = 0.0
        self._levels[component] = watts

    def _advance(self, now: float) -> None:
        if now < self._last_update:
            raise ValueError("power integrator cannot move backwards in time")
        dt = now - self._last_update
        if dt > 0:
            # every _levels key is seeded in _energy by set_level, so the
            # accumulation is a plain in-place add per component
            energy = self._energy
            for component, watts in self._levels.items():
                energy[component] += watts * dt
        self._last_update = now

    def energy_joules(self, now: float, component: Optional[str] = None) -> float:
        self._advance(now)
        if component is not None:
            return self._energy.get(component, 0.0)
        # lint: disable=DET04 component insertion order is fixed at registration and part of the payload contract (PR 9); reordering would change the float sum and every identity sha
        return sum(self._energy.values())

    def average_watts(self, now: float, component: Optional[str] = None) -> float:
        elapsed = now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self.energy_joules(now, component) / elapsed

    def instantaneous_watts(self) -> float:
        # lint: disable=DET04 same registration-order contract as energy_joules
        return sum(self._levels.values())

    def components(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._levels) | set(self._energy)))

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe checkpoint of levels, accumulated energy and clocks.

        Component order is *insertion* order, not sorted: totals are
        float sums over ``dict.values()``, so a restored integrator must
        iterate its components in the original order to reproduce
        bit-identical sums."""
        return {
            "levels": dict(self._levels),
            "energy": dict(self._energy),
            "last_update": self._last_update,
            "start_time": self._start_time,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._levels = {k: float(v) for k, v in state["levels"].items()}
        self._energy = {k: float(v) for k, v in state["energy"].items()}
        self._last_update = float(state["last_update"])
        self._start_time = float(state["start_time"])


@dataclass
class TimeSeries:
    """Sampled (time, value) series, e.g. the Fig. 8 rate snapshots."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series must be appended in time order")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0


@dataclass
class RunMetrics:
    """Aggregated results of one simulation run (one table cell)."""

    offered_gbps: float = 0.0
    duration_s: float = 0.0
    delivered_bytes: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    generated_packets: int = 0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    average_power_w: float = 0.0
    power_breakdown: Dict[str, float] = field(default_factory=dict)
    snic_share: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_gbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.duration_s / 1e9

    @property
    def p99_latency_us(self) -> float:
        return self.latency.p99() * 1e6

    @property
    def mean_latency_us(self) -> float:
        return self.latency.mean * 1e6

    @property
    def drop_rate(self) -> float:
        if self.generated_packets <= 0:
            return 0.0
        return self.dropped_packets / self.generated_packets

    @property
    def energy_efficiency(self) -> float:
        """Throughput per watt (Gbps/W), the paper's efficiency metric."""
        if self.average_power_w <= 0:
            return 0.0
        return self.throughput_gbps / self.average_power_w

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, the unit the runner's result cache stores."""
        return {
            "offered_gbps": self.offered_gbps,
            "duration_s": self.duration_s,
            "delivered_bytes": self.delivered_bytes,
            "delivered_packets": self.delivered_packets,
            "dropped_packets": self.dropped_packets,
            "generated_packets": self.generated_packets,
            "latency": self.latency.to_dict(),
            "average_power_w": self.average_power_w,
            "power_breakdown": dict(self.power_breakdown),
            "snic_share": self.snic_share,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunMetrics":
        return cls(
            offered_gbps=float(data["offered_gbps"]),
            duration_s=float(data["duration_s"]),
            delivered_bytes=int(data["delivered_bytes"]),
            delivered_packets=int(data["delivered_packets"]),
            dropped_packets=int(data["dropped_packets"]),
            generated_packets=int(data["generated_packets"]),
            latency=LatencyReservoir.from_dict(data["latency"]),
            average_power_w=float(data["average_power_w"]),
            power_breakdown=dict(data["power_breakdown"]),
            snic_share=float(data["snic_share"]),
            extras=dict(data["extras"]),
        )
