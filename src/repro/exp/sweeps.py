"""Rate sweeps and operating-point searches.

Three searches recur through the evaluation:

* :func:`rate_sweep` — run a system across a list of offered rates
  (Figs. 4, 5, 9);
* :func:`find_max_throughput` — the highest offered rate a system
  sustains without meaningful loss (Figs. 2, 10): binary search on the
  drop rate;
* :func:`find_slo_throughput` — Table II's "SLO TP": the highest rate at
  which p99 stays within a factor of the low-load latency floor.

Every probe is an ordinary cell on the ambient runner:
:func:`rate_sweep` submits its rates as one batch, and the searches
submit one probe at a time through :func:`repro.exp.server.run_at_rate`.
Both searches bracket on :func:`repro.exp.server.engine_capacity_gbps`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from repro.exp.server import (
    DEFAULT_CONFIG,
    RunConfig,
    auto_batch,
    engine_capacity_gbps,
    measure_base_p99_us,
    run_at_rate,
)
from repro.hw.profiles import LINE_RATE_GBPS
from repro.runner import JobSpec, current_runner
from repro.sim.metrics import RunMetrics


@dataclass
class SweepPoint:
    rate_gbps: float
    metrics: RunMetrics


def _pin_batch(config: RunConfig, reference_rate: float) -> RunConfig:
    """Fix the event batch size across a search/sweep so the measured
    latency floor does not shift with the probe rate."""
    if config.batch is not None:
        return config
    return replace(config, batch=auto_batch(reference_rate, config.packet_bytes))


def rate_sweep(
    kind: str,
    function: str,
    rates: Iterable[float],
    config: RunConfig = DEFAULT_CONFIG,
    **kwargs,
) -> List[SweepPoint]:
    rates = list(rates)
    config = _pin_batch(config, sorted(rates)[len(rates) // 2])
    specs = [
        JobSpec.at_rate(kind, function, rate, config, **kwargs) for rate in rates
    ]
    metrics = current_runner().map_metrics(specs)
    return [SweepPoint(rate, m) for rate, m in zip(rates, metrics)]


def find_max_throughput(
    kind: str,
    function: str,
    config: RunConfig = DEFAULT_CONFIG,
    max_drop_rate: float = 0.01,
    iterations: int = 7,
    hi_gbps: float = LINE_RATE_GBPS,
    **kwargs,
) -> Tuple[float, RunMetrics]:
    """Binary-search the highest sustainable offered rate.

    Returns (rate, metrics at that rate). The search brackets on the drop
    rate: a probe "passes" when fewer than ``max_drop_rate`` of offered
    packets are lost.
    """
    cap = engine_capacity_gbps(kind, function)
    config = _pin_batch(config, min(hi_gbps, cap))
    # bracket around the engine's nominal capacity so the bisection
    # resolves 0.1-Gbps functions as well as line-rate ones; cooperative
    # systems (HAL/SLB) can exceed a single engine, so keep the full range
    if kind in ("hal", "slb", "host-slb"):
        cap += engine_capacity_gbps("snic", function)
    hi = min(hi_gbps, max(cap * 1.3, 0.1))
    lo = min(0.02, hi / 10)
    best_rate, best_metrics = lo, None

    def sustainable(metrics: RunMetrics) -> bool:
        if metrics.drop_rate > max_drop_rate:
            return False
        # a rate is only sustainable if queues are not silently filling:
        # short probes of slow functions never drop, they just back up
        backlog = metrics.extras.get("final_backlog_packets", 0.0)
        return backlog <= max(64.0, 0.02 * max(1, metrics.generated_packets))

    # probe the ceiling first: many functions sustain line rate
    top = run_at_rate(kind, function, hi, config, **kwargs)
    if sustainable(top):
        return hi, top

    for _ in range(iterations):
        mid = (lo + hi) / 2
        metrics = run_at_rate(kind, function, mid, config, **kwargs)
        if sustainable(metrics):
            lo = mid
            best_rate, best_metrics = mid, metrics
        else:
            hi = mid
    if best_metrics is None:
        best_metrics = run_at_rate(kind, function, lo, config, **kwargs)
        best_rate = lo
    return best_rate, best_metrics


def find_slo_throughput(
    function: str,
    kind: str = "snic",
    config: RunConfig = DEFAULT_CONFIG,
    latency_factor: float = 1.8,
    max_drop_rate: float = 0.005,
    iterations: int = 7,
    base_p99_us: Optional[float] = None,
    **kwargs,
) -> Tuple[float, RunMetrics]:
    """Table II's SLO throughput: the highest rate where p99 stays within
    ``latency_factor`` of the low-load floor and (almost) nothing drops."""
    cap = engine_capacity_gbps(kind, function)
    config = _pin_batch(config, cap)
    if base_p99_us is None:
        base_p99_us = measure_base_p99_us(kind, function, config)
    limit_us = base_p99_us * latency_factor
    lo, hi = min(0.02, cap * 0.05), min(LINE_RATE_GBPS, cap * 1.15)
    best_rate, best_metrics = lo, None
    for _ in range(iterations):
        mid = (lo + hi) / 2
        metrics = run_at_rate(kind, function, mid, config, **kwargs)
        if metrics.p99_latency_us <= limit_us and metrics.drop_rate <= max_drop_rate:
            lo = mid
            best_rate, best_metrics = mid, metrics
        else:
            hi = mid
    if best_metrics is None:
        best_metrics = run_at_rate(kind, function, lo, config, **kwargs)
        best_rate = lo
    return best_rate, best_metrics


def geometric_rates(start: float, stop: float, points: int) -> List[float]:
    """Log-spaced rate ladder for sweep figures."""
    if points < 2 or start <= 0 or stop <= start:
        raise ValueError("need points >= 2 and 0 < start < stop")
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]
