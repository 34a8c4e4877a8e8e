"""Experiment-facing server construction and run helpers.

One function, one system kind, one workload → one :class:`RunMetrics`.
Everything the per-figure experiment modules need funnels through here so
durations, batching, and seeds stay consistent across the whole
evaluation.  :func:`run_at_rate` and :func:`run_trace` describe a cell as
a :class:`~repro.runner.JobSpec` and submit it to the ambient runner,
whose executor simulates it with :func:`simulate_cell`: every cell is
cached and counted the same way, whichever experiment asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.core import PLATFORMS, SYSTEM_CLASSES, PlatformSystem, ServerSystem
from repro.core.static import platform_stage
from repro.flow.source import ConstantRateSource, TraceRateSource
from repro.flow.system import (
    FLOW_SYSTEM_CLASSES,
    FlowPlatformSystem,
    FlowServerSystem,
)
from repro.net.traffic import (
    META_TRACES,
    ConstantRateGenerator,
    LogNormalTraceGenerator,
    TrafficSpec,
)
from repro.runner import JobSpec, current_runner
from repro.sim.metrics import RunMetrics

#: event-granularity modes: per-packet ground truth vs fluid fast path
SIM_MODES = ("packet", "flow")


def auto_batch(rate_gbps: float, packet_bytes: int = 1500) -> int:
    """Wire packets per simulation event, scaled so the event rate stays
    near ~100k/s regardless of offered rate (full fidelity below ~1 Gbps,
    batching only where the packet rate would swamp the event loop)."""
    pps = rate_gbps * 1e9 / (packet_bytes * 8)
    return max(1, min(32, round(pps / 100_000)))


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for every experiment run."""

    duration_s: float = 0.25
    batch: Optional[int] = None  # None → auto_batch by offered rate
    packet_bytes: int = 1500
    seed: int = 2024
    functional_rate: float = 0.0
    trace_interval_s: float = 0.02
    #: "packet" (per-train events, identity-hashed ground truth) or
    #: "flow" (fluid fast path, validated by ``repro validate-flow``)
    sim_mode: str = "packet"
    #: flow mode only: control/advance interval of the fluid stations
    flow_interval_s: float = 100e-6

    def __post_init__(self) -> None:
        if self.sim_mode not in SIM_MODES:
            raise ValueError(
                f"unknown sim_mode {self.sim_mode!r}; known: {SIM_MODES}"
            )
        if self.flow_interval_s <= 0:
            raise ValueError(
                f"flow_interval_s must be positive ({self.flow_interval_s})"
            )

    def spec(self, rate_gbps: Optional[float] = None) -> TrafficSpec:
        batch = self.batch
        if batch is None:
            batch = auto_batch(rate_gbps or 10.0, self.packet_bytes)
        return TrafficSpec(packet_bytes=self.packet_bytes, batch=batch)

    def shorter(self, factor: float) -> "RunConfig":
        return replace(self, duration_s=self.duration_s * factor)


#: default configuration; benches shrink it, the CLI can grow it
DEFAULT_CONFIG = RunConfig()


def build_system(
    kind: str,
    function: str,
    config: RunConfig = DEFAULT_CONFIG,
    **kwargs,
) -> Union[ServerSystem, FlowServerSystem]:
    """Instantiate one of the evaluated server configurations in the
    simulation mode ``config.sim_mode`` names."""
    common = dict(
        seed=config.seed, functional_rate=config.functional_rate, **kwargs
    )
    if config.sim_mode == "flow":
        table, platform_class = FLOW_SYSTEM_CLASSES, FlowPlatformSystem
        common.update(
            interval_s=config.flow_interval_s, packet_bytes=config.packet_bytes
        )
    else:
        table, platform_class = SYSTEM_CLASSES, PlatformSystem
    if kind in PLATFORMS:
        return platform_class(function, platform=kind, **common)
    if kind not in table:
        raise ValueError(
            f"unknown system kind {kind!r}; known: {(*table, *PLATFORMS)}"
        )
    return table[kind](function, **common)


def simulate_cell(spec: JobSpec) -> RunMetrics:
    """Simulate one ``at_rate`` or ``trace`` cell in-process: the body the
    runner's executor calls for both ops."""
    system = build_system(
        spec.kind, spec.function, spec.config, **dict(spec.params)
    )
    return drive_system(system, spec)


def drive_system(
    system: Union[ServerSystem, FlowServerSystem], spec: JobSpec
) -> RunMetrics:
    """Run a built ``system`` under the traffic of an ``at_rate`` or
    ``trace`` spec: a packet generator in packet mode, a rate source in
    flow mode.  Flow mode draws a trace's rate schedule from the same RNG
    streams as the packet-mode generator."""
    config = spec.config
    trace = None
    if spec.op == "trace":
        if spec.trace not in META_TRACES:
            raise ValueError(
                f"unknown trace {spec.trace!r}; known: {sorted(META_TRACES)}"
            )
        trace = META_TRACES[spec.trace]
    traffic = config.spec(spec.rate_gbps if trace is None else trace.average_gbps * 3)
    if config.sim_mode == "flow":
        source = (
            ConstantRateSource(spec.rate_gbps)
            if trace is None
            else TraceRateSource(
                spec.trace,
                system.rng,
                system.plan,
                traffic,
                trace_interval_s=config.trace_interval_s,
            )
        )
        return system.run(source, config.duration_s, train_multiplicity=traffic.batch)
    generator = (
        ConstantRateGenerator(system.plan, traffic, system.rng, spec.rate_gbps)
        if trace is None
        else LogNormalTraceGenerator(
            system.plan,
            traffic,
            system.rng,
            trace,
            interval_s=config.trace_interval_s,
        )
    )
    return system.run(generator, config.duration_s)


def run_at_rate(
    kind: str,
    function: str,
    rate_gbps: float,
    config: RunConfig = DEFAULT_CONFIG,
    **kwargs,
) -> RunMetrics:
    """One constant-rate cell (the Fig. 2/4/5/9 workhorse), run by the
    ambient runner so it is cached like every other cell."""
    return current_runner().run_one(
        JobSpec.at_rate(kind, function, rate_gbps, config, **kwargs)
    )


def run_trace(
    kind: str,
    function: str,
    trace: str,
    config: RunConfig = DEFAULT_CONFIG,
    **kwargs,
) -> RunMetrics:
    """One datacenter-trace cell (the Table V workhorse), run by the
    ambient runner."""
    return current_runner().run_one(
        JobSpec.for_trace(kind, function, trace, config, **kwargs)
    )


def engine_capacity_gbps(kind: str, function: str) -> float:
    """Nominal capacity of the one engine a search brackets ``kind``
    around: a platform kind's own stage, BlueField-2 for the SNIC-only
    kind, and the Skylake host for the host-only and cooperative kinds."""
    if kind not in PLATFORMS:
        kind = "bf2" if kind == "snic" else "skylake"
    return platform_stage(function, kind)[0].capacity_gbps


def measure_base_p99_us(
    kind: str,
    function: str,
    config: RunConfig = DEFAULT_CONFIG,
    low_rate_fraction: float = 0.10,
    capacity_gbps: Optional[float] = None,
) -> float:
    """p99 at a low (10% of capacity) rate — the latency floor used as
    the SLO reference (§III-C)."""
    if capacity_gbps is None:
        capacity_gbps = engine_capacity_gbps(kind, function)
    rate = max(0.02, capacity_gbps * low_rate_fraction)
    return run_at_rate(kind, function, rate, config).p99_latency_us
