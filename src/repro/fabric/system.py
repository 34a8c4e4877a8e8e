"""Compose racks + fleet control + diurnal schedule into one fabric run.

:func:`run_fabric` is the tentpole entry point: build one
:class:`~repro.fabric.shard.RackShardSpec` per rack (each with a
pre-spawned rack seed), hand them to a
:class:`~repro.runner.sharded.ShardedRunner`, and drive the epoch loop —

    split (fleet balancer) → step (all racks to the barrier) → observe

— until the diurnal schedule is consumed, then drain every rack and
aggregate fleet-level metrics.

Correctness of the conservative time-stepping: cross-rack decisions
(dispatch weights, throttle, hot set) only change at epoch barriers, so
within an epoch each rack's evolution depends exclusively on state it
already owns — the lookahead equals ``epoch_s`` and no rack can be
causally affected by a sibling mid-epoch.  Combined with per-rack
spawned seeds and the parent consuming summaries in rack-index order,
the run is byte-identical at every worker count (``shard_jobs=1``
in-process included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import repro.exp  # noqa: F401  (import order: exp must load before runner)
from repro.fabric.control import (
    FABRIC_DISPATCH,
    FleetBalancer,
    FleetControlConfig,
    spawn_rack_name,
)
from repro.fabric.shard import SHARD_FACTORY, RackShardSpec
from repro.flow.system import fill_reservoir_unit
from repro.net.traffic import DIURNAL_PHASES, META_TRACES, stitch_diurnal_rates
from repro.runner.sharded import ShardedRunner
from repro.sim.metrics import RunMetrics
from repro.sim.rng import RngRegistry, spawn_seed

if TYPE_CHECKING:
    from repro.obs.fleet import FleetTelemetry


@dataclass(frozen=True)
class FabricConfig:
    """Shape and knobs of one fabric run (scalar-only, hashable)."""

    racks: int = 8
    servers: int = 4
    member_kind: str = "hal"
    function: str = "nat"
    policy: str = "packing"  # intra-rack front-tier policy
    dispatch: str = "packing"  # cross-rack fleet dispatch
    mix: str = "mix"  # diurnal mix (web/cache/hadoop/mix)
    model_hours: float = 24.0
    duration_s: float = 2.0
    epoch_s: float = 0.02
    flow_interval_s: float = 1e-3
    packet_bytes: int = 1500
    seed: int = 2024
    autoscale: bool = True
    target_utilization: float = 0.6
    power_cap_w: float = 0.0

    def __post_init__(self) -> None:
        if self.racks < 1:
            raise ValueError("a fabric needs at least one rack")
        if self.servers < 1:
            raise ValueError("a rack needs at least one server")
        if self.dispatch not in FABRIC_DISPATCH:
            raise ValueError(
                f"unknown dispatch {self.dispatch!r}; known: {FABRIC_DISPATCH}"
            )
        if self.mix not in DIURNAL_PHASES:
            raise ValueError(
                f"unknown mix {self.mix!r}; known: {sorted(DIURNAL_PHASES)}"
            )
        if self.model_hours <= 0:
            raise ValueError("model_hours must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.epoch_s <= 0 or self.flow_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.epoch_s < self.flow_interval_s:
            raise ValueError("epoch_s must be >= flow_interval_s")

    @property
    def epochs(self) -> int:
        return max(1, round(self.duration_s / self.epoch_s))

    @property
    def measured_duration_s(self) -> float:
        """The realised run length: a whole number of epochs."""
        return self.epochs * self.epoch_s

    def control(self) -> FleetControlConfig:
        return FleetControlConfig(
            dispatch=self.dispatch,
            target_utilization=self.target_utilization,
            power_cap_w=self.power_cap_w,
        )

    def shard_specs(self, telemetry: bool = False) -> List[RackShardSpec]:
        """One spec per rack, each with its spawned rack seed.

        ``telemetry=True`` marks every shard to carry a local probe
        registry and ship per-epoch deltas (read-only — the rack's
        evolution and payload are unchanged)."""
        multiplicity = _train_multiplicity(self)
        return [
            RackShardSpec(
                index=index,
                member_kind=self.member_kind,
                function=self.function,
                servers=self.servers,
                policy=self.policy,
                seed=spawn_seed(self.seed, spawn_rack_name(index)),
                flow_interval_s=self.flow_interval_s,
                epoch_s=self.epoch_s,
                epochs=self.epochs,
                packet_bytes=self.packet_bytes,
                train_multiplicity=multiplicity,
                autoscale=self.autoscale,
                telemetry=telemetry,
            )
            for index in range(self.racks)
        ]


def _train_multiplicity(config: FabricConfig) -> int:
    """Wire packets per fluid arrival train, scaled to the per-rack
    average rate (same ~100k events/s target as ``exp.server.auto_batch``,
    inlined so the fabric layer does not depend on the exp layer)."""
    phases = DIURNAL_PHASES[config.mix]
    average_gbps = sum(
        META_TRACES[phase.trace].average_gbps * phase.weight for phase in phases
    )
    rack_gbps = average_gbps * config.servers
    pps = rack_gbps * 1e9 / (config.packet_bytes * 8)
    return max(1, min(32, round(pps / 100_000)))


def fleet_schedule(config: FabricConfig) -> List[float]:
    """The per-epoch fleet offered-rate schedule (Gbps).

    ``model_hours`` of diurnal traffic stitched onto ``epochs``
    intervals; each phase's average scales with the fleet's server count
    so a bigger fabric sees proportionally more traffic.  Drawn from a
    dedicated spawned registry so adding racks never perturbs the
    schedule.
    """
    rng = RngRegistry(spawn_seed(config.seed, "fleet-schedule"))
    line_rate_gbps = 100.0 * config.servers * config.racks
    return stitch_diurnal_rates(
        list(DIURNAL_PHASES[config.mix]),
        config.model_hours,
        config.epochs,
        rng,
        scale=float(config.servers * config.racks),
        line_rate_gbps=line_rate_gbps,
    )


@dataclass
class FabricResult:
    """Fleet-level metrics plus the per-rack breakdown."""

    config: FabricConfig
    fleet: RunMetrics
    racks: List[RunMetrics]
    control: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload — the unit the identity checks hash."""
        return {
            "kind": "fabric",
            "racks": [rack.to_dict() for rack in self.racks],
            "fleet": self.fleet.to_dict(),
            "control": dict(self.control),
        }

    @classmethod
    def from_dict(cls, config: FabricConfig, data: Dict[str, Any]) -> "FabricResult":
        return cls(
            config=config,
            fleet=RunMetrics.from_dict(data["fleet"]),
            racks=[RunMetrics.from_dict(rack) for rack in data["racks"]],
            control=dict(data["control"]),
        )


def _aggregate_fleet(
    config: FabricConfig,
    schedule: List[float],
    rack_metrics: List[RunMetrics],
    balancer: FleetBalancer,
    awake_sums: List[float],
) -> RunMetrics:
    fleet = RunMetrics()
    duration_s = config.measured_duration_s
    fleet.offered_gbps = sum(schedule) / len(schedule)
    fleet.duration_s = duration_s
    fleet.delivered_bytes = sum(rack.delivered_bytes for rack in rack_metrics)
    fleet.delivered_packets = sum(rack.delivered_packets for rack in rack_metrics)
    fleet.dropped_packets = sum(rack.dropped_packets for rack in rack_metrics)
    fleet.generated_packets = sum(rack.generated_packets for rack in rack_metrics)
    fleet.average_power_w = sum(rack.average_power_w for rack in rack_metrics)
    breakdown: Dict[str, float] = {}
    for index, rack in enumerate(rack_metrics):
        for component, watts in rack.power_breakdown.items():
            breakdown[f"r{index}/{component}"] = watts
    fleet.power_breakdown = breakdown
    latencies: List[float] = []
    for rack in rack_metrics:
        latencies.extend(rack.latency.to_dict()["samples"])
    fill_reservoir_unit(fleet.latency, latencies)
    total_bits = sum(r.delivered_bytes * 8 for r in rack_metrics)
    if total_bits > 0:
        fleet.snic_share = (
            sum(r.snic_share * r.delivered_bytes * 8 for r in rack_metrics)
            / total_bits
        )
    extras = fleet.extras
    extras["racks"] = float(config.racks)
    extras["servers_per_rack"] = float(config.servers)
    extras["epochs"] = float(config.epochs)
    extras["model_hours"] = config.model_hours
    extras["peak_offered_gbps"] = max(schedule)
    extras["hot_racks_mean"] = balancer.hot_racks_mean
    extras["throttled_gbps"] = balancer.throttled_gbps(duration_s)
    epochs = max(1, balancer.epochs)
    extras["fleet_awake_mean"] = sum(
        awake_sum / epochs for awake_sum in awake_sums
    )
    if fleet.delivered_packets > 0:
        extras["uj_per_req"] = (
            fleet.average_power_w * duration_s / fleet.delivered_packets * 1e6
        )
    return fleet


class FabricPaused(Exception):
    """Raised by :func:`run_fabric` when the ``pause`` hook fired at an
    epoch barrier.  Carries the parent-side loop state a checkpoint
    needs; the per-rack shard states are the caller's to snapshot (the
    caller owns the runner whenever ``pause`` is in play).
    """

    def __init__(
        self,
        epoch: int,
        offered_bits: List[float],
        awake_sums: List[float],
        balancer_state: Dict[str, Any],
    ) -> None:
        super().__init__(f"fabric run paused after epoch {epoch}")
        #: epochs fully completed (resume starts here)
        self.epoch = epoch
        self.offered_bits = offered_bits
        self.awake_sums = awake_sums
        self.balancer_state = balancer_state

    def resume_state(self) -> Dict[str, Any]:
        """The ``resume=`` argument for the continuing :func:`run_fabric`."""
        return {
            "epoch": self.epoch,
            "offered_bits": list(self.offered_bits),
            "awake_sums": list(self.awake_sums),
            "balancer": self.balancer_state,
        }


def run_fabric(
    config: FabricConfig,
    shard_jobs: int = 1,
    runner: Optional[ShardedRunner] = None,
    telemetry: Optional["FleetTelemetry"] = None,
    label: str = "fleet",
    pause: Optional[Callable[[int], bool]] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> FabricResult:
    """Run one fabric simulation, sharded over ``shard_jobs`` workers.

    The result payload carries no wall-clock state; timing lives on the
    runner (``runner.step_wall_s``), which callers may pass in to read
    afterwards.

    ``telemetry`` attaches the fleet telemetry plane: shards ship probe
    deltas at every barrier and the plane journals / monitors / exports
    the aggregated series.  Telemetry is strictly read-only — the result
    payload is byte-identical with or without it, at every worker count.

    ``pause`` is the checkpoint hook: called with the just-completed
    epoch index at each barrier (except the last — a fully-run fabric
    just finishes); returning True raises :class:`FabricPaused` with the
    parent-side loop state.  ``resume`` restarts the loop from a prior
    pause's :meth:`FabricPaused.resume_state` — the caller must pass a
    runner whose shards were already restored to the same barrier.  Both
    require a caller-owned ``runner`` (the caller snapshots its shards).
    """
    specs = config.shard_specs(telemetry=telemetry is not None)
    owns_runner = runner is None
    if owns_runner and (pause is not None or resume is not None):
        raise ValueError(
            "pause/resume need a caller-owned runner (its shards carry "
            "the checkpointed state)"
        )
    if runner is None:
        runner = ShardedRunner(specs, SHARD_FACTORY, jobs=shard_jobs)
    try:
        balancer = FleetBalancer(
            config.control(),
            [facts["capacity_gbps"] for facts in runner.describe()],
        )
        schedule = fleet_schedule(config)
        if telemetry is not None:
            telemetry.begin(
                label,
                racks=config.racks,
                epochs=config.epochs,
                epoch_s=config.epoch_s,
                meta={
                    "servers": config.servers,
                    "member_kind": config.member_kind,
                    "dispatch": config.dispatch,
                    "mix": config.mix,
                    "model_hours": config.model_hours,
                    "seed": config.seed,
                    "power_cap_w": config.power_cap_w,
                },
            )
        offered_bits = [0.0] * config.racks
        awake_sums = [0.0] * config.racks
        start_epoch = 0
        if resume is not None:
            start_epoch = int(resume["epoch"])
            if not 0 <= start_epoch < len(schedule):
                raise ValueError(
                    f"resume epoch {start_epoch} outside the schedule "
                    f"({len(schedule)} epochs)"
                )
            offered_bits = [float(v) for v in resume["offered_bits"]]
            awake_sums = [float(v) for v in resume["awake_sums"]]
            balancer.restore_state(resume["balancer"])
        for epoch in range(start_epoch, len(schedule)):
            fleet_gbps = schedule[epoch]
            shares = balancer.split(fleet_gbps, config.epoch_s)
            summaries = runner.step(shares)
            balancer.observe(fleet_gbps, summaries)
            for index, share in enumerate(shares):
                offered_bits[index] += share * 1e9 * config.epoch_s
            for index, summary in enumerate(summaries):
                awake_sums[index] += summary["awake"]
            if telemetry is not None:
                telemetry.on_epoch(
                    epoch,
                    (epoch + 1) * config.epoch_s,
                    fleet_gbps,
                    shares,
                    summaries,
                    balancer.hot_racks,
                    balancer.throttle,
                )
            if (
                pause is not None
                and epoch + 1 < len(schedule)
                and pause(epoch)
            ):
                raise FabricPaused(
                    epoch + 1,
                    list(offered_bits),
                    list(awake_sums),
                    balancer.state_dict(),
                )
        duration_s = config.measured_duration_s
        payloads = runner.finish(
            [bits / duration_s / 1e9 for bits in offered_bits]
        )
    finally:
        if owns_runner:
            runner.close()
    rack_metrics = [RunMetrics.from_dict(payload) for payload in payloads]
    fleet = _aggregate_fleet(config, schedule, rack_metrics, balancer, awake_sums)
    if telemetry is not None:
        telemetry.end_run(
            {
                "racks": config.racks,
                "epochs": config.epochs,
                "offered_gbps": fleet.offered_gbps,
                "throughput_gbps": fleet.throughput_gbps,
                "average_power_w": fleet.average_power_w,
                "p99_latency_us": fleet.p99_latency_us,
                "dropped_packets": fleet.dropped_packets,
                "shed_gbps": balancer.throttled_gbps(duration_s),
                "fleet_awake_mean": fleet.extras["fleet_awake_mean"],
            }
        )
    return FabricResult(
        config=config,
        fleet=fleet,
        racks=rack_metrics,
        control=balancer.stats(),
    )
