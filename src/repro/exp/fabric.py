"""Fabric-scale evaluation: fleet energy-per-request across systems.

The datacenter question one rack cannot answer: when a diurnal
multi-workload fleet curve (web + cache + Hadoop phases stitched over
``model_hours``) lands on N racks behind a global dispatch/autoscaling/
power-capping tier, how do HAL fleets compare against host-only fleets
on energy-per-request — and how much does cross-rack packing (parking
whole racks, not just servers) buy on top of the rack autoscaler?

Everything here is **derived, not paper-anchored** (the paper measures
one server; racks and fabric add modelled ToR/sleep/diurnal layers) —
compare systems relatively.

Result payloads are wall-clock-free and shard-count-independent: the
same config produces a byte-identical :class:`ExperimentResult` at any
``--shard-jobs``, which is what the CI identity gate asserts.  Every
focused ``repro fabric`` run, ``--scaling`` included, goes through
:func:`repro.serve.checkpoint.run_resumable`; scaling *efficiency*
(wall-clock vs worker count) is measured by the CLI's ``--scaling``
path, outside the payload.
"""

from __future__ import annotations

from typing import Sequence

from repro.exp.report import ExperimentResult
from repro.exp.server import DEFAULT_CONFIG, RunConfig
from repro.fabric.system import FabricConfig, FabricResult, run_fabric

SYSTEMS = ("hal", "host")
GRID_RACKS = 2
GRID_SERVERS = 2

#: fabric epochs are control-plane barriers, far coarser than the flow
#: tick; the grid uses 20 ms epochs over 1 ms flow intervals
EPOCH_S = 0.02
FLOW_INTERVAL_S = 1e-3

COLUMNS = (
    "racks",
    "servers",
    "dispatch",
    "mix",
    "system",
    "offered_gbps",
    "avg_gbps",
    "p99_us",
    "power_w",
    "ee",
    "uj_per_req",
    "awake_mean",
    "hot_racks",
)


def fabric_config(
    config: RunConfig,
    system: str,
    racks: int,
    servers: int,
    dispatch: str,
    mix: str,
    model_hours: float,
    policy: str = "packing",
    power_cap_w: float = 0.0,
) -> FabricConfig:
    """One member system's :class:`FabricConfig` for a fabric shape
    (shared by the registered grid and the resumable driver in
    :mod:`repro.serve.checkpoint`, the one focused-fabric driver)."""
    return FabricConfig(
        racks=racks,
        servers=servers,
        member_kind=system,
        function="nat",
        policy=policy,
        dispatch=dispatch,
        mix=mix,
        model_hours=model_hours,
        duration_s=config.duration_s,
        epoch_s=EPOCH_S,
        flow_interval_s=FLOW_INTERVAL_S,
        packet_bytes=config.packet_bytes,
        seed=config.seed,
        power_cap_w=power_cap_w,
    )


def add_fabric_row(
    result: ExperimentResult, cfg: FabricConfig, outcome: FabricResult
) -> None:
    fleet = outcome.fleet
    result.add_row(
        racks=cfg.racks,
        servers=cfg.servers,
        dispatch=cfg.dispatch,
        mix=cfg.mix,
        system=cfg.member_kind,
        offered_gbps=fleet.offered_gbps,
        avg_gbps=fleet.throughput_gbps,
        p99_us=fleet.p99_latency_us,
        power_w=fleet.average_power_w,
        ee=fleet.energy_efficiency,
        uj_per_req=fleet.extras.get("uj_per_req", 0.0),
        awake_mean=fleet.extras.get("fleet_awake_mean", 0.0),
        hot_racks=fleet.extras.get("hot_racks_mean", float(cfg.racks)),
    )


def _add_ee_notes(result: ExperimentResult) -> None:
    """HAL-fleet vs host-fleet energy-per-request, per fabric shape."""
    by_key = {
        (row["racks"], row["dispatch"], row["system"]): row
        for row in result.rows
    }
    for (racks, dispatch, system), row in sorted(by_key.items()):
        if system != "hal":
            continue
        host = by_key.get((racks, dispatch, "host"))
        if host is None or not host["uj_per_req"]:
            continue
        result.add_note(
            f"{racks} racks / {dispatch}: HAL fleet {row['uj_per_req']:.1f} "
            f"uJ/req vs host {host['uj_per_req']:.1f} uJ/req "
            f"({host['uj_per_req'] / row['uj_per_req']:.2f}x) — "
            f"awake {row['awake_mean']:.2f} vs {host['awake_mean']:.2f} servers"
        )


def focused_result(
    racks: int,
    servers: int,
    dispatch: str,
    mix: str,
    model_hours: float,
) -> ExperimentResult:
    """The empty result shell of one focused fabric run, which the
    resumable driver in :mod:`repro.serve.checkpoint` fills in."""
    return ExperimentResult(
        experiment="fabric",
        title=(
            f"Fabric-scale: {racks} racks x {servers} servers, "
            f"{dispatch} dispatch, {model_hours:g} h of the {mix!r} mix"
        ),
        columns=COLUMNS,
    )


def finalize_focused(result: ExperimentResult) -> ExperimentResult:
    """Stamp the focused run's closing notes (counterpart of
    :func:`focused_result`; see there)."""
    _add_ee_notes(result)
    result.add_note(
        "fabric numbers are derived, not paper-anchored (see EXPERIMENTS.md)"
    )
    return result


def run(
    config: RunConfig = DEFAULT_CONFIG,
    systems: Sequence[str] = SYSTEMS,
) -> ExperimentResult:
    """The registered grid: a small fixed fabric cell per member system
    (always ``shard_jobs=1`` — the registry path must stay deterministic
    and process-count-free; sharding is the CLI's focused path)."""
    result = ExperimentResult(
        experiment="fabric",
        title="Fabric-scale: fleet energy-per-request under a diurnal mix",
        columns=COLUMNS,
    )
    for system in systems:
        cfg = fabric_config(
            config,
            system,
            racks=GRID_RACKS,
            servers=GRID_SERVERS,
            dispatch="packing",
            mix="mix",
            model_hours=24.0,
        )
        add_fabric_row(result, cfg, run_fabric(cfg, shard_jobs=1))
    _add_ee_notes(result)
    result.add_note(
        "fabric numbers are derived, not paper-anchored: diurnal phases, "
        "ToR watts, sleep states and the fleet control plane are modelled "
        "layers on top of the paper's single-server calibration (see "
        "EXPERIMENTS.md); compare systems relatively"
    )
    return result
