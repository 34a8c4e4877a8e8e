"""Rack-scale evaluation (cluster experiment).

The deployment question the single-server tables cannot answer: when a
diurnal datacenter trace (Fig. 8's log-normal construction, scaled to
rack size) lands on a rack of 4–16 servers behind a front-tier L4
balancer, how do HAL racks compare against host-only and SLB racks on
throughput, tail latency, power and energy efficiency — and how much do
the dispatch policy and whole-server sleep matter?

Two sub-grids:

* **policy grid** — every dispatch policy × {hal, host, slb} members at
  a fixed 4-server rack: flow-hash/round-robin spread load (no server
  ever sleeps), p2c balances on occupancy, packing concentrates load so
  the autoscaler can park whole servers;
* **scaling grid** — the packing policy at 4/8/16 servers: rack EE as
  the rack grows while the diurnal average stays a small fraction of
  capacity.

All rack-level numbers are *derived* (ToR watts, deep-sleep draw,
wake-up latency modelled from typical hardware, not measured by the
paper) — the interesting quantity is the *relative* EE of HAL racks vs
host/SLB racks under identical balancing, not any absolute watt value.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.policies import POLICIES
from repro.exp.report import ExperimentResult
from repro.exp.server import DEFAULT_CONFIG, RunConfig
from repro.runner import JobSpec, current_runner
from repro.sim.metrics import RunMetrics

SYSTEMS = ("hal", "host", "slb")
POLICY_GRID_SERVERS = 4
SCALING_SERVERS = (4, 8, 16)
FUNCTION = "nat"
TRACE = "web"

COLUMNS = (
    "servers",
    "policy",
    "trace",
    "system",
    "max_gbps",
    "avg_gbps",
    "p99_us",
    "power_w",
    "ee",
    "snic_share",
    "awake_mean",
)


def add_rack_row(
    result: ExperimentResult,
    servers: int,
    policy: str,
    trace: str,
    system: str,
    metrics: RunMetrics,
) -> None:
    result.add_row(
        servers=servers,
        policy=policy,
        trace=trace,
        system=system,
        max_gbps=metrics.extras.get("max_window_gbps", metrics.throughput_gbps),
        avg_gbps=metrics.throughput_gbps,
        p99_us=metrics.p99_latency_us,
        power_w=metrics.average_power_w,
        ee=metrics.energy_efficiency,
        snic_share=metrics.snic_share,
        awake_mean=metrics.extras.get("rack_awake_mean", float(servers)),
    )


def run(
    config: RunConfig = DEFAULT_CONFIG,
    systems: Sequence[str] = SYSTEMS,
    policies: Sequence[str] = POLICIES,
    scaling_servers: Sequence[int] = SCALING_SERVERS,
    trace: str = TRACE,
    function: str = FUNCTION,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="cluster",
        title="Rack-scale: dispatch policy and rack size vs energy efficiency",
        columns=COLUMNS,
    )
    grid = [
        (POLICY_GRID_SERVERS, policy, kind)
        for policy in policies
        for kind in systems
    ]
    grid += [
        (servers, "packing", kind)
        for servers in scaling_servers
        if servers != POLICY_GRID_SERVERS  # already in the policy grid
        for kind in systems
    ]
    specs = [
        JobSpec.rack(kind, function, trace, config, servers=servers, policy=policy)
        for servers, policy, kind in grid
    ]
    for (servers, policy, kind), m in zip(grid, current_runner().map_metrics(specs)):
        add_rack_row(result, servers, policy, trace, kind, m)
    _add_ee_notes(result)
    result.add_note(
        "rack numbers are derived, not paper-anchored: ToR watts, server "
        "deep-sleep draw and wake-up latency are modelled from typical "
        "hardware (see EXPERIMENTS.md); compare systems relatively"
    )
    return result


def run_focused(
    config: RunConfig = DEFAULT_CONFIG,
    servers: int = POLICY_GRID_SERVERS,
    policy: str = "packing",
    trace: str = TRACE,
    function: str = FUNCTION,
    systems: Sequence[str] = SYSTEMS,
) -> ExperimentResult:
    """One rack shape, every member system — the CLI's
    ``repro cluster --servers N --policy P --trace T`` path."""
    result = ExperimentResult(
        experiment="cluster",
        title=(
            f"Rack-scale: {servers} servers, {policy} policy, {trace} trace"
        ),
        columns=COLUMNS,
    )
    specs = [
        JobSpec.rack(kind, function, trace, config, servers=servers, policy=policy)
        for kind in systems
    ]
    for kind, m in zip(systems, current_runner().map_metrics(specs)):
        add_rack_row(result, servers, policy, trace, kind, m)
    _add_ee_notes(result)
    result.add_note(
        "rack numbers are derived, not paper-anchored (see EXPERIMENTS.md)"
    )
    return result


def _add_ee_notes(result: ExperimentResult) -> None:
    """HAL-rack vs host-rack EE, per (servers, policy) cell pair."""
    by_key = {
        (row["servers"], row["policy"], row["system"]): row for row in result.rows
    }
    gains = []
    for (servers, policy, system), row in sorted(by_key.items()):
        if system != "hal":
            continue
        host = by_key.get((servers, policy, "host"))
        if host is None or not host["ee"]:
            continue
        gain = row["ee"] / host["ee"]
        gains.append(gain)
        result.add_note(
            f"{servers} servers / {policy}: HAL-rack EE = {gain:.2f}x host-rack "
            f"(awake_mean {row['awake_mean']:.2f} vs {host['awake_mean']:.2f})"
        )
    if gains:
        result.add_note(
            f"mean HAL-rack EE gain over host-rack across the grid: "
            f"{sum(gains) / len(gains):.2f}x"
        )
