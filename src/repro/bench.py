"""Perf-regression benchmarks for the simulation hot path.

Three numbers summarise the layers the hot-path work targets:

* ``kernel_events_per_s`` — raw event throughput of the simulation
  kernel, measured on a self-scheduling event chain (no packet work);
* ``datapath_packets_per_s`` — packet construct + HLB director/merger
  rewrite + checksum-read cycles per second (no simulator);
* ``rack_dispatch_packets_per_s`` — the rack front tier's per-packet
  cost: packing-policy select over 8 server slots + the VIP rewrite;
* ``fig5_cell_wall_s`` — wall-clock of one fixed Fig. 5 smoke cell run
  end-to-end through :func:`repro.runner.executor.execute_job`.

Alongside the timings, the fig5 cell's result-payload SHA-256 and its
:meth:`JobSpec.content_hash` cache key are recorded so a perf change that
silently alters simulated results (the one thing this PR's optimisations
must never do) shows up as an identity diff, not just a speed diff.

Entry points: ``python -m repro bench [--bench-json FILE]``, the
``--bench-json`` option of ``pytest benchmarks/``, and
``benchmarks/check_regression.py`` for the CI gate.
"""

from __future__ import annotations

import hashlib
import json
import platform
from time import perf_counter
from typing import Any, Dict, Optional

#: bump when the metric definitions change incompatibly
BENCH_SCHEMA = 1

#: throughput metrics regress when they go *down*; wall-clock metrics
#: regress when they go *up* — check_regression.py reads this map
METRIC_DIRECTIONS: Dict[str, str] = {
    "kernel_events_per_s": "higher",
    "datapath_packets_per_s": "higher",
    "rack_dispatch_packets_per_s": "higher",
    "fig5_cell_wall_s": "lower",
    "flow_events_per_s": "higher",
    "fabric_rack_intervals_per_s": "higher",
}


def bench_kernel(num_events: int = 200_000, repeats: int = 3) -> float:
    """Events/second over a self-scheduling chain (best of ``repeats``)."""
    from repro.sim.engine import Simulator

    best = 0.0
    for _ in range(repeats):
        sim = Simulator()

        def chain(remaining: int) -> None:
            if remaining:
                sim.schedule(1e-6, chain, remaining - 1)

        chain(num_events)
        t0 = perf_counter()
        sim.run()
        best = max(best, sim.events_processed / (perf_counter() - t0))
    return best


def bench_datapath(cycles: int = 50_000, repeats: int = 3) -> float:
    """Packet construct + rewrite + checksum cycles/second (best of N)."""
    from repro.net.addressing import AddressPlan
    from repro.net.packet import Packet

    plan = AddressPlan.default()
    best = 0.0
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(cycles):
            p = Packet(src=plan.client, dst=plan.snic)
            p.rewrite_destination(plan.host)
            p.rewrite_source(plan.snic)
            p.checksum  # force the lazy computation
        best = max(best, cycles / (perf_counter() - t0))
    return best


def bench_rack_dispatch(
    cycles: int = 50_000, servers: int = 8, repeats: int = 3
) -> float:
    """Front-tier dispatch cycles/second, standalone (no simulator):
    packet construct + packing-policy select over N server slots + the
    checksum-correct VIP rewrite — the per-packet rack datapath cost."""
    from repro.cluster.policies import PackingPolicy, ServerSlot
    from repro.net.addressing import RackAddressPlan
    from repro.net.packet import Packet

    rack = RackAddressPlan.build(servers)
    slots = [ServerSlot(i, plan) for i, plan in enumerate(rack.servers)]
    policy = PackingPolicy()
    best = 0.0
    for _ in range(repeats):
        t0 = perf_counter()
        for i in range(cycles):
            p = Packet(src=rack.front.client, dst=rack.front.snic, flow_id=i)
            slot = policy.select(slots, p)
            p.rewrite_destination(slot.plan.snic)
            p.checksum  # force the lazy computation
        best = max(best, cycles / (perf_counter() - t0))
    return best


def rack_smoke_spec():
    """The fixed rack cell benchmarked end-to-end (2-server HAL rack,
    NAT on the web trace, packing policy, 0.05 simulated s, seed 2024)."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    config = RunConfig(duration_s=0.05, seed=2024)
    return JobSpec.rack(
        "hal", "nat", "web", config, servers=2, policy="packing"
    )


def flow_rack_smoke_specs() -> Dict[str, Any]:
    """The pinned flow-mode rack cells (NAT, 0.05 simulated s, seed
    2024), each at the 100 µs default flow interval and at the fabric's
    1 ms; keyed by the label ``baseline.json`` pins their payload under."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    cells = (
        ("hal", 4, "packing", "web"),
        ("hal,host", 3, "flowhash", "cache"),
        ("slb", 2, "packing", "web"),
    )
    specs: Dict[str, Any] = {}
    for interval_s in (100e-6, 1e-3):
        config = RunConfig(
            duration_s=0.05, seed=2024, sim_mode="flow",
            flow_interval_s=interval_s,
        )
        for kind, servers, policy, trace in cells:
            label = f"{kind} x{servers}/{policy}/{trace}@{interval_s * 1e6:g}us"
            specs[label] = JobSpec.rack(
                kind, "nat", trace, config, servers=servers, policy=policy
            )
    return specs


def payload_sha256(spec: Any) -> str:
    """SHA-256 of one job's canonical result payload."""
    from repro.runner.executor import execute_job

    blob = json.dumps(execute_job(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def bench_rack() -> Dict[str, Any]:
    """Result identity of the fixed rack smoke cell (untraced runs must
    stay bit-identical across seeds/platforms, like fig5)."""
    spec = rack_smoke_spec()
    return {
        "payload_sha256": payload_sha256(spec),
        "spec_hash": spec.content_hash(),
    }


def fig5_smoke_spec():
    """The fixed Fig. 5 cell benchmarked end-to-end (SLB, NAT @ 80 Gbps,
    20 Gbps threshold, 4 cores, 0.05 simulated seconds, seed 2024)."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    config = RunConfig(duration_s=0.05, seed=2024)
    return JobSpec.at_rate(
        "slb", "nat", 80.0, config, fwd_threshold_gbps=20.0, slb_cores=4
    )


def bench_fig5(repeats: int = 3) -> Dict[str, Any]:
    """Wall-clock + result identity of the fixed fig5 smoke cell."""
    # build the spec before touching the executor: repro.exp must load
    # ahead of repro.runner or their circular import trips
    spec = fig5_smoke_spec()
    from repro.runner.executor import execute_job
    best_wall = float("inf")
    payload = None
    for _ in range(repeats):
        t0 = perf_counter()
        payload = execute_job(spec)
        best_wall = min(best_wall, perf_counter() - t0)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "wall_s": best_wall,
        "payload_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "spec_hash": spec.content_hash(),
    }


def bench_flow(repeats: int = 2) -> Dict[str, Any]:
    """Flow-mode fast-path headroom on the fixed fig5 smoke cell.

    Runs the same offered load (SLB, NAT @ 80 Gbps, 0.05 s, seed 2024)
    through both simulation modes and reports, per mode, the simulator
    event count and wall clock.  ``event_headroom_x`` — simulated wire
    packets per simulator event in flow mode over the same ratio in
    packet mode — is the number the ``validate-flow`` gate requires to
    stay ≥ 20: it measures how much more offered load the flow fast
    path carries per unit of event-loop work.
    """
    from dataclasses import replace

    from repro.exp.server import RunConfig, build_system
    from repro.flow.source import ConstantRateSource
    from repro.flow.system import build_flow_system
    from repro.net.traffic import ConstantRateGenerator

    rate_gbps, duration_s = 80.0, 0.05
    kwargs = dict(fwd_threshold_gbps=20.0, slb_cores=4)
    config = RunConfig(duration_s=duration_s, seed=2024)
    offered_packets = rate_gbps * 1e9 * duration_s / (config.packet_bytes * 8)

    packet_events, best_packet_wall = 0, float("inf")
    flow_events, best_flow_wall = 0, float("inf")
    for _ in range(repeats):
        system = build_system("slb", "nat", config, **kwargs)
        generator = ConstantRateGenerator(
            system.plan, config.spec(rate_gbps), system.rng, rate_gbps
        )
        t0 = perf_counter()
        system.run(generator, duration_s)
        best_packet_wall = min(best_packet_wall, perf_counter() - t0)
        packet_events = system.sim.events_processed

        flow_config = replace(config, sim_mode="flow")
        flow_system = build_flow_system("slb", "nat", flow_config, **kwargs)
        t0 = perf_counter()
        flow_system.run(
            ConstantRateSource(rate_gbps),
            duration_s,
            train_multiplicity=flow_config.spec(rate_gbps).batch,
        )
        best_flow_wall = min(best_flow_wall, perf_counter() - t0)
        flow_events = flow_system.sim.events_processed

    return {
        "offered_packets": offered_packets,
        "packet_events": packet_events,
        "packet_wall_s": best_packet_wall,
        "flow_events": flow_events,
        "flow_wall_s": best_flow_wall,
        "flow_events_per_s": flow_events / best_flow_wall,
        "event_headroom_x": (offered_packets / flow_events)
        / (offered_packets / packet_events),
        "wall_speedup_x": best_packet_wall / best_flow_wall,
    }


def fabric_smoke_config():
    """The fixed fabric cell benchmarked for identity (2 HAL racks of 2
    servers, packing dispatch, 24 h 'mix' diurnal curve over 0.2 s,
    seed 2024, in-process sharding)."""
    from repro.fabric.system import FabricConfig

    return FabricConfig(
        racks=2,
        servers=2,
        duration_s=0.2,
        epoch_s=0.02,
        flow_interval_s=1e-3,
        seed=2024,
    )


def bench_fabric(repeats: int = 2) -> Dict[str, Any]:
    """Fabric shard kernel throughput + fabric-cell result identity.

    ``fabric_rack_intervals_per_s`` is the rate at which one rack shard
    consumes flow intervals through the epoch-barrier protocol
    (push/advance/snapshot per epoch) — the per-worker unit cost that
    bounds how fast a sharded fabric can advance.
    """
    import json as _json

    # import order: exp must load before runner (see bench_fig5)
    import repro.exp  # noqa: F401
    from repro.fabric.shard import RackShardSpec, build_rack_shard
    from repro.fabric.system import run_fabric

    epochs = 50
    best = 0.0
    for _ in range(repeats):
        spec = RackShardSpec(
            index=0,
            member_kind="hal",
            function="nat",
            servers=2,
            policy="packing",
            seed=2024,
            flow_interval_s=1e-3,
            epoch_s=0.02,
            epochs=epochs,
            packet_bytes=1500,
            train_multiplicity=8,
        )
        shard = build_rack_shard(spec)
        t0 = perf_counter()
        for _epoch in range(epochs):
            shard.step(40.0)
        wall = perf_counter() - t0
        shard.finish(40.0)
        best = max(best, epochs * spec.intervals_per_epoch / wall)

    payload = run_fabric(fabric_smoke_config(), shard_jobs=1).to_dict()
    blob = _json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "fabric_rack_intervals_per_s": best,
        "payload_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def run_bench(scale: float = 1.0) -> Dict[str, Any]:
    """Run all benchmarks; ``scale`` shrinks/grows the workload sizes
    (CI smoke runs use ``scale < 1`` — regression gating should compare
    like-for-like scales only)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    kernel_events = max(1_000, int(200_000 * scale))
    datapath_cycles = max(1_000, int(50_000 * scale))
    fig5 = bench_fig5()
    rack = bench_rack()
    flow = bench_flow()
    fabric = bench_fabric()
    return {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "python": platform.python_version(),
        "metrics": {
            "kernel_events_per_s": bench_kernel(kernel_events),
            "datapath_packets_per_s": bench_datapath(datapath_cycles),
            "rack_dispatch_packets_per_s": bench_rack_dispatch(datapath_cycles),
            "fig5_cell_wall_s": fig5["wall_s"],
            "flow_events_per_s": flow["flow_events_per_s"],
            "fabric_rack_intervals_per_s": fabric[
                "fabric_rack_intervals_per_s"
            ],
        },
        "flow": {
            "event_headroom_x": flow["event_headroom_x"],
            "wall_speedup_x": flow["wall_speedup_x"],
        },
        "identity": {
            "fig5_payload_sha256": fig5["payload_sha256"],
            "fig5_spec_hash": fig5["spec_hash"],
            "rack_payload_sha256": rack["payload_sha256"],
            "rack_spec_hash": rack["spec_hash"],
            "fabric_payload_sha256": fabric["payload_sha256"],
        },
    }


def format_results(results: Dict[str, Any]) -> str:
    metrics = results["metrics"]
    identity = results["identity"]
    lines = [
        "hot-path benchmarks (scale %g)" % results["scale"],
        f"  kernel     {metrics['kernel_events_per_s']:12,.0f} events/s",
        f"  datapath   {metrics['datapath_packets_per_s']:12,.0f} packets/s",
        f"  rack disp  {metrics['rack_dispatch_packets_per_s']:12,.0f} packets/s",
        f"  fig5 cell  {metrics['fig5_cell_wall_s']:12.3f} s wall",
        f"  flow tick  {metrics['flow_events_per_s']:12,.0f} events/s "
        f"({results['flow']['event_headroom_x']:.0f}x event headroom)",
        f"  fabric     {metrics['fabric_rack_intervals_per_s']:12,.0f} "
        "rack-intervals/s",
        f"  fig5 payload sha256 {identity['fig5_payload_sha256'][:16]}…",
        f"  fig5 cache key      {identity['fig5_spec_hash'][:16]}…",
        f"  rack payload sha256 {identity['rack_payload_sha256'][:16]}…",
        f"  rack cache key      {identity['rack_spec_hash'][:16]}…",
    ]
    if "fabric_payload_sha256" in identity:
        lines.append(
            f"  fabric payload sha256 {identity['fabric_payload_sha256'][:16]}…"
        )
    return "\n".join(lines)


def write_results(results: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: the committed ratchet file the exact-floor warning compares against
DEFAULT_BASELINE_PATH = "benchmarks/baseline.json"


def exact_floor_warnings(
    metrics: Dict[str, float], baseline_path: str = DEFAULT_BASELINE_PATH
) -> list:
    """Warn when a freshly measured metric *exactly* equals its committed
    ratchet value.  Timings are continuous, so a bit-exact match is
    overwhelmingly a hand-edited (or copy-pasted) baseline, not a
    measurement — the ``flow_events_per_s == 16000.0`` bug class."""
    import os

    if not os.path.exists(baseline_path):
        return []
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    warnings = []
    for name, base_value in baseline.get("metrics", {}).items():
        value = metrics.get(name)
        if value is not None and value == base_value:
            warnings.append(
                f"WARNING: {name} = {value!r} matches the committed ratchet "
                "value bit-exactly — measured timings are continuous, so "
                "this baseline was almost certainly never measured; "
                "re-record it from a real run"
            )
    return warnings


def run_and_report(bench_json: Optional[str] = None, scale: float = 1.0) -> Dict[str, Any]:
    """CLI helper: run, print the summary, optionally write the JSON."""
    results = run_bench(scale=scale)
    print(format_results(results))
    for warning in exact_floor_warnings(results["metrics"]):
        print(warning)
    if bench_json:
        from repro.obs.log import get_logger

        write_results(results, bench_json)
        get_logger("bench").info("results_written", path=bench_json)
    return results
