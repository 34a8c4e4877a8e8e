"""The pinned identity cells: fixed runs whose payload sha256 must not move.

Each cell is a small, fixed simulation: the Fig. 5 packet cell, a HAL
KVS packet cell, the 2-server packet rack, the 2x2 fabric, six
flow-mode racks and five single-server flow-mode runs.  Their result-payload SHA-256s are committed under
``identity`` in ``benchmarks/baseline.json``; a change that alters
simulated results shows up as a moved pin.  :func:`pinned_cells` is the
one table of cells; ``benchmarks/check_identity.py``, ``repro
validate-flow`` and the tier-1 suite all read the pins through it.

Speed is measured elsewhere, by the end-to-end benchmark under
``benchmarks/e2e``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, NamedTuple, Tuple


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


def flow_server_smoke_specs() -> Dict[str, Any]:
    """The pinned single-server flow-mode cells (100 µs interval, 0.05
    simulated s, seed 2024): HAL, SLB, host-side SLB and a platform kind
    at constant rate, plus HAL on the web trace; keyed by the label
    ``baseline.json`` pins their payload under."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    config = RunConfig(duration_s=0.05, seed=2024, sim_mode="flow")
    return {
        "hal nat@80": JobSpec.at_rate("hal", "nat", 80.0, config),
        "slb nat@80": JobSpec.at_rate(
            "slb", "nat", 80.0, config, fwd_threshold_gbps=20.0, slb_cores=4
        ),
        "host-slb nat@40": JobSpec.at_rate("host-slb", "nat", 40.0, config),
        "bf3 nat@20": JobSpec.at_rate("bf3", "nat", 20.0, config),
        "hal nat/web": JobSpec.for_trace("hal", "nat", "web", config),
    }


def payload_sha256(spec: Any) -> str:
    """SHA-256 of one job's canonical result payload."""
    from repro.runner.executor import execute_job

    blob = json.dumps(execute_job(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fig5_smoke_spec():
    """The fixed Fig. 5 cell benchmarked end-to-end (SLB, NAT @ 80 Gbps,
    20 Gbps threshold, 4 cores, 0.05 simulated seconds, seed 2024)."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    config = RunConfig(duration_s=0.05, seed=2024)
    return JobSpec.at_rate(
        "slb", "nat", 80.0, config, fwd_threshold_gbps=20.0, slb_cores=4
    )


def kvs_smoke_spec():
    """The fixed HAL KVS packet cell (stateful KVS @ 6 Gbps, one wire
    packet per event, 0.02 simulated s, seed 2024): the pinned cell that
    reaches coherence stalls, pipelined overload delivery and host
    sleep/wake."""
    from repro.exp.server import RunConfig
    from repro.runner.spec import JobSpec

    config = RunConfig(duration_s=0.02, batch=1, seed=2024)
    return JobSpec.at_rate("hal", "kvs", 6.0, config)


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


def fabric_payload_sha256() -> str:
    """SHA-256 of the fabric smoke cell's canonical result payload."""
    from repro.fabric.system import run_fabric

    payload = run_fabric(fabric_smoke_config(), shard_jobs=1).to_dict()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PinnedCell(NamedTuple):
    """One pinned cell: its label, the path of its pin under
    ``baseline.json["identity"]`` and a thunk that computes the sha."""

    label: str
    key: Tuple[str, ...]
    sha256: Callable[[], str]


def pinned_cells() -> List[PinnedCell]:
    """Every cell whose payload sha256 ``baseline.json`` pins."""
    cells = [
        PinnedCell(
            "fig5", ("fig5_payload_sha256",),
            lambda: payload_sha256(fig5_smoke_spec()),
        ),
        PinnedCell(
            "rack", ("rack_payload_sha256",),
            lambda: payload_sha256(rack_smoke_spec()),
        ),
        PinnedCell(
            "hal kvs b1", ("kvs_payload_sha256",),
            lambda: payload_sha256(kvs_smoke_spec()),
        ),
        PinnedCell("fabric", ("fabric_payload_sha256",), fabric_payload_sha256),
    ]
    for label, spec in flow_rack_smoke_specs().items():
        cells.append(PinnedCell(
            f"flow rack {label}", ("flow_rack_payload_sha256", label),
            lambda spec=spec: payload_sha256(spec),
        ))
    for label, spec in flow_server_smoke_specs().items():
        cells.append(PinnedCell(
            f"flow server {label}", ("flow_server_payload_sha256", label),
            lambda spec=spec: payload_sha256(spec),
        ))
    return cells


def flatten_pins(
    identity: Dict[str, Any], prefix: Tuple[str, ...] = ()
) -> Dict[Tuple[str, ...], str]:
    """``baseline.json["identity"]`` as a flat map of key path → sha."""
    pins: Dict[Tuple[str, ...], str] = {}
    for name, value in identity.items():
        if isinstance(value, dict):
            pins.update(flatten_pins(value, prefix + (name,)))
        else:
            pins[prefix + (name,)] = value
    return pins
