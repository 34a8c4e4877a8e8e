#!/usr/bin/env python
"""Payload diff: which cells' simulated results differ between two trees.

Usage: python benchmarks/diff_payloads.py PARENT_ROOT CHANGE_ROOT

Runs one fixed, stratified cell set in each source tree and compares
the result payloads cell by cell:

* single-server flow cells: every flow kind × {nat, kvs} ×
  {5, 40, 80} Gbps × {100 µs, 1 ms} flow interval;
* flow racks (NAT on the web trace, packing) of hal, host and slb
  members at both intervals;
* the 2x2 fabric smoke cell;
* a few packet cells (HAL NAT at 80 Gbps, HAL KVS at batch 1, the
  Fig. 5 SLB cell, host NAT, the 2-server HAL rack).

Each tree runs in its own subprocess with that tree's ``src`` first on
``sys.path``; both run this file's cell table, so only the simulator
differs.  The report lists every cell as identical or moved, with the
per-field delta of each moved cell.  Exit status: 0 when no cell moved,
1 when any did.  A parent tree comes from ``git archive``, e.g.
``mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Tuple

FLOW_KINDS = ("host", "snic", "hal", "slb", "host-slb")
FLOW_FUNCTIONS = ("nat", "kvs")
FLOW_RATES_GBPS = (5.0, 40.0, 80.0)
FLOW_INTERVALS_S = (100e-6, 1e-3)
RACK_KINDS = ("hal", "host", "slb")

#: simulated seconds of the flow cells and the flow racks
FLOW_DURATION_S = 0.05
SEED = 2024

#: per-tree wall-clock limit of the subprocess that runs the cell set
TREE_TIMEOUT_S = 1800


def cells() -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    """The fixed cell set as ``(label, payload thunk)`` pairs; runs
    inside the tree under test, against its ``repro`` package."""
    from repro.exp.server import RunConfig
    from repro.fabric.system import FabricConfig, run_fabric
    from repro.runner.executor import execute_job
    from repro.runner.spec import JobSpec

    table: List[Tuple[str, Callable[[], Dict[str, Any]]]] = []

    def add(label: str, spec: Any) -> None:
        table.append((label, lambda: execute_job(spec)))

    for interval_s in FLOW_INTERVALS_S:
        config = RunConfig(
            duration_s=FLOW_DURATION_S, seed=SEED, sim_mode="flow",
            flow_interval_s=interval_s,
        )
        at = f"{interval_s * 1e6:g}us"
        for kind in FLOW_KINDS:
            for function in FLOW_FUNCTIONS:
                for rate in FLOW_RATES_GBPS:
                    add(
                        f"flow {kind} {function}@{rate:g} {at}",
                        JobSpec.at_rate(kind, function, rate, config),
                    )
        for kind in RACK_KINDS:
            add(
                f"flow rack {kind} x4 nat/web {at}",
                JobSpec.rack(kind, "nat", "web", config, servers=4, policy="packing"),
            )

    fabric = FabricConfig(
        racks=2, servers=2, duration_s=0.2, epoch_s=0.02,
        flow_interval_s=1e-3, seed=SEED,
    )
    table.append(
        ("fabric 2x2", lambda: run_fabric(fabric, shard_jobs=1).to_dict())
    )

    packet = RunConfig(duration_s=0.02, seed=SEED)
    add("packet hal nat@80", JobSpec.at_rate("hal", "nat", 80.0, packet))
    add(
        "packet hal kvs@6 b1",
        JobSpec.at_rate("hal", "kvs", 6.0, RunConfig(duration_s=0.02, batch=1, seed=SEED)),
    )
    add(
        "packet slb nat@80 fig5",
        JobSpec.at_rate(
            "slb", "nat", 80.0, packet, fwd_threshold_gbps=20.0, slb_cores=4
        ),
    )
    add("packet host nat@10", JobSpec.at_rate("host", "nat", 10.0, packet))
    add(
        "packet rack hal x2 nat/web",
        JobSpec.rack(
            "hal", "nat", "web", RunConfig(duration_s=0.05, seed=SEED),
            servers=2, policy="packing",
        ),
    )
    return table


def emit(root: str, out_path: str) -> None:
    """Run the cell set against ``root``'s package; write the payloads."""
    import repro

    src = pathlib.Path(root, "src").resolve()
    if pathlib.Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(
            f"imported repro from {repro.__file__}, not from {src}"
        )
    payloads = {label: thunk() for label, thunk in cells()}
    with open(out_path, "w") as fh:
        json.dump(payloads, fh, sort_keys=True)


def run_trees(roots: List[str], scratch: str) -> List[Dict[str, Any]]:
    """Run the cell set in every tree at once, one subprocess each."""
    procs = []
    for index, root in enumerate(roots):
        out_path = os.path.join(scratch, f"tree{index}.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        procs.append((
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--emit", root, out_path],
                cwd=root, env=env,
            ),
            root,
            out_path,
        ))
    failed = [root for proc, root, _ in procs if proc.wait(timeout=TREE_TIMEOUT_S)]
    if failed:
        raise SystemExit(f"the cell set failed in {', '.join(failed)}")
    payloads = []
    for _, _, out_path in procs:
        with open(out_path) as fh:
            payloads.append(json.load(fh))
    return payloads


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def flatten(value: Any, path: str = "") -> Dict[str, Any]:
    """Nested dicts (and lists of dicts) as ``dotted.path → leaf``; a
    list of scalars, such as a latency reservoir, stays one leaf."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, value[key]) for key in sorted(value)]
    elif isinstance(value, list) and value and all(
        isinstance(item, dict) for item in value
    ):
        items = [(f"{path}[{index}]", item) for index, item in enumerate(value)]
    else:
        return {path: value}
    flat: Dict[str, Any] = {}
    for key, item in items:
        flat.update(flatten(item, key))
    return flat


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_delta(parent: Any, change: Any) -> str:
    """One moved field, parent → change."""
    if _is_number(parent) and _is_number(change):
        delta = change - parent
        rel = f", {100 * delta / parent:+.3g}%" if parent else ""
        return f"{parent!r} -> {change!r} ({delta:+.6g}{rel})"
    if isinstance(parent, list) and isinstance(change, list):
        differ = sum(a != b for a, b in zip(parent, change))
        differ += abs(len(parent) - len(change))
        text = f"{len(parent)} -> {len(change)} values, {differ} differ"
        if all(map(_is_number, parent + change)) and parent and change:
            text += (
                f"; mean {sum(parent) / len(parent):.6g}"
                f" -> {sum(change) / len(change):.6g}"
            )
        return text
    return f"{parent!r} -> {change!r}"


def moved_fields(parent: Any, change: Any) -> List[str]:
    old, new = flatten(parent), flatten(change)
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"{key}: only in parent")
        elif key not in old:
            lines.append(f"{key}: only in change")
        elif canonical(old[key]) != canonical(new[key]):
            lines.append(f"{key}: {field_delta(old[key], new[key])}")
    return lines


def report(parent: Dict[str, Any], change: Dict[str, Any]) -> int:
    """Print every cell's verdict; returns the number of moved cells."""
    moved = 0
    for label in parent:
        if canonical(parent[label]) == canonical(change.get(label)):
            print(f"  same   {label}")
            continue
        moved += 1
        print(f"  MOVED  {label}")
        for line in moved_fields(parent[label], change.get(label)):
            print(f"           {line}")
    print(f"{len(parent)} cells: {len(parent) - moved} identical, {moved} moved")
    return moved


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent_root", nargs="?")
    parser.add_argument("change_root", nargs="?")
    parser.add_argument("--emit", nargs=2, metavar=("ROOT", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(*args.emit)
        return 0
    if not (args.parent_root and args.change_root):
        parser.error("PARENT_ROOT and CHANGE_ROOT are required")
    roots = [os.path.abspath(args.parent_root), os.path.abspath(args.change_root)]
    with tempfile.TemporaryDirectory(prefix="diff-payloads-") as scratch:
        parent, change = run_trees(roots, scratch)
    print(f"parent {roots[0]}\nchange {roots[1]}")
    return 1 if report(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
