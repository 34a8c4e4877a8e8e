#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (a parent and a change).

Run interleaved pairs of two checkouts, alternating which side goes first
and moving to a new seed each pair::

    python3 benchmarks/e2e/compare.py pairs PARENT_ROOT CHANGE_ROOT \\
        --out DIR [--pairs 10]

Pair ``i`` uses seed ``i + 1`` and runs every workload of
``BENCHMARK.json`` for its ``run_seconds``.

then judge them (``pairs`` does this itself when it finishes)::

    python3 benchmarks/e2e/compare.py report DIR/parent DIR/change [--json FILE]

or summarize one set of runs as a point of the benchmark trajectory::

    python3 benchmarks/e2e/compare.py summary DIR --commit SHA --json results/BENCH_<n>.json

``report`` reads ``run.py --out`` records (single-workload or all-workload
files), pairs them by workload and seed, and for every workload and
end-to-end metric prints both sides' median and quartiles, the share of
pairs the change won (ties count for neither), the median gap, and a
verdict against the metric's allowance: its bound from ``BENCHMARK.json``
times the parent's median, plus 20 ms for a time whose parent median is
under 100 ms:

* ``improved`` - at least 10 pairs, the change won at least 9 in 10, and
  the medians differ by more than the parent's interquartile range;
* ``unresolved`` - the parent's interquartile range exceeds the allowance;
* ``regressed`` - the change's median is worse by more than the allowance;
* ``within bound`` - otherwise.

It also flags any workload whose payload sha256 differs between the sides
(a speed-only change must not move one) and any rise in the share of
failed operations.  Exit status: 1 on a regression, a payload change or
more failures; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
RUN_PY = Path("benchmarks") / "e2e" / "run.py"

#: a gain needs this many pairs, this share of them won
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: seed of the first pair
FIRST_SEED = 1
#: times (unit ``s``) whose parent median is under SMALL_S may also
#: worsen by SLACK_S: a relative bound on a sub-millisecond setup is
#: below the clock noise of one process
SMALL_S = 0.1
SLACK_S = 0.02


def load_records(directory: Path, trace: int = 0) -> List[Dict[str, Any]]:
    """Single-workload records with this ``trace`` flag from every JSON
    file under ``directory`` (all-workload files are split into runs)."""
    records: List[Dict[str, Any]] = []
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        runs = data["runs"] if "runs" in data else [data]
        records.extend(run for run in runs if run.get("trace", 0) == trace)
    return records


def _pair(
    parent: List[Dict[str, Any]], change: List[Dict[str, Any]]
) -> Dict[str, List[Tuple[Dict[str, Any], Dict[str, Any]]]]:
    """Pairs per workload, matched on seed and then on order."""
    def keyed(records: List[Dict[str, Any]]) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
        seen: Dict[Tuple[str, int], int] = {}
        out = {}
        for record in records:
            base = (record["workload"], record["seed"])
            seen[base] = seen.get(base, 0) + 1
            out[base + (seen[base],)] = record
        return out

    left, right = keyed(parent), keyed(change)
    pairs: Dict[str, List[Tuple[Dict[str, Any], Dict[str, Any]]]] = {}
    for key in sorted(set(left) & set(right)):
        pairs.setdefault(key[0], []).append((left[key], right[key]))
    return pairs


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(
    parent: List[float], change: List[float], better: str, bound: float, unit: str = ""
) -> Dict[str, Any]:
    """The verdict for one metric over paired runs (same order)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_q1, c_median, c_q3 = _quartiles(change)
    worse = sign * (c_median - p_median)
    allowance = bound * p_median
    if unit == "s" and p_median < SMALL_S:
        allowance += SLACK_S
    pairs = len(parent)
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and worse < 0
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        verdict = "improved"
    elif p_q3 - p_q1 > allowance:
        verdict = "unresolved"
    elif worse > allowance:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {
        "pairs": pairs,
        "parent": {"q1": p_q1, "median": p_median, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_median, "q3": c_q3},
        "win_frac": wins / pairs,
        "worse_frac": worse / p_median,
        "parent_spread": (p_q3 - p_q1) / p_median,
        "bound": bound,
        "allowance": allowance,
        "verdict": verdict,
    }


def _fail_frac(records: List[Dict[str, Any]]) -> float:
    attempted = sum(record.get("attempted", 0) for record in records)
    failed = sum(record.get("failed", 0) for record in records)
    return failed / attempted if attempted else 1.0


def report(
    parent_dir: Path, change_dir: Path, benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    pairs = _pair(load_records(parent_dir), load_records(change_dir))
    rows = []
    flags = []
    for workload, matched in sorted(pairs.items()):
        parents = [p for p, _ in matched]
        changes = [c for _, c in matched]
        for name, entry in metrics.items():
            present = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in matched
                if name in p.get("metrics", {}) and name in c.get("metrics", {})
            ]
            if not present:
                continue
            row = judge(
                [p for p, _ in present], [c for _, c in present],
                entry["better"], entry["bound"], entry["unit"],
            )
            row.update({"workload": workload, "metric": name, "unit": entry["unit"]})
            rows.append(row)
        moved = sorted({
            (p["seed"], p.get("payload_sha256"), c.get("payload_sha256"))
            for p, c in matched
            if p.get("payload_sha256") != c.get("payload_sha256")
        })
        for seed, before, after in moved:
            flags.append(f"{workload}: payload sha256 moved at seed {seed}: {before} -> {after}")
        before, after = _fail_frac(parents), _fail_frac(changes)
        if after > before:
            flags.append(f"{workload}: fail_frac rose from {before:.3f} to {after:.3f}")
    return {"rows": rows, "flags": flags}


def format_report(result: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':14} {'metric':15} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>5} {'gap':>7} {'bound':>6}  verdict"
    ]
    for row in result["rows"]:
        p, c = row["parent"], row["change"]
        lines.append(
            f"{row['workload']:14} {row['metric']:15} "
            f"{p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(66)
            + f" {c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35)
            + f" {row['win_frac']:5.2f} {row['worse_frac']:+7.1%} {row['bound']:6.0%}"
            f"  {row['verdict']} ({row['pairs']} pairs)"
        )
    for flag in result["flags"]:
        lines.append(f"FLAG {flag}")
    return "\n".join(lines)


def summarize(
    directory: Path, benchmark: Dict[str, Any], commit: Optional[str] = None
) -> Dict[str, Any]:
    """One point of the benchmark trajectory, from one set of runs.

    Per workload: each end-to-end metric's values over the untraced runs
    with their median, quartiles and spread (interquartile range over
    median), the payload sha256 of every seed, the operations attempted
    and failed, and the per-layer metrics of the first traced run.

    ``ablation`` holds the same statistics for simpler estimators taken
    from the same repeats, not rescaled for host speed: ``best_of_r_s``
    (the fastest repeat), ``wall_median_s`` (the median repeat) and
    ``setup_median_s`` (the median setup of the timed repeats)."""
    workloads: Dict[str, Dict[str, Any]] = {}
    untraced = load_records(directory)
    for record in untraced:
        entry = workloads.setdefault(record["workload"], {
            "runs": 0, "attempted": 0, "failed": 0,
            "payload_sha256": {}, "end_to_end": {}, "ablation": {},
        })
        entry["runs"] += 1
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        entry["payload_sha256"][str(record["seed"])] = record["payload_sha256"]
        for name, metric in record["metrics"].items():
            entry["end_to_end"].setdefault(
                name, {"unit": metric["unit"], "values": []}
            )["values"].append(metric["value"])
        for name, value in (
            ("best_of_r_s", min(record["repeats"]["wall_s"])),
            ("wall_median_s", record["values"]["raw_wall_median_s"]),
            ("setup_median_s", record["values"]["raw_setup_median_s"]),
        ):
            entry["ablation"].setdefault(name, {"unit": "s", "values": []})["values"].append(value)
    for entry in workloads.values():
        for metric in list(entry["end_to_end"].values()) + list(entry["ablation"].values()):
            q1, median, q3 = _quartiles(metric["values"])
            metric.update({"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median})
    for record in load_records(directory, trace=1):
        entry = workloads.get(record["workload"])
        if entry is not None and "per_layer" not in entry:
            entry["per_layer_seed"] = record["seed"]
            entry["per_layer"] = {
                name: metric["value"] for name, metric in record["metrics"].items()
            }
    return {
        "commit": commit,
        "bounds": {m["name"]: m["bound"] for m in benchmark["end_to_end"]},
        "run_seconds": benchmark["run_seconds"],
        "environment": untraced[0].get("environment") if untraced else None,
        "workloads": workloads,
    }


def _exit_code(result: Dict[str, Any]) -> int:
    regressed = any(row["verdict"] == "regressed" for row in result["rows"])
    return 1 if regressed or result["flags"] else 0


def run_pairs(
    parent_root: Path, change_root: Path, out: Path, pairs: int, benchmark: Dict[str, Any]
) -> None:
    """Alternate the two checkouts, one seed per pair, every workload."""
    sides = [("parent", parent_root), ("change", change_root)]
    for side, _root in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for index in range(pairs):
        seed = FIRST_SEED + index
        order = sides if index % 2 == 0 else sides[::-1]
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            for side, root in order:
                record = out / side / f"{workload}-{seed}.json"
                command = [
                    sys.executable, str(RUN_PY), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                    "--trace", "0", "--out", str(record),
                ]
                done = subprocess.run(command, cwd=root, stdout=subprocess.DEVNULL)
                print(f"pair {index + 1}/{pairs} {workload} {side}: exit {done.returncode}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    judge_cmd = commands.add_parser("report", help="judge two directories of records")
    judge_cmd.add_argument("parent", type=Path)
    judge_cmd.add_argument("change", type=Path)
    summary_cmd = commands.add_parser("summary", help="summarize one set of runs")
    summary_cmd.add_argument("runs", type=Path)
    summary_cmd.add_argument("--commit", help="the commit the runs measured")
    run_cmd = commands.add_parser("pairs", help="run interleaved pairs, then judge")
    run_cmd.add_argument("parent_root", type=Path)
    run_cmd.add_argument("change_root", type=Path)
    run_cmd.add_argument("--out", type=Path, required=True)
    run_cmd.add_argument("--pairs", type=int, default=MIN_PAIRS)
    for sub in (judge_cmd, summary_cmd, run_cmd):
        sub.add_argument("--json", type=Path, help="also write the result here")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    if args.command == "summary":
        summary = summarize(args.runs, benchmark, args.commit)
        for workload, entry in sorted(summary["workloads"].items()):
            for name, metric in {**entry["end_to_end"], **entry["ablation"]}.items():
                print(
                    f"{workload:14} {name:15} median {metric['median']:.6g} {metric['unit']}"
                    f"  spread {metric['spread']:.3f}  ({len(metric['values'])} runs)"
                )
        if args.json:
            args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return 0
    if args.command == "pairs":
        if args.pairs < 1:
            parser.error("--pairs must be positive")
        run_pairs(args.parent_root, args.change_root, args.out, args.pairs, benchmark)
        parent_dir, change_dir = args.out / "parent", args.out / "change"
    else:
        parent_dir, change_dir = args.parent, args.change
    result = report(parent_dir, change_dir, benchmark)
    print(format_report(result))
    if args.json:
        args.json.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return _exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
