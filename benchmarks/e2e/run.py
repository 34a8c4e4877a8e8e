#!/usr/bin/env python3
"""End-to-end host-time benchmark of the HAL simulator.

One workload, one process (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload hal-nat-80g --seed 7 \\
        --seconds 15 --trace 0 [--out FILE]

All six workloads, each in a fresh child interpreter, untraced then
traced, one JSON file for the lot (exit 1 if any check failed, or if a
workload's traced payload differs from its untraced one)::

    python3 benchmarks/e2e/run.py --out FILE [--seed 2024]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  A run
repeats its workload (set up, then run) until ``--seconds`` of
repeats are done, checks every payload, and prints each metric as
``name value unit``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics (host times estimated as ``timing.py`` and
``calibration.py`` describe), ``--trace 1`` the per-layer metrics (see
``layers.py``).  ``--out`` adds every repeat, the quartiles, the payload
sha256 and the layer breakdown.

The simulator is imported from ``src/`` of the checkout this file sits in;
nothing else is read, and only a scratch directory next to this file
(removed afterwards) is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: end-to-end metrics (``--trace 0``): unit of each
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

SCRATCH = HERE / ".scratch"


def _import_simulator() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: simulator sources not found under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _quartiles(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {
        "min": ordered[0], "q1": q1, "median": median, "q3": q3,
        "max": ordered[-1], "n": len(ordered),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Checks:
    """Operations attempted, operations failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {problem}" for problem in problems)

    def raised(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{label}: raised\n{traceback.format_exc()}")


class _Abort(Exception):
    """An operation raised; the run reports what it has and fails."""


class Measurement:
    """One workload's repeats and their checks, in one process.

    Every repeat's payload must hash like the first repeat's, and like the
    workload's reference run when it has one (``fabric-k2`` against an
    in-process run, ``fabric-resume`` against an uninterrupted run)."""

    def __init__(self, workload: Any, seed: int, clock: Any = None) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = clock
        self.checks = Checks()
        self.samples: List[Any] = []
        self.repeat_walls: List[float] = []
        self.sha: Optional[str] = None
        self.reference: Optional[str] = None

    def prepare(self) -> None:
        try:
            self.reference = self.workload.reference_sha(self.seed)
        except Exception:
            self.checks.raised("reference run")
            raise _Abort()

    def repeat(self, label: str) -> Tuple[Any, float]:
        """One checked repeat and its whole host time (setup to close)."""
        from workloads import payload_sha256

        start = perf_counter()
        try:
            sample = self.workload.repeat(self.seed, self.clock)
        except Exception:
            self.checks.raised(label)
            raise _Abort()
        wall = perf_counter() - start
        sha = payload_sha256(sample.payload)
        problems = []
        if self.sha is None:
            self.sha = sha
        elif sha != self.sha:
            problems.append(f"payload sha {sha} differs from the first repeat's {self.sha}")
        if self.reference is not None and sha != self.reference:
            problems.append(f"payload sha {sha} differs from the reference run's {self.reference}")
        if not sample.conserved:
            problems.append("delivered + dropped exceeds generated")
        self.checks.record(label, problems)
        # a kept payload (latency reservoirs) would inflate peak_rss_mb
        # with the number of repeats
        sample.payload = {}
        return sample, wall

    def untraced(self, count: int = 0, seconds: float = 0.0) -> None:
        """``count`` repeats, or repeats until the next would end after
        ``seconds``; always at least one."""
        start = perf_counter()
        while True:
            sample, wall = self.repeat(f"repeat {len(self.samples) + 1}")
            self.samples.append(sample)
            self.repeat_walls.append(wall)
            if count:
                if len(self.samples) >= count:
                    return
            elif perf_counter() - start + wall > seconds:
                return


def _setup(sample: Any) -> Optional[float]:
    """A timed repeat's rescaled setup seconds: per setup of its batch, if
    the workload makes one, else of the setup it ran (None untimed)."""
    if sample.setup_batch_s is not None:
        return sample.setup_batch_s
    return sample.clocked.get("scaled", {}).get("setup")


def end_to_end(measurement: Measurement) -> Dict[str, float]:
    """``wall_s`` and ``setup_s`` are the medians over the repeats of their
    run and setup times, at the nominal host speed (see ``timing.py`` and
    ``calibration.py``)."""
    samples = measurement.samples
    wall = statistics.median(s.clocked["scaled"]["run"] for s in samples)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(_setup(s) for s in samples),
        "peak_rss_mb": _peak_rss_mb(),
        # offered load depends on the seed for the trace-driven cells, so
        # this rate is reported in the record but declared as no metric
        "sim_pkts_per_s": samples[0].offered_packets / wall,
        "raw_wall_median_s": statistics.median(s.wall_s for s in samples),
        "raw_setup_median_s": statistics.median(s.setup_s for s in samples),
        "calibration_s": measurement.clock.calibrator.stats(),
    }


def _extras(samples: List[Any]) -> Dict[str, Dict[str, float]]:
    names = sorted({name for s in samples for name in s.extra})
    return {name: _quartiles([s.extra[name] for s in samples]) for name in names}


def traced(measurement: Measurement, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Two untraced repeats, then traced repeats for ``seconds``."""
    import layers

    measurement.untraced(count=2)
    untraced_wall = min(measurement.repeat_walls)
    tracer = layers.install(extra_modules=("workloads",))
    reports = []
    start = perf_counter()
    while True:
        tracer.reset()
        sample, wall = measurement.repeat(f"traced repeat {len(reports) + 1}")
        report = layers.report(tracer, wall)
        report["checkpoint_bytes"] = sample.extra.get("checkpoint_mb", 0.0) * 2**20
        reports.append(report)
        if perf_counter() - start + wall > seconds:
            break
    merged = layers.median_report(reports)
    merged["trace_overhead_x"] = merged["wall_s"] / untraced_wall
    merged["untraced_wall_s"] = untraced_wall
    return layers.metrics(merged), merged


def measure(
    workload: Any, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run one workload and return the result record (metrics + detail)."""
    import layers

    units = layers.metric_units() if trace else END_TO_END
    record: Dict[str, Any] = {"metrics": {}}
    if trace:
        measurement = Measurement(workload, seed)
    else:
        from calibration import Calibrator
        from timing import ScaledClock

        measurement = Measurement(workload, seed, ScaledClock(Calibrator(workload.processes)))
    try:
        measurement.prepare()
        if trace:
            values, detail = traced(measurement, seconds)
            record["layers"] = detail
        else:
            measurement.untraced(seconds=seconds)
            values = end_to_end(measurement)
        record["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }
        record["values"] = values
    except _Abort:
        pass
    finally:
        if measurement.clock is not None:
            measurement.clock.close()
            measurement.clock.calibrator.close()
    checks = measurement.checks
    samples = measurement.samples
    record.update({
        "correct": not checks.failures and bool(record["metrics"]),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "payload_sha256": measurement.sha,
        "reference_sha256": measurement.reference,
        "repeats": {
            "setup_s": [s.setup_s for s in samples],
            "wall_s": [s.wall_s for s in samples],
            "process_s": measurement.repeat_walls,
            "scaled_setup_s": [_setup(s) for s in samples],
            "scaled_wall_s": [s.clocked.get("scaled", {}).get("run") for s in samples],
        },
        "extra": _extras(samples),
    })
    if samples:
        record["stats"] = {
            "wall_s": _quartiles(record["repeats"]["wall_s"]),
            "setup_s": _quartiles(record["repeats"]["setup_s"]),
        }
    return record


def _environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def _remove_scratch() -> None:
    """Remove the scratch directory unless another run still uses it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def run_one(args: argparse.Namespace, registry: Optional[Callable[..., Dict[str, Any]]] = None) -> int:
    """Measure ``args.workload`` and print the result; returns the exit code."""
    _import_simulator()
    if registry is None:
        from workloads import build_workloads as registry
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        workloads = registry(args.scale, workdir)
        if args.workload not in workloads:
            raise SystemExit(
                f"run.py: unknown workload {args.workload!r}; known: {sorted(workloads)}"
            )
        record = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_scratch()
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "scale": args.scale,
        "environment": _environment(),
    })
    for failure in record["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, separators=(",", ":")))
    return 0 if record["correct"] else 1


def payload_mismatches(runs: List[Dict[str, Any]]) -> List[str]:
    """Workloads whose runs (untraced and traced) report different payload
    sha256s.  The untraced pass's ``Simulator.run`` is cut into chunks
    (``timing.py``) and the traced pass's is not, so this checks the
    chunking against an unchunked run."""
    shas: Dict[str, set] = {}
    for record in runs:
        shas.setdefault(record["workload"], set()).add(record.get("payload_sha256"))
    return [
        f"{name}: untraced and traced payload sha256 differ: {sorted(map(str, found))}"
        for name, found in shas.items()
        if len(found) != 1
    ]


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh child interpreter, untraced then traced."""
    _import_simulator()
    from workloads import build_workloads

    names = list(build_workloads(args.scale, str(SCRATCH)))
    results: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "runs": []}
    ok = True
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="all-", dir=SCRATCH) as tmp:
        for trace in (0, 1):
            for name in names:
                out = os.path.join(tmp, f"{name}-{trace}.json")
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", str(args.scale), "--out", out,
                ]
                started = perf_counter()
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(child.stdout)
                try:
                    record = json.loads(Path(out).read_text())
                except (OSError, ValueError):
                    record = {"workload": name, "trace": trace, "correct": False}
                record["process_s"] = perf_counter() - started
                ok = ok and child.returncode == 0 and bool(record.get("correct"))
                results["runs"].append(record)
    for problem in payload_mismatches(results["runs"]):
        print(f"FAIL {problem}", file=sys.stderr)
        ok = False
    _remove_scratch()
    results["correct"] = ok
    results["environment"] = _environment()
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload in this process")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed JSON record here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration (tests only)")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.workload is None and not args.out:
        parser.error("running every workload needs --out FILE")
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
