"""The six end-to-end workloads of the simulator benchmark.

Each workload builds one canonical cell of the reproduction through the
same public entry points the experiments use, from a seed the caller
passes, and returns the simulated result as a JSON-safe *payload*.  The
payload is a correctness output, never a performance metric: a speed-only
change must leave its sha256 unchanged.

A repeat is ``setup`` (timed as ``setup_s``) then ``run`` (timed as
``wall_s``).  When timed, each repeat, and each batch of setups timed
for ``setup_s``, starts from a collected heap, so the cyclic garbage
collector's passes fall at the same points every time.  Simulated
lengths are chosen so one repeat takes a fraction of a second of host
time (the fabric one to two seconds), which lets a run of
``run_seconds`` hold many repeats.  ``scale`` shrinks every simulated
duration; it exists so the harness tests can run the real code paths in
seconds.

Importing this module imports the simulator (``repro``), so the caller puts
``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.exp  # noqa: F401  (import order: exp must load before runner)
from repro.cluster.system import ClusterSystem, scaled_trace
from repro.exp.server import RunConfig, build_system
from repro.fabric.shard import SHARD_FACTORY
from repro.fabric.system import FabricConfig, run_fabric
from repro.net.traffic import (
    LINE_RATE_GBPS,
    ConstantRateGenerator,
    LogNormalTraceGenerator,
)
from repro.runner.sharded import ShardedRunner
from repro.serve import checkpoint as serve_checkpoint
from repro.serve import snapshot as serve_snapshot
from repro.serve.checkpoint import EXPERIMENT_KIND, FabricJobParams, pause_at_epoch
from repro.serve.state import SHARD_STATE
from repro.sim.metrics import RunMetrics

Outcome = Tuple[Dict[str, Any], float, bool]


def payload_sha256(payload: Dict[str, Any]) -> str:
    """The identity hash of a payload (same canonical form as
    ``benchmarks/check_identity.py``)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Sample:
    """One timed repeat: host times plus the simulated outcome."""

    setup_s: float
    wall_s: float
    payload: Dict[str, Any]
    #: simulated wire packets offered during the run
    offered_packets: float
    #: delivered + dropped never exceeds generated
    conserved: bool
    #: workload-specific host-time side numbers (fabric-resume only)
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``raw`` and ``scaled`` host seconds per phase, when a
    #: :class:`timing.ScaledClock` was passed (calibration rounds excluded)
    clocked: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: rescaled host seconds per setup of the batch made before this
    #: repeat (see :attr:`Workload.setup_batch`)
    setup_batch_s: Optional[float] = None


def _conserved(metrics: RunMetrics, slack: int = 0) -> bool:
    """Delivered plus dropped never exceeds generated (flow mode rounds
    each rack's fluid totals, so fabric checks allow ``slack`` packets)."""
    return (
        metrics.delivered_packets + metrics.dropped_packets
        <= metrics.generated_packets + slack
    )


def _raw(
    clocked: Dict[str, Dict[str, float]], setup_s: float, wall_s: float
) -> Tuple[float, float]:
    """Raw setup and run seconds: the clock's, which leave its calibration
    rounds out, when a clock ran; else the caller's."""
    raw = clocked.get("raw", {})
    return raw.get("setup", setup_s), raw.get("run", wall_s)


class _NoClock:
    def phase(self, name: str) -> None:
        pass

    def stop(self) -> Dict[str, Dict[str, float]]:
        return {}


class Workload:
    """One benchmark workload; subclasses define ``setup`` and ``run``."""

    name = ""
    why = ""
    #: processes busy at once while the workload runs
    processes = 1
    #: setups a timed repeat makes back to back, and closes unused, before
    #: the setup it runs; their mean is the repeat's setup time.  Timed
    #: alone, right after a calibration round, the sub-millisecond setups
    #: of ``hal-nat-80g`` gave per-run medians that spread by 0.43
    #: (interquartile range over median) across eight seeds; batches of 8
    #: by 0.05
    setup_batch = 8

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def reference_sha(self, seed: int) -> Optional[str]:
        """Payload sha of an untimed reference run each repeat must equal,
        or None when the first repeat is the only reference."""
        return None

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Outcome:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what ``setup`` opened (worker processes, files)."""

    def repeat(self, seed: int, clock: Any = None) -> Sample:
        batch_s = None
        if clock is not None:
            batch_s = self._setup_batch(seed, clock)
            gc.collect()
        clock = clock or _NoClock()
        clock.phase("setup")
        t0 = perf_counter()
        state = self.setup(seed)
        try:
            t1 = perf_counter()
            clock.phase("run")
            payload, offered, conserved = self.run(state)
            clock.phase("close")
            t2 = perf_counter()
        finally:
            self.close(state)
        clocked = clock.stop()
        setup_s, wall_s = _raw(clocked, t1 - t0, t2 - t1)
        return Sample(
            setup_s, wall_s, payload, offered, conserved,
            clocked=clocked, setup_batch_s=batch_s,
        )

    def _setup_batch(self, seed: int, clock: Any) -> Optional[float]:
        """Rescaled seconds per setup of ``setup_batch`` setups made back
        to back (each closed unused, the closing not timed) after one
        calibration round; None when ``setup_batch`` is 0."""
        if not self.setup_batch:
            return None
        gc.collect()
        clock.phase("setup")
        for index in range(self.setup_batch):
            if index:
                clock.phase("setup", calibrate=False)
            state = self.setup(seed)
            clock.phase("close", calibrate=False)
            self.close(state)
        return clock.stop()["scaled"]["setup"] / self.setup_batch


class HalServer(Workload):
    """One HAL server at a constant offered rate, packet mode.

    Flows are drawn from the seeded traffic stream (``flow_mode="random"``),
    so the seed sets which flow, and so which shared-state block, each
    packet touches."""

    def __init__(
        self,
        name: str,
        why: str,
        function: str,
        rate_gbps: float,
        duration_s: float,
        batch: Optional[int],
        scale: float = 1.0,
    ) -> None:
        super().__init__(scale)
        self.name = name
        self.why = why
        self.function = function
        self.rate_gbps = rate_gbps
        self.duration_s = duration_s * scale
        self.batch = batch

    def setup(self, seed: int) -> Any:
        config = RunConfig(duration_s=self.duration_s, batch=self.batch, seed=seed)
        system = build_system("hal", self.function, config)
        spec = dataclasses.replace(config.spec(self.rate_gbps), flow_mode="random")
        generator = ConstantRateGenerator(system.plan, spec, system.rng, self.rate_gbps)
        return system, generator

    def run(self, state: Any) -> Outcome:
        system, generator = state
        metrics = system.run(generator, self.duration_s)
        return metrics.to_dict(), float(metrics.generated_packets), _conserved(metrics)


class Rack(Workload):
    """A packet-mode rack under a Meta trace, built as ``run_rack`` does."""

    name = "rack8-web"
    why = (
        "8 HAL servers, NAT, web trace, packing + autoscaler: low load, so "
        "control-plane timers dominate the events; setup fits the log-normal"
    )
    servers = 8
    trace = "web"
    #: the log-normal fit makes each setup long enough to time alone
    setup_batch = 0

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)
        self.duration_s = 0.2 * scale

    def setup(self, seed: int) -> Any:
        config = RunConfig(duration_s=self.duration_s, seed=seed)
        spec = scaled_trace(self.trace, self.servers)
        cluster = ClusterSystem(
            "hal",
            "nat",
            servers=self.servers,
            seed=seed,
            policy="packing",
            autoscale=True,
        )
        generator = LogNormalTraceGenerator(
            cluster.plan,
            config.spec(spec.average_gbps * 3),
            cluster.rng,
            spec,
            interval_s=config.trace_interval_s,
            line_rate_gbps=LINE_RATE_GBPS * self.servers,
        )
        return cluster, generator

    def run(self, state: Any) -> Outcome:
        cluster, generator = state
        metrics = cluster.run(generator, self.duration_s)
        return metrics.to_dict(), float(metrics.generated_packets), _conserved(metrics)


#: the fabric shape every fabric workload runs: 4 HAL racks of 4 servers,
#: NAT, the 24 h diurnal mix over 1 simulated second (50 epochs of 20 ms
#: over 1 ms flow intervals), packing dispatch and autoscaling
FABRIC_RACKS = 4
FABRIC_SERVERS = 4
FABRIC_DURATION_S = 1.0
PACKET_BITS = 1500 * 8


def _fabric_offered_packets(offered_gbps: float, duration_s: float) -> float:
    return offered_gbps * 1e9 * duration_s / PACKET_BITS


class Fabric(Workload):
    """The fabric in flow mode over a caller-owned sharded runner."""

    def __init__(self, jobs: int, scale: float = 1.0) -> None:
        super().__init__(scale)
        self.jobs = self.processes = jobs
        self.name = f"fabric-k{jobs}"
        self.why = (
            "4x4 HAL fabric, flow mode, in-process: fluid stations, LBP "
            "ticks, autoscaler, fleet balancer and the diurnal log-normal fit"
            if jobs == 1
            else "the fabric-k1 run on 2 worker processes: adds barrier IPC "
            "at every epoch; its payload must equal fabric-k1's"
        )
        self.duration_s = FABRIC_DURATION_S * scale

    def config(self, seed: int) -> FabricConfig:
        return FabricConfig(
            racks=FABRIC_RACKS,
            servers=FABRIC_SERVERS,
            duration_s=self.duration_s,
            seed=seed,
        )

    def reference_sha(self, seed: int) -> Optional[str]:
        if self.jobs == 1:
            return None
        return payload_sha256(run_fabric(self.config(seed), shard_jobs=1).to_dict())

    def setup(self, seed: int) -> Any:
        config = self.config(seed)
        runner = ShardedRunner(config.shard_specs(), SHARD_FACTORY, jobs=self.jobs)
        try:
            runner.describe()
        except BaseException:
            runner.close()
            raise
        return config, runner

    def run(self, state: Any) -> Outcome:
        config, runner = state
        result = run_fabric(config, runner=runner)
        offered = _fabric_offered_packets(
            result.fleet.offered_gbps, config.measured_duration_s
        )
        conserved = _conserved(result.fleet, slack=2 * config.racks)
        return result.to_dict(), offered, conserved

    def close(self, state: Any) -> None:
        state[1].close()


class _ResumeMarks:
    """Host-clock marks at the checkpoint boundaries of ``run_resumable``.

    Patches five attributes with thin recorders: the end of the first
    ``ShardedRunner.describe`` and the start of the first
    ``ShardedRunner.step`` after :meth:`arm` (runner built; runner ready to
    step), ``ShardedRunner.apply(SHARD_STATE)`` plus ``write_checkpoint``
    (together the barrier-to-durable-file time), and the fleet metrics
    each finished system hands to ``add_fabric_row`` (for the conservation
    check).  They read the clock and change no argument or result.
    """

    def __init__(self) -> None:
        self.described: Optional[float] = None
        self.stepped: Optional[float] = None
        self.snapshot_s = 0.0
        self.fleets: List[RunMetrics] = []
        self.on_described: Callable[[], None] = lambda: None
        describe = ShardedRunner.describe
        step = ShardedRunner.step
        apply = ShardedRunner.apply
        add_row = serve_checkpoint.add_fabric_row
        marks = self

        def timed_describe(runner: Any) -> Any:
            facts = describe(runner)
            if marks.described is None:
                marks.described = perf_counter()
                marks.on_described()
            return facts

        def timed_step(runner: Any, inputs: Any) -> Any:
            if marks.stepped is None:
                marks.stepped = perf_counter()
            return step(runner, inputs)

        def timed_apply(runner: Any, func_path: str, inputs: Any = None) -> Any:
            t0 = perf_counter()
            try:
                return apply(runner, func_path, inputs)
            finally:
                if func_path == SHARD_STATE:
                    marks.snapshot_s += perf_counter() - t0

        def timed_write(path: str, kind: str, body: Any) -> str:
            t0 = perf_counter()
            try:
                # looked up per call, so layer tracing installed later
                # still sees the write as a serve.snapshot call
                return serve_snapshot.write_checkpoint(path, kind, body)
            finally:
                marks.snapshot_s += perf_counter() - t0

        def recorded_row(result: Any, cfg: Any, outcome: Any) -> None:
            marks.fleets.append(outcome.fleet)
            add_row(result, cfg, outcome)

        ShardedRunner.describe = timed_describe  # type: ignore[method-assign]
        ShardedRunner.step = timed_step  # type: ignore[method-assign]
        ShardedRunner.apply = timed_apply  # type: ignore[method-assign]
        serve_checkpoint.write_checkpoint = timed_write
        serve_checkpoint.add_fabric_row = recorded_row

    def arm(self, on_described: Callable[[], None]) -> None:
        self.described = self.stepped = None
        self.snapshot_s = 0.0
        self.fleets = []
        self.on_described = on_described


def _reached(mark: Optional[float]) -> float:
    if mark is None:
        raise RuntimeError("the resumable run never reached its first epoch")
    return mark


class FabricResume(Workload):
    """The fabric-k1 shape paused at the middle barrier and resumed.

    ``setup_s`` is the pause leg up to its built runner (as for
    fabric-k1); ``wall_s`` is the rest of the pause leg plus the resume
    leg, from reading the checkpoint to the finished result."""

    name = "fabric-resume"
    why = (
        "the fabric-k1 run paused at the middle barrier, checkpointed to "
        "disk, read back and resumed; its payload must equal an "
        "uninterrupted run's"
    )
    #: its setup runs inside ``run_resumable`` and cannot be made alone
    setup_batch = 0

    def __init__(self, scale: float = 1.0, workdir: str = ".") -> None:
        super().__init__(scale)
        self.duration_s = FABRIC_DURATION_S * scale
        self.params = FabricJobParams(
            racks=FABRIC_RACKS, servers=FABRIC_SERVERS, systems=("hal",)
        )
        self.workdir = workdir
        self._marks: Optional[_ResumeMarks] = None

    def _config(self, seed: int) -> RunConfig:
        return RunConfig(duration_s=self.duration_s, seed=seed)

    def pause_epoch(self) -> int:
        return max(1, FabricConfig(duration_s=self.duration_s).epochs // 2)

    def reference_sha(self, seed: int) -> Optional[str]:
        outcome = serve_checkpoint.run_resumable(self._config(seed), self.params)
        if outcome.result is None:
            raise RuntimeError("the uninterrupted reference run paused")
        return payload_sha256(outcome.result.to_dict())

    def repeat(self, seed: int, clock: Any = None) -> Sample:
        timed = clock is not None
        clock = clock or _NoClock()
        if self._marks is None:
            self._marks = _ResumeMarks()
        marks = self._marks
        config = self._config(seed)
        os.makedirs(self.workdir, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="resume-", dir=self.workdir)
        path = os.path.join(tmpdir, "checkpoint.json")
        try:
            marks.arm(lambda: clock.phase("run"))
            if timed:
                gc.collect()
            clock.phase("setup")
            t0 = perf_counter()
            paused = serve_checkpoint.run_resumable(
                config,
                self.params,
                checkpoint_path=path,
                should_pause=pause_at_epoch(self.pause_epoch()),
            )
            t1 = perf_counter()
            clock.phase("between")
            setup_s = _reached(marks.described) - t0
            checkpoint_s = marks.snapshot_s
            if not paused.paused:
                raise RuntimeError("the run finished without pausing")
            checkpoint_mb = os.path.getsize(path) / 2**20
            marks.arm(lambda: None)
            clock.phase("run")
            t2 = perf_counter()
            body = serve_snapshot.read_checkpoint(path, kind=EXPERIMENT_KIND)
            resumed = serve_checkpoint.run_resumable(
                config, self.params, resume_body=body
            )
            t3 = perf_counter()
            clock.phase("close")
            resume_s = _reached(marks.stepped) - t2
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        if resumed.result is None:
            raise RuntimeError("the resumed run paused again")
        conserved = bool(marks.fleets) and all(
            _conserved(fleet, slack=2 * FABRIC_RACKS) for fleet in marks.fleets
        )
        row = resumed.result.rows[0]
        offered = _fabric_offered_packets(
            float(row["offered_gbps"]),
            FabricConfig(duration_s=self.duration_s).measured_duration_s,
        )
        clocked = clock.stop()
        setup_s, wall_s = _raw(clocked, setup_s, (t1 - t0 - setup_s) + (t3 - t2))
        return Sample(
            setup_s=setup_s,
            wall_s=wall_s,
            payload=resumed.result.to_dict(),
            offered_packets=offered,
            conserved=conserved,
            extra={
                "checkpoint_s": checkpoint_s,
                "resume_s": resume_s,
                "checkpoint_mb": checkpoint_mb,
            },
            clocked=clocked,
        )


def build_workloads(scale: float = 1.0, workdir: str = ".") -> Dict[str, Workload]:
    """The workloads in run order, by name."""
    workloads: List[Workload] = [
        HalServer(
            "hal-nat-80g",
            "one HAL server, NAT at 80 Gbps, 32 wire packets per event: HLB "
            "spills half to the host; the engine service path dominates",
            function="nat",
            rate_gbps=80.0,
            duration_s=0.1,
            batch=None,
            scale=scale,
        ),
        HalServer(
            "hal-kvs-b1",
            "HAL running stateful KVS at 6 Gbps, one wire packet per event: "
            "per-event costs (heap, Packet, gamma draws, coherence) dominate",
            function="kvs",
            rate_gbps=6.0,
            duration_s=0.03,
            batch=1,
            scale=scale,
        ),
        Rack(scale),
        Fabric(1, scale),
        Fabric(2, scale),
        FabricResume(scale, workdir),
    ]
    return {workload.name: workload for workload in workloads}
