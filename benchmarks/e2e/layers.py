"""Per-layer host-time attribution, taken from outside the simulator.

Nothing under ``src/`` knows about this module.  :func:`install` patches,
in the running process only, the public entry points of every layer
module (every public method and ``__init__``/``__call__`` of the classes a
module defines, and its public module-level functions, including the
references other modules imported by name) with a span recorder, and
patches :class:`repro.sim.engine.Simulator`'s ``schedule``,
``schedule_at``, ``schedule_batch`` and ``every`` so that each event
callback a layer defines runs inside that layer's span (the defining
module is the class module of a bound method, otherwise the function's
``__module__``).
Callbacks installed at construction time (an engine's ``on_complete`` and
``on_power_change``, the closure :meth:`PowerModel.track` installs) are
wrapped once they are installed.

A span accumulates, per module, a call count and its *self* time: its
duration minus the time its child spans took.  Spans stay in memory; the
benchmark reads them after each traced repeat.  The wrappers read the
clock and the arguments only, so a traced run's payload must equal the
untraced one (the benchmark checks it).

Worker processes of a sharded fabric inherit the patches through ``fork``
and keep their own span tables; :func:`worker_report` is the dotted-path
function the parent runs in each worker through
:meth:`ShardedRunner.apply` to collect them before the runner closes.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import statistics
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from calibration import quantile

#: the layer modules, named without the ``repro.`` prefix; the order is
#: the report order
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.metrics",
    "hw.platform",
    "hw.power",
    "hw.dpdk",
    "nf.state",
    "net.packet",
    "net.traffic",
    "net.eswitch",
    "core.systems",
    "core.hal",
    "core.hlb",
    "core.lbp",
    "cluster.system",
    "cluster.fronttier",
    "cluster.policies",
    "cluster.autoscaler",
    "cluster.power",
    "flow.station",
    "flow.system",
    "flow.cluster",
    "fabric.control",
    "fabric.shard",
    "fabric.system",
    "runner.sharded",
    "serve.state",
    "serve.snapshot",
    "serve.checkpoint",
)

#: layers whose self time is reported in seconds: each one runs on every
#: workload, so its time is never zero (the others report calls and share)
TIMED_LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.metrics",
    "hw.power",
    "hw.dpdk",
    "net.packet",
    "net.traffic",
    "core.hlb",
    "core.lbp",
)

#: per-layer metrics besides the ``<layer>.*`` ones, with their units
SPECIFIC: Dict[str, str] = {
    "sim.engine.events": "count",
    "sim.engine.ns_per_event": "ns",
    "hw.platform.wire_pkts": "count",
    "hw.platform.drop_frac": "ratio",
    "core.lbp.ticks": "count",
    "core.lbp.zero_tp_frac": "ratio",
    "core.lbp.move_frac": "ratio",
    "core.hlb.host_frac": "ratio",
    "cluster.autoscaler.wakes": "count",
    "runner.sharded.ipc_frac": "ratio",
    "runner.sharded.bytes_per_epoch": "bytes",
    "serve.snapshot.bytes": "bytes",
    "bench.unattributed_frac": "ratio",
    "bench.trace_overhead_x": "ratio",
}

_PREFIX = "repro."
#: ``worker_report``'s dotted path, for ``ShardedRunner.apply``
WORKER_REPORT = f"{__name__}:worker_report"
_MARK = "_layers_span"
_KERNEL = _PREFIX + "sim.engine"


def _layer_of(module: Optional[str]) -> Optional[str]:
    """Span name of a callback's defining module, if it is a layer (the
    kernel's own closures stay in the ``Simulator.run`` span)."""
    if not module or not module.startswith(_PREFIX) or module == _KERNEL:
        return None
    layer = module[len(_PREFIX):]
    return layer if layer in LAYERS else None


def _callback_module(callback: Any) -> Optional[str]:
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        return type(owner).__module__
    if isinstance(callback, functools.partial):
        return _callback_module(callback.func)
    return getattr(callback, "__module__", None)


class Tracer:
    """Span tables and outside-in counters of one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self.simulators: List[Any] = []
        self.engines: List[Any] = []
        self.directors: List[Any] = []
        self.autoscalers: List[Any] = []
        self.lbp_ticks = 0
        self.lbp_zero_tp = 0
        self.lbp_moves = 0
        #: events a checkpoint restore put back on simulator counters
        self.restored_events = 0
        #: worker side: durations of each ``RackShard.step`` call, in order
        self.shard_steps: List[float] = []
        #: parent side: (duration, inputs, results, blocks) per runner step
        self.runner_steps: List[Tuple[float, Any, Any, List[Tuple[int, int]]]] = []
        self.worker_reports: List[Dict[str, Any]] = []

    def reset(self) -> None:
        """Zero every table in place (the span closures hold references)."""
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self._stack.clear()
        for bucket in (
            self.simulators, self.engines, self.directors, self.autoscalers,
            self.shard_steps, self.runner_steps, self.worker_reports,
        ):
            bucket.clear()
        self.lbp_ticks = self.lbp_zero_tp = self.lbp_moves = 0
        self.restored_events = 0

    # -- spans -----------------------------------------------------------
    def span(
        self, name: str, func: Callable[..., Any], entry_point: bool = True
    ) -> Callable[..., Any]:
        """``func`` wrapped in a span named ``name``.

        Entry points keep ``func``'s name and docstring; event callbacks
        (wrapped once per scheduled event) skip that copy."""
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        clock = perf_counter
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        if entry_point:
            functools.update_wrapper(spanned, func)
        setattr(spanned, _MARK, True)
        return spanned

    def callback(self, callback: Any) -> Any:
        """An event callback wrapped in its defining module's span."""
        if getattr(getattr(callback, "__func__", callback), _MARK, False):
            return callback
        layer = _layer_of(_callback_module(callback))
        if layer is None:
            return callback
        return self.span(layer, callback, entry_point=False)

    # -- reading -----------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def worker_tables(self) -> Dict[str, Any]:
        """This process's tables in the picklable form workers ship."""
        return {
            "pid": os.getpid(),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": self.counters(),
            "shard_steps": list(self.shard_steps),
        }

    def counters(self) -> Dict[str, float]:
        """Outside-in counts read from the objects the run created."""
        received = sum(engine.received_packets for engine in self.engines)
        dropped = sum(engine.dropped_packets for engine in self.engines)
        to_host = sum(d.stats.to_host_packets for d in self.directors)
        to_snic = sum(d.stats.to_snic_packets for d in self.directors)
        return {
            "events": float(
                sum(sim.events_processed for sim in self.simulators)
                - self.restored_events
            ),
            "wire_pkts": float(received),
            "dropped_pkts": float(dropped),
            "hlb_host_pkts": float(to_host),
            "hlb_pkts": float(to_host + to_snic),
            "lbp_ticks": float(self.lbp_ticks),
            "lbp_zero_tp": float(self.lbp_zero_tp),
            "lbp_moves": float(self.lbp_moves),
            "wakes": float(sum(a.wakes for a in self.autoscalers)),
        }


_INSTALLED: Optional[Tracer] = None


def worker_report(_shard: Any, _arg: Any = None) -> Dict[str, Any]:
    """Run in a shard worker by ``ShardedRunner.apply``: its span tables."""
    if _INSTALLED is None:
        raise RuntimeError("layer tracing is not installed in this process")
    return _INSTALLED.worker_tables()


def _public(name: str) -> bool:
    return name in ("__init__", "__call__") or not name.startswith("_")


def _wrap_module(tracer: Tracer, module: types.ModuleType, layer: str) -> Dict[int, Any]:
    """Span every public entry point ``module`` defines; returns the
    replaced module-level functions by id, for re-pointing imports."""
    replaced: Dict[int, Any] = {}
    for attr, value in list(vars(module).items()):
        if isinstance(value, type) and value.__module__ == module.__name__:
            for name, member in list(vars(value).items()):
                if not _public(name):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    inner = member.__func__
                    if isinstance(inner, types.FunctionType):
                        setattr(value, name, type(member)(tracer.span(layer, inner)))
                elif isinstance(member, types.FunctionType):
                    setattr(value, name, tracer.span(layer, member))
        elif (
            isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
            and _public(attr)
        ):
            wrapped = tracer.span(layer, value)
            setattr(module, attr, wrapped)
            replaced[id(value)] = (value, wrapped)
    return replaced


def _repoint(replaced: Dict[int, Any], extra_modules: Tuple[str, ...]) -> None:
    """Point names other modules imported (``from m import f``) at the
    wrappers, so a call through any import path is traced."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name.startswith(_PREFIX) or name in extra_modules):
            continue
        for attr, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def install(extra_modules: Tuple[str, ...] = ()) -> Tracer:
    """Patch every layer in this process and return the tracer.

    ``extra_modules`` names non-``repro`` modules (the benchmark's own)
    whose imported references to layer functions should be re-pointed.
    Installing twice is an error: the patches are process-wide.
    """
    global _INSTALLED
    if _INSTALLED is not None:
        raise RuntimeError("layer tracing is already installed")
    tracer = Tracer()
    modules = {layer: importlib.import_module(_PREFIX + layer) for layer in LAYERS}
    replaced: Dict[int, Any] = {}
    for layer, module in modules.items():
        replaced.update(_wrap_module(tracer, module, layer))
    _repoint(replaced, extra_modules)
    _patch_kernel(tracer, modules["sim.engine"])
    _patch_instances(tracer, modules)
    _patch_control(tracer, modules)
    _patch_runner(tracer, modules)
    os.register_at_fork(after_in_child=tracer.reset)
    _INSTALLED = tracer
    return tracer


def _patch_kernel(tracer: Tracer, engine: types.ModuleType) -> None:
    simulator = engine.Simulator
    schedule = simulator.schedule
    schedule_at = simulator.schedule_at
    schedule_batch = simulator.schedule_batch
    every = simulator.every
    wrap = tracer.callback

    def traced_schedule(sim: Any, delay: float, callback: Any, *args: Any, **kw: Any) -> Any:
        return schedule(sim, delay, wrap(callback), *args, **kw)

    def traced_schedule_at(sim: Any, when: float, callback: Any, *args: Any, **kw: Any) -> Any:
        return schedule_at(sim, when, wrap(callback), *args, **kw)

    def traced_schedule_batch(sim: Any, times: Any, callback: Any, *args: Any, **kw: Any) -> Any:
        return schedule_batch(sim, times, wrap(callback), *args, **kw)

    def traced_every(sim: Any, period: float, callback: Any, *args: Any, **kw: Any) -> Any:
        return every(sim, period, wrap(callback), *args, **kw)

    simulator.schedule = traced_schedule
    simulator.schedule_at = traced_schedule_at
    simulator.schedule_batch = traced_schedule_batch
    simulator.every = traced_every


def _after_init(cls: type, hook: Callable[[Any], None]) -> None:
    init = cls.__init__

    def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
        init(obj, *args, **kwargs)
        hook(obj)

    functools.update_wrapper(__init__, init)
    cls.__init__ = __init__  # type: ignore[misc]


def _patch_instances(tracer: Tracer, modules: Dict[str, types.ModuleType]) -> None:
    """Keep the objects whose counters the report reads, and wrap the
    callbacks engines receive at construction."""
    simulator = modules["sim.engine"].Simulator
    _after_init(simulator, tracer.simulators.append)
    restore_clock = simulator.restore_clock

    def counted_restore(sim: Any, now: float, events_processed: int = 0) -> None:
        restore_clock(sim, now, events_processed)
        tracer.restored_events += events_processed

    functools.update_wrapper(counted_restore, restore_clock)
    simulator.restore_clock = counted_restore
    _after_init(modules["core.hlb"].TrafficDirector, tracer.directors.append)
    _after_init(modules["cluster.autoscaler"].RackAutoscaler, tracer.autoscalers.append)

    def engine_built(engine: Any) -> None:
        tracer.engines.append(engine)
        if engine.on_complete is not None:
            engine.on_complete = tracer.callback(engine.on_complete)
        if engine.on_power_change is not None:
            engine.on_power_change = tracer.callback(engine.on_power_change)

    _after_init(modules["hw.platform"].ProcessingEngine, engine_built)

    power_model = modules["hw.power"].PowerModel
    track = power_model.track

    def traced_track(model: Any, engine: Any, role: str) -> None:
        track(model, engine, role)
        engine.on_power_change = tracer.callback(engine.on_power_change)

    functools.update_wrapper(traced_track, track)
    power_model.track = traced_track


def _patch_control(tracer: Tracer, modules: Dict[str, types.ModuleType]) -> None:
    """Count Algorithm-1 ticks by their SNIC_TP input and outcome."""
    policy = modules["core.lbp"].LoadBalancingPolicy
    set_forward_rate = policy.set_forward_rate

    def counted(lbp: Any, snic_tp_gbps: float) -> None:
        before = lbp.director.fwd_threshold_gbps
        set_forward_rate(lbp, snic_tp_gbps)
        tracer.lbp_ticks += 1
        if snic_tp_gbps == 0:
            tracer.lbp_zero_tp += 1
        if lbp.director.fwd_threshold_gbps != before:
            tracer.lbp_moves += 1

    functools.update_wrapper(counted, set_forward_rate)
    policy.set_forward_rate = counted


def _patch_runner(tracer: Tracer, modules: Dict[str, types.ModuleType]) -> None:
    """Time barrier steps on both sides of the pipes, and fetch the
    workers' span tables before a multi-process runner closes."""
    shard = modules["fabric.shard"].RackShard
    shard_step = shard.step

    def timed_shard_step(rack: Any, rate_gbps: float) -> Any:
        start = perf_counter()
        try:
            return shard_step(rack, rate_gbps)
        finally:
            tracer.shard_steps.append(perf_counter() - start)

    functools.update_wrapper(timed_shard_step, shard_step)
    shard.step = timed_shard_step

    runner_cls = modules["runner.sharded"].ShardedRunner
    runner_step = runner_cls.step
    runner_apply = runner_cls.apply
    runner_close = runner_cls.close
    worker_error = modules["runner.sharded"].ShardWorkerError

    def timed_runner_step(runner: Any, inputs: Any) -> Any:
        start = perf_counter()
        results = runner_step(runner, inputs)
        tracer.runner_steps.append(
            (perf_counter() - start, list(inputs), results, list(runner._blocks))
        )
        return results

    reporting: Set[int] = set()

    def reporting_close(runner: Any) -> None:
        # a failing apply closes the runner itself: do not report again
        reports = []
        if runner.jobs > 1 and id(runner) not in reporting:
            reporting.add(id(runner))
            try:
                reports = runner_apply(runner, WORKER_REPORT)
            except worker_error:  # already closed, or a worker died
                pass
            finally:
                reporting.discard(id(runner))
            seen = set()
            for report in reports:
                if report["pid"] not in seen:
                    seen.add(report["pid"])
                    tracer.worker_reports.append(report)
        runner_close(runner)

    functools.update_wrapper(timed_runner_step, runner_step)
    functools.update_wrapper(reporting_close, runner_close)
    runner_cls.step = timed_runner_step
    runner_cls.close = reporting_close


# -- the per-layer report ------------------------------------------------


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer in TIMED_LAYERS:
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_frac"] = "ratio"
    units.update(SPECIFIC)
    return units


def metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """The values of :func:`metric_units` from a (median) report."""
    values: Dict[str, float] = {}
    for layer in LAYERS:
        entry = report["layers"][layer]
        values[f"{layer}.calls"] = float(entry["calls"])
        if layer in TIMED_LAYERS:
            values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.self_frac"] = entry["self_frac"]
    counters = report["counters"]
    values.update({
        "sim.engine.events": report["events"],
        "sim.engine.ns_per_event": report["ns_per_event"],
        "hw.platform.wire_pkts": counters["wire_pkts"],
        "hw.platform.drop_frac": _ratio(counters["dropped_pkts"], counters["wire_pkts"]),
        "core.lbp.ticks": counters["lbp_ticks"],
        "core.lbp.zero_tp_frac": _ratio(counters["lbp_zero_tp"], counters["lbp_ticks"]),
        "core.lbp.move_frac": _ratio(counters["lbp_moves"], counters["lbp_ticks"]),
        "core.hlb.host_frac": _ratio(counters["hlb_host_pkts"], counters["hlb_pkts"]),
        "cluster.autoscaler.wakes": counters["wakes"],
        "runner.sharded.ipc_frac": report["ipc_frac"],
        "runner.sharded.bytes_per_epoch": report["bytes_per_epoch"],
        "serve.snapshot.bytes": report["checkpoint_bytes"],
        "bench.unattributed_frac": report["unattributed_frac"],
        "bench.trace_overhead_x": report["trace_overhead_x"],
    })
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _barriers(tracer: Tracer) -> Dict[str, float]:
    """Barrier-step statistics: parent step time, IPC share, bytes moved.

    The IPC time of a barrier is the parent's ``ShardedRunner.step`` time
    minus the slowest worker's compute for that barrier (the sum of its
    shards' ``RackShard.step`` times); an in-process runner has none.
    """
    steps = tracer.runner_steps
    if not steps:
        return {"steps": 0.0, "ipc_s": 0.0, "bytes": 0.0, "p50_ms": 0.0, "p95_ms": 0.0}
    durations = [step[0] for step in steps]
    ipc_s = 0.0
    ipc_bytes = 0.0
    blocks = steps[0][3]
    if blocks and tracer.worker_reports:
        per_worker = [report["shard_steps"] for report in tracer.worker_reports]
        for index, (duration, inputs, results, _blocks) in enumerate(steps):
            slowest = 0.0
            for (start, stop), shard_steps in zip(blocks, per_worker):
                width = stop - start
                chunk = shard_steps[index * width:(index + 1) * width]
                slowest = max(slowest, sum(chunk))
            ipc_s += max(0.0, duration - slowest)
            for start, stop in blocks:
                ipc_bytes += len(pickle.dumps(("step", inputs[start:stop])))
                ipc_bytes += len(pickle.dumps(("ok", results[start:stop], [])))
    return {
        "steps": float(len(steps)),
        "ipc_s": ipc_s,
        "bytes": ipc_bytes,
        "p50_ms": quantile(durations, 0.5) * 1e3,
        "p95_ms": quantile(durations, 0.95) * 1e3,
    }


def report(tracer: Tracer, wall_s: float) -> Dict[str, Any]:
    """Per-layer numbers of one traced repeat that took ``wall_s``.

    Worker tables are merged into the parent's: ``calls`` and ``self_s``
    are summed over processes, and ``self_frac`` is a layer's share of all
    attributed time.  ``unattributed_frac`` is the parent's traced wall
    time outside every span.
    """
    calls = dict(tracer.calls)
    self_s = dict(tracer.self_s)
    counters = tracer.counters()
    for worker in tracer.worker_reports:
        for name, value in worker["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in worker["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in worker["counters"].items():
            counters[name] += value
    total_self = sum(self_s.values())
    layers = {
        layer: {
            "calls": calls.get(layer, 0),
            "self_s": self_s.get(layer, 0.0),
            "self_frac": _ratio(self_s.get(layer, 0.0), total_self),
        }
        for layer in LAYERS
    }
    barriers = _barriers(tracer)
    events = counters["events"]
    return {
        "wall_s": wall_s,
        "attributed_s": tracer.attributed_s(),
        "unattributed_frac": 1.0 - _ratio(tracer.attributed_s(), wall_s),
        "layers": layers,
        "counters": counters,
        "events": events,
        "ns_per_event": _ratio(self_s.get("sim.engine", 0.0), events) * 1e9,
        "barriers": barriers,
        "ipc_frac": _ratio(barriers["ipc_s"], wall_s),
        "bytes_per_epoch": _ratio(barriers["bytes"], barriers["steps"]),
        "workers": len(tracer.worker_reports),
    }


def median_report(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Counts from the first traced repeat, times as medians over all."""
    merged = dict(reports[0])
    merged["wall_s"] = statistics.median(r["wall_s"] for r in reports)
    merged["unattributed_frac"] = statistics.median(
        r["unattributed_frac"] for r in reports
    )
    merged["ns_per_event"] = statistics.median(r["ns_per_event"] for r in reports)
    merged["ipc_frac"] = statistics.median(r["ipc_frac"] for r in reports)
    merged["layers"] = {
        layer: {
            "calls": reports[0]["layers"][layer]["calls"],
            "self_s": statistics.median(r["layers"][layer]["self_s"] for r in reports),
            "self_frac": statistics.median(
                r["layers"][layer]["self_frac"] for r in reports
            ),
        }
        for layer in LAYERS
    }
    merged["barriers"] = dict(reports[0]["barriers"])
    for key in ("ipc_s", "p50_ms", "p95_ms"):
        merged["barriers"][key] = statistics.median(r["barriers"][key] for r in reports)
    return merged
