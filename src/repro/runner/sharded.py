"""Sharded execution: one long-lived worker process per simulation shard.

The :class:`~repro.runner.runner.Runner` fans out *independent* jobs —
each worker runs one job start-to-finish and the pool never talks back
mid-run.  A fabric simulation is the opposite shape: N racks advance in
lock-step, exchanging boundary state at every epoch barrier, so the
workers must stay alive across thousands of round trips.

:class:`ShardedRunner` implements that shape as a conservative
time-stepped protocol over ``multiprocessing.Pipe``:

* construction partitions the shard specs contiguously across K worker
  processes (preserving shard order) and each worker builds its shards
  from a module-level factory resolved by dotted path (picklable under
  both fork and spawn start methods);
* :meth:`step` scatters one input per shard to the workers, lets every
  worker advance its shards to the barrier concurrently, and gathers the
  per-shard summaries back in shard order;
* :meth:`finish` drains the shards and collects their final payloads.

``jobs=1`` skips processes entirely and drives the same shard objects
in-process — because each shard's evolution depends only on (its spec,
the inputs pushed to it) and the caller consumes outputs in shard order,
results are byte-identical at every worker count.

Wall-clock accounting (``step_wall_s``) lives here, in the runner layer,
so the simulation payloads themselves stay free of wall-clock reads.

Worker logging: a worker process must not write raw lines to the shared
stderr (K workers interleave mid-line, and under spawn the stream may not
even be inherited).  Each worker diverts its :mod:`repro.obs.log` records
into a buffer (:func:`repro.obs.log.set_capture`) and ships the drained
buffer with every protocol reply; the parent replays them through its own
logger, tagged ``worker=<index> shards=<start>:<stop>``.  Replies are
``(status, payload, logs)`` triples — the parent also accepts legacy
2-tuples so a mixed-version pipe fails soft.
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import signal
import traceback
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs import log as obs_log
from repro.obs.log import LogRecord, get_logger

log = get_logger("runner.sharded")


class ShardWorkerError(RuntimeError):
    """A shard worker process died or raised mid-protocol."""


def resolve_factory(path: str) -> Callable[[Any], Any]:
    """Resolve ``"package.module:attribute"`` to the factory callable."""
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"factory path must look like 'package.module:attribute' (got {path!r})"
        )
    module = importlib.import_module(module_name)
    factory = getattr(module, attr)
    if not callable(factory):
        raise TypeError(f"{path} is not callable")
    return factory


def _shard_worker(conn: Any, factory_path: str, specs: Sequence[Any]) -> None:
    """Worker loop: build this block's shards, answer barrier requests.

    Every reply ships the log records buffered since the previous reply
    so the parent can replay them on its own stream in order.
    """
    # a terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; workers ignore it so in-flight epochs complete and the
    # *parent* decides how to drain (see DrainSignal)
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    records: List[LogRecord] = []
    obs_log.set_capture(records.append)

    def drain() -> List[LogRecord]:
        drained = list(records)
        records.clear()
        return drained

    try:
        factory = resolve_factory(factory_path)
        shards = [factory(spec) for spec in specs]
    except Exception:
        conn.send(("error", traceback.format_exc(), drain()))
        conn.close()
        return
    try:
        while True:
            op, payload = conn.recv()
            if op == "close":
                break
            try:
                if op == "describe":
                    reply: Any = [shard.describe() for shard in shards]
                elif op == "step":
                    reply = [s.step(x) for s, x in zip(shards, payload)]
                elif op == "finish":
                    reply = [s.finish(x) for s, x in zip(shards, payload)]
                elif op == "apply":
                    func_path, items = payload
                    func = resolve_factory(func_path)
                    reply = [func(s, x) for s, x in zip(shards, items)]
                else:
                    conn.send(("error", f"unknown op {op!r}", drain()))
                    continue
                conn.send(("ok", reply, drain()))
            except Exception:
                conn.send(("error", traceback.format_exc(), drain()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


def _partition(count: int, blocks: int) -> List[Tuple[int, int]]:
    """Contiguous, order-preserving ``[start, stop)`` blocks."""
    size, extra = divmod(count, blocks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for block in range(blocks):
        stop = start + size + (1 if block < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ShardedRunner:
    """Drive N shard objects through barrier-synchronized epochs.

    ``jobs`` worker processes (clamped to ``len(specs)``); ``jobs=1``
    builds and drives the shards in-process with no fork at all.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        factory: str,
        jobs: int = 1,
    ) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        self.specs = list(specs)
        self.factory = factory
        self.jobs = max(1, min(jobs if jobs > 0 else 1, len(self.specs)))
        self.steps = 0
        self.step_wall_s = 0.0
        self._closed = False
        self._shards: List[Any] = []
        self._workers: List[mp.process.BaseProcess] = []
        self._conns: List[Any] = []
        self._blocks: List[Tuple[int, int]] = []
        if self.jobs == 1:
            self._shards = [resolve_factory(factory)(s) for s in self.specs]
            return
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._blocks = _partition(len(self.specs), self.jobs)
        for start, stop in self._blocks:
            parent_conn, child_conn = ctx.Pipe()
            worker = ctx.Process(
                target=_shard_worker,
                args=(child_conn, factory, self.specs[start:stop]),
                daemon=True,
            )
            worker.start()
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)
        log.debug(
            "sharded_workers_started", jobs=self.jobs, shards=len(self.specs)
        )

    # -- protocol ops ----------------------------------------------------

    def _scatter_gather(
        self,
        op: str,
        inputs: Optional[Sequence[Any]],
        func_path: Optional[str] = None,
    ) -> List[Any]:
        if self._closed:
            raise ShardWorkerError("runner already closed")
        if self.jobs == 1:
            if op == "describe":
                return [shard.describe() for shard in self._shards]
            assert inputs is not None
            if op == "step":
                return [s.step(x) for s, x in zip(self._shards, inputs)]
            if op == "apply":
                assert func_path is not None
                func = resolve_factory(func_path)
                return [func(s, x) for s, x in zip(self._shards, inputs)]
            return [s.finish(x) for s, x in zip(self._shards, inputs)]
        # scatter to every worker first so the blocks advance concurrently
        for conn, (start, stop) in zip(self._conns, self._blocks):
            payload = None if inputs is None else list(inputs[start:stop])
            if op == "apply":
                payload = (func_path, payload)
            try:
                conn.send((op, payload))
            except (BrokenPipeError, OSError) as exc:
                raise self._worker_died(exc)
        results: List[Any] = []
        for index, conn in enumerate(self._conns):
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                raise self._worker_died(exc)
            status, payload = message[0], message[1]
            self._replay_logs(index, message[2] if len(message) > 2 else [])
            if status != "ok":
                self.close()
                raise ShardWorkerError(f"shard worker failed:\n{payload}")
            results.extend(payload)
        return results

    def _replay_logs(self, worker_index: int, records: Sequence[LogRecord]) -> None:
        """Re-emit a worker's captured records on the parent's stream,
        tagged with the worker's identity and shard block."""
        if not records:
            return
        start, stop = self._blocks[worker_index]
        for name, level, event, fields in records:
            get_logger(name).emit_at(
                level,
                event,
                **fields,
                worker=worker_index,
                shards=f"{start}:{stop}",
            )

    def _worker_died(self, exc: Exception) -> ShardWorkerError:
        codes = [worker.exitcode for worker in self._workers]
        self.close()
        return ShardWorkerError(
            f"shard worker process died (exit codes {codes}): {exc!r}"
        )

    def describe(self) -> List[Any]:
        """Static per-shard facts (capacity, shape) in shard order."""
        return self._scatter_gather("describe", None)

    def step(self, inputs: Sequence[Any]) -> List[Any]:
        """One barrier round: input *i* goes to shard *i*; returns the
        per-shard boundary summaries in shard order."""
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"step needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        started = perf_counter()
        results = self._scatter_gather("step", inputs)
        self.step_wall_s += perf_counter() - started
        self.steps += 1
        return results

    def finish(self, inputs: Optional[Sequence[Any]] = None) -> List[Any]:
        """Drain every shard and gather the final payloads."""
        if inputs is None:
            inputs = [None] * len(self.specs)
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"finish needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        return self._scatter_gather("finish", inputs)

    def apply(
        self, func_path: str, inputs: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        """Apply ``"module:function"(shard, input)`` to every shard, in
        shard order — the extension point checkpointing uses to snapshot
        (``repro.serve.state:shard_state``) and restore shard state
        without teaching the barrier protocol about any one shard type.

        The function must be resolvable in the worker process (a
        module-level callable), and inputs/outputs must be picklable.
        """
        if inputs is None:
            inputs = [None] * len(self.specs)
        if len(inputs) != len(self.specs):
            raise ValueError(
                f"apply needs one input per shard "
                f"({len(inputs)} != {len(self.specs)})"
            )
        return self._scatter_gather("apply", inputs, func_path=func_path)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self._shards = []

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class DrainSignal:
    """Flag-setting SIGINT/SIGTERM trap for barrier-drained shutdown.

    Shard workers ignore SIGINT (see :func:`_shard_worker`), so a Ctrl-C
    never kills a rack mid-epoch; the parent installs this trap and polls
    ``triggered`` at each epoch barrier to drain, checkpoint, and exit
    cleanly instead of dying with half a fleet in flight.  A second
    signal while draining raises :class:`KeyboardInterrupt` — the
    escape hatch when the drain itself hangs.

    Outside the main thread (where ``signal.signal`` is unavailable) the
    trap degrades to an inert flag that is never set.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)) -> None:
        self.signals = tuple(signals)
        self.triggered = False
        self.signame = ""
        self._previous: List[Tuple[int, Any]] = []

    def _handle(self, signum: int, frame: Any) -> None:
        if self.triggered:
            raise KeyboardInterrupt
        self.triggered = True
        self.signame = signal.Signals(signum).name
        log.info("drain_requested", signal=self.signame)

    def __enter__(self) -> "DrainSignal":
        for sig in self.signals:
            try:
                self._previous.append((sig, signal.signal(sig, self._handle)))
            except ValueError:  # pragma: no cover - not the main thread
                pass
        return self

    def __exit__(self, *exc: Any) -> None:
        for sig, handler in self._previous:
            signal.signal(sig, handler)
        self._previous = []
