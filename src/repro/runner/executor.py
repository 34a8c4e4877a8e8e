"""Job execution — the code that actually runs inside worker processes.

:func:`execute_job` is a module-level function (so it pickles cleanly
for ``ProcessPoolExecutor``) mapping a :class:`JobSpec` to a JSON-safe
payload dict ``{"kind": "metrics"|"experiment", "data": ...}``.  The
runner calls it as :func:`execute_counted` on both its sequential and
its pool path, so parallel and sequential execution share one code path
and one result format.

``experiment`` jobs install a *sequential* cache-backed runner inside
the worker: the nested per-run jobs the experiment fans out then
populate the same cache at run granularity, which is what lets an
interrupted ``artifact`` batch resume mid-experiment.  The nested
runner's job counts travel back with the payload
(:func:`execute_counted`), so the parent's record counts every cell.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.obs.log import get_logger
from repro.runner.spec import JobSpec

log = get_logger("executor")

#: number of jobs actually computed (not served from cache) in this
#: process — tests assert cache hits through this counter
EXECUTION_COUNT = 0


def metrics_payload(metrics: Any) -> Dict[str, Any]:
    return {"kind": "metrics", "data": metrics.to_dict()}


def experiment_payload(result: Any) -> Dict[str, Any]:
    return {"kind": "experiment", "data": result.to_dict()}


def decode_payload(payload: Dict[str, Any]) -> Any:
    """Payload dict → RunMetrics / ExperimentResult."""
    from repro.exp.report import ExperimentResult
    from repro.sim.metrics import RunMetrics

    if payload["kind"] == "metrics":
        return RunMetrics.from_dict(payload["data"])
    if payload["kind"] == "experiment":
        return ExperimentResult.from_dict(payload["data"])
    raise ValueError(f"unknown payload kind {payload['kind']!r}")


def _compute(spec: JobSpec) -> Dict[str, Any]:
    global EXECUTION_COUNT
    # imported lazily, like every experiment-side import here: the
    # experiment package imports the runner
    from repro.exp.server import simulate_cell

    EXECUTION_COUNT += 1
    if spec.op in ("at_rate", "trace"):
        return metrics_payload(simulate_cell(spec))
    if spec.op == "rack":
        # imported lazily: the cluster layer pulls in every system kind
        from repro.cluster import run_rack

        return metrics_payload(
            run_rack(
                spec.kind, spec.function, spec.trace, spec.config, **dict(spec.params)
            )
        )
    if spec.op == "experiment":
        # imported lazily: experiments → fig modules → sweeps → runner
        from repro.exp.experiments import run_experiment

        return experiment_payload(run_experiment(spec.name, spec.config))
    raise ValueError(f"unknown job op {spec.op!r}")


def execute_job(spec: JobSpec, cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Worker entry point: compute one spec's payload.

    When ``cache_dir`` is given, nested runs (the fan-out inside an
    ``experiment`` job) go through a sequential runner backed by that
    cache; the top-level get/put for ``spec`` itself is the parent
    runner's responsibility.
    """
    return execute_counted(spec, cache_dir)[0]


def execute_counted(
    spec: JobSpec, cache_dir: Optional[str] = None
) -> Tuple[Dict[str, Any], Tuple[int, int, int]]:
    """:func:`execute_job`, plus the ``(jobs, cached, executed)`` counts
    of the nested runs the job went through (zeros for a cell that fans
    nothing out), so the parent runner's record counts every cell."""
    from repro.runner.cache import ResultCache
    from repro.runner.context import use_runner
    from repro.runner.runner import Runner

    log.debug("execute", worker=os.getpid(), spec=spec.label(), op=spec.op)
    inner = Runner(jobs=1, cache=ResultCache(cache_dir) if cache_dir else None)
    with use_runner(inner):
        payload = _compute(spec)
    return payload, inner.counts
