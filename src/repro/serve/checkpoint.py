"""Resumable fabric experiments: pause at a barrier, persist, resume.

This is the one focused-fabric driver: every focused ``repro fabric``
run, ``--scaling`` included, goes through :func:`run_resumable`.  It
builds the result shell, the per-system
:class:`~repro.fabric.system.FabricConfig` and the rows and notes with
the helpers of :mod:`repro.exp.fabric`, and threads the
``pause``/``resume`` hooks of
:func:`~repro.fabric.system.run_fabric` through a caller-owned
:class:`~repro.runner.sharded.ShardedRunner`, snapshotting every rack
shard with :mod:`repro.serve.state` when the run pauses.  A checkpoint
therefore carries three layers:

* the **job** — run config + fabric parameters, so a resume needs only
  the checkpoint file;
* the **completed systems** — their full ``FabricResult`` payload dicts
  (already shard-count-independent);
* the **in-progress system** — the parent-side loop state from
  :class:`~repro.fabric.system.FabricPaused` plus one shard snapshot
  per rack.

Because shard snapshots are per-rack (not per-worker), a checkpoint
taken at any ``shard_jobs`` resumes at any other ``shard_jobs`` — the
worker count was never part of the state.  The resumed run's final
:class:`~repro.exp.report.ExperimentResult` payload is byte-identical
to an uninterrupted run's, which the serve smoke test gates on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.exp.fabric import (
    SYSTEMS,
    add_fabric_row,
    fabric_config,
    finalize_focused,
    focused_result,
)
from repro.exp.report import ExperimentResult
from repro.exp.server import RunConfig
from repro.fabric.shard import SHARD_FACTORY
from repro.fabric.system import FabricPaused, FabricResult, run_fabric
from repro.runner.sharded import ShardedRunner
from repro.serve.snapshot import CheckpointError, write_checkpoint
from repro.serve.state import RESTORE_SHARD, SHARD_STATE

if TYPE_CHECKING:
    from repro.obs.fleet import FleetTelemetry

#: checkpoint ``kind`` tag for a whole fabric experiment
EXPERIMENT_KIND = "fabric-experiment"


@dataclass(frozen=True)
class FabricJobParams:
    """The focused-fabric shape knobs, as one picklable/JSON-safe unit."""

    racks: int = 8
    servers: int = 2
    dispatch: str = "packing"
    mix: str = "mix"
    model_hours: float = 24.0
    policy: str = "packing"
    power_cap_w: float = 0.0
    systems: Tuple[str, ...] = SYSTEMS

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["systems"] = list(self.systems)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FabricJobParams":
        fields = dict(data)
        fields["systems"] = tuple(fields.get("systems", SYSTEMS))
        return cls(**fields)


@dataclass
class ResumableOutcome:
    """What one driver invocation produced: a finished result, or a
    checkpoint on disk describing where the run paused."""

    result: Optional[ExperimentResult] = None
    paused_system: Optional[str] = None
    #: epochs fully completed for the paused system (resume starts here)
    paused_epoch: Optional[int] = None
    checkpoint_sha256: Optional[str] = None
    #: per-system runner step wall-clock (never part of any payload)
    wall_s: Dict[str, float] = field(default_factory=dict)

    @property
    def paused(self) -> bool:
        return self.result is None


def run_resumable(
    run_config: RunConfig,
    params: FabricJobParams,
    shard_jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    should_pause: Optional[Callable[[str, int], bool]] = None,
    resume_body: Optional[Dict[str, Any]] = None,
    telemetry: Optional["FleetTelemetry"] = None,
) -> ResumableOutcome:
    """Run (or continue) one focused fabric experiment.

    ``should_pause(system, epoch)`` is polled at every epoch barrier of
    every system; returning True checkpoints to ``checkpoint_path`` and
    stops (with no ``checkpoint_path`` the run still drains to the
    barrier and stops cleanly, but nothing is persisted — the Ctrl-C
    path when the operator never asked for a checkpoint file).
    ``resume_body`` is a previously written checkpoint's body
    (see :func:`load_checkpoint_job`); completed systems are replayed
    from their stored payloads and the in-progress system restarts from
    its barrier.  ``shard_jobs`` is free to differ between the pausing
    and resuming invocations — snapshots are per rack, not per worker.
    """
    completed: Dict[str, Any] = {}
    in_progress: Optional[Dict[str, Any]] = None
    if resume_body is not None:
        completed = dict(resume_body.get("completed", {}))
        in_progress = resume_body.get("in_progress")
    outcome = ResumableOutcome()
    result = focused_result(
        params.racks, params.servers, params.dispatch, params.mix,
        params.model_hours,
    )
    for system in params.systems:
        cfg = fabric_config(
            run_config,
            system,
            racks=params.racks,
            servers=params.servers,
            dispatch=params.dispatch,
            mix=params.mix,
            model_hours=params.model_hours,
            policy=params.policy,
            power_cap_w=params.power_cap_w,
        )
        if system in completed:
            add_fabric_row(
                result, cfg, FabricResult.from_dict(cfg, completed[system])
            )
            continue
        runner = ShardedRunner(
            cfg.shard_specs(telemetry=telemetry is not None),
            SHARD_FACTORY,
            jobs=shard_jobs,
        )
        try:
            resume_state: Optional[Dict[str, Any]] = None
            if in_progress is not None:
                if in_progress.get("system") != system:
                    raise CheckpointError(
                        f"checkpoint is mid-{in_progress.get('system')!r} "
                        f"but the systems order reached {system!r} first"
                    )
                shards = in_progress["shards"]
                if len(shards) != params.racks:
                    raise CheckpointError(
                        f"checkpoint has {len(shards)} shard snapshots "
                        f"for a {params.racks}-rack fabric"
                    )
                runner.apply(RESTORE_SHARD, shards)
                resume_state = dict(in_progress["resume"])
                in_progress = None
            pause_hook: Optional[Callable[[int], bool]] = None
            if should_pause is not None:
                pause_hook = (
                    lambda epoch, _system=system: should_pause(_system, epoch)
                )
            try:
                fabric_outcome = run_fabric(
                    cfg,
                    runner=runner,
                    telemetry=telemetry,
                    label=system,
                    pause=pause_hook,
                    resume=resume_state,
                )
            except FabricPaused as paused:
                outcome.paused_system = system
                outcome.paused_epoch = paused.epoch
                if checkpoint_path is not None:
                    body = _checkpoint_body(
                        run_config,
                        params,
                        completed,
                        {
                            "system": system,
                            "resume": paused.resume_state(),
                            "shards": runner.apply(SHARD_STATE),
                        },
                    )
                    outcome.checkpoint_sha256 = write_checkpoint(
                        checkpoint_path, EXPERIMENT_KIND, body
                    )
                outcome.wall_s[system] = runner.step_wall_s
                return outcome
            outcome.wall_s[system] = runner.step_wall_s
        finally:
            runner.close()
        completed[system] = fabric_outcome.to_dict()
        add_fabric_row(result, cfg, fabric_outcome)
    outcome.result = finalize_focused(result)
    return outcome


def _checkpoint_body(
    run_config: RunConfig,
    params: FabricJobParams,
    completed: Dict[str, Any],
    in_progress: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "run_config": asdict(run_config),
        "params": params.to_dict(),
        "completed": completed,
        "in_progress": in_progress,
    }


def load_checkpoint_job(
    body: Dict[str, Any],
) -> Tuple[RunConfig, FabricJobParams]:
    """Reconstruct the job description a checkpoint body carries."""
    try:
        run_config = RunConfig(**body["run_config"])
        params = FabricJobParams.from_dict(body["params"])
    except (KeyError, TypeError) as error:
        raise CheckpointError(
            f"checkpoint body does not describe a fabric job: {error}"
        ) from error
    return run_config, params


def pause_at_epoch(target_epoch: int) -> Callable[[str, int], bool]:
    """A ``should_pause`` hook that pauses the *first* system once it
    completes ``target_epoch`` epochs (the test/CI knob)."""
    if target_epoch < 1:
        raise ValueError("pause epoch must be >= 1")

    def hook(_system: str, epoch: int) -> bool:
        return epoch + 1 >= target_epoch

    return hook
