"""Fabric checkpoint/restore: pause a run at an epoch barrier and
resume it in a fresh process with a byte-identical final payload.

Every module here produces or replays simulation state, so the whole
package is simulation domain:

* :mod:`repro.serve.snapshot` — the versioned, integrity-checked
  checkpoint container (pure data);
* :mod:`repro.serve.state` — per-shard state walkers that snapshot a
  :class:`~repro.fabric.shard.RackShard` at an epoch barrier and
  restore it into a freshly built shard;
* :mod:`repro.serve.checkpoint` — the resumable fabric-experiment
  driver behind ``repro fabric --checkpoint/--resume/--pause-at-epoch``.
"""

from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
]
