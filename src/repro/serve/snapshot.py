"""The checkpoint container: versioned, canonical, integrity-checked.

A checkpoint is a JSON envelope::

    {
      "format":  "repro-checkpoint",
      "version": 3,
      "kind":    "<what the body describes>",
      "sha256":  "<hex digest of the canonical body>",
      "body":    { ... }
    }

The body is whatever JSON-safe state the producer recorded (see
:mod:`repro.serve.state` for the shard body and
:mod:`repro.serve.checkpoint` for the experiment body).  The digest is
computed over the *canonical* serialization of the body (sorted keys,
no whitespace), so a checkpoint edited or truncated on disk is rejected
at load time rather than silently restoring garbage.

Version policy: ``version`` is bumped whenever the body layout of any
kind changes incompatibly; a reader only accepts its own version.
Checkpoints are short-lived pause/resume artifacts, not an archival
format — there is deliberately no cross-version migration.

Floats survive the round trip exactly: ``json`` serializes them via
``repr`` and parses them back to the identical IEEE-754 value, which is
what makes byte-identical resume payloads possible.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

#: current checkpoint body-layout version (all kinds bump together)
SNAPSHOT_VERSION = 3

#: envelope format tag
CHECKPOINT_FORMAT = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """Raised for malformed, corrupt or incompatible checkpoints."""


def canonical_json(body: Any) -> str:
    """The canonical serialization the integrity digest covers."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def body_sha256(body: Any) -> str:
    """Hex digest of the canonical body serialization."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def write_checkpoint(path: str, kind: str, body: Any) -> str:
    """Write a checkpoint envelope atomically; returns the body digest.

    The write goes through a sibling temp file plus ``os.replace`` so a
    crash mid-write leaves either the old checkpoint or none — never a
    torn file that would fail the digest check on resume.
    """
    digest = body_sha256(body)
    envelope: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "sha256": digest,
        "body": body,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        # not sort_keys: some state dicts (power integrators) are
        # insertion-ordered because their consumers sum dict.values();
        # the digest canonicalizes independently of on-disk key order
        json.dump(envelope, handle)
        handle.write("\n")
    os.replace(tmp_path, path)
    return digest


def read_checkpoint(path: str, kind: Optional[str] = None) -> Dict[str, Any]:
    """Load, verify and return a checkpoint envelope's body.

    ``kind`` (when given) must match what the producer stamped — a
    shard body resumed as an experiment body fails here, not deep in a
    restore walker.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise CheckpointError(f"checkpoint {path!r} is not valid JSON: {error}") from error
    if not isinstance(envelope, dict):
        raise CheckpointError(f"checkpoint {path!r} is not an envelope object")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {envelope.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} is version {version!r}; this build reads "
            f"only version {SNAPSHOT_VERSION}"
        )
    if kind is not None and envelope.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path!r} is of kind {envelope.get('kind')!r}, "
            f"expected {kind!r}"
        )
    body = envelope.get("body")
    recorded = envelope.get("sha256")
    actual = body_sha256(body)
    if recorded != actual:
        raise CheckpointError(
            f"checkpoint {path!r} failed its integrity check "
            f"(recorded {recorded!r}, actual {actual!r})"
        )
    return dict(body) if isinstance(body, dict) else {"body": body}
