"""The runner's job model.

A :class:`JobSpec` is a pure description of one unit of work — a
constant-rate run, a trace run, or a whole registered experiment —
closed over everything that determines its result (system kind,
function, rate/trace, extra system parameters, :class:`RunConfig`,
seed).  Two properties follow from that purity:

* a spec can be shipped to a worker process and executed there with a
  result identical to in-process execution;
* a spec has a deterministic **content hash**, which keys the on-disk
  result cache (:mod:`repro.runner.cache`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    # the experiment package imports the runner, so the runner names
    # RunConfig only for type checking
    from repro.exp.server import RunConfig

#: job kinds the executor knows how to run
OPS = ("at_rate", "trace", "experiment", "rack")

#: spec parameter values must be JSON scalars for canonical hashing
_SCALARS = (str, int, float, bool, type(None))


def _freeze_params(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    for key, value in params.items():
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"job param {key}={value!r} is not a JSON scalar; specs must "
                "stay content-hashable"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class JobSpec:
    """One hashable, picklable unit of simulation work."""

    op: str
    config: RunConfig
    kind: Optional[str] = None
    function: Optional[str] = None
    rate_gbps: Optional[float] = None
    trace: Optional[str] = None
    name: Optional[str] = None
    #: extra ``build_system`` keyword arguments, sorted for determinism
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown job op {self.op!r}; known: {OPS}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def at_rate(
        cls,
        kind: str,
        function: str,
        rate_gbps: float,
        config: RunConfig,
        **params: Any,
    ) -> "JobSpec":
        return cls(
            op="at_rate",
            config=config,
            kind=kind,
            function=function,
            rate_gbps=rate_gbps,
            params=_freeze_params(params),
        )

    @classmethod
    def for_trace(
        cls,
        kind: str,
        function: str,
        trace: str,
        config: RunConfig,
        **params: Any,
    ) -> "JobSpec":
        return cls(
            op="trace",
            config=config,
            kind=kind,
            function=function,
            trace=trace,
            params=_freeze_params(params),
        )

    @classmethod
    def experiment(cls, name: str, config: RunConfig) -> "JobSpec":
        return cls(op="experiment", config=config, name=name)

    @classmethod
    def rack(
        cls,
        member_kind: str,
        function: str,
        trace: str,
        config: RunConfig,
        **params: Any,
    ) -> "JobSpec":
        """A rack-scale trace run (``kind`` holds the member kind; extra
        ``run_rack`` keywords — servers, policy, autoscale — ride in
        ``params``)."""
        return cls(
            op="rack",
            config=config,
            kind=member_kind,
            function=function,
            trace=trace,
            params=_freeze_params(params),
        )

    # -- identity -------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """JSON-able dict that fully determines the job's result."""
        return {
            "op": self.op,
            "kind": self.kind,
            "function": self.function,
            "rate_gbps": self.rate_gbps,
            "trace": self.trace,
            "name": self.name,
            "params": [list(pair) for pair in self.params],
            "config": dataclasses.asdict(self.config),
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress lines and reports."""
        if self.op == "experiment":
            return f"experiment:{self.name}"
        target = f"{self.kind}/{self.function}"
        if self.op == "rack":
            extra = "".join(f" {k}={v}" for k, v in self.params)
            return f"rack:{target}@{self.trace}{extra}"
        if self.op == "trace":
            return f"trace:{target}@{self.trace}"
        extra = "".join(f" {k}={v}" for k, v in self.params)
        return f"run:{target}@{self.rate_gbps:g}Gbps{extra}"
