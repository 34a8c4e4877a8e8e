"""Tracer protocol, recording tracer, and the ambient trace session.

Design constraints, in priority order:

1. **Zero overhead untraced.**  Components store ``tracer = None`` by
   default and guard every emission with ``if tracer is not None`` —
   one pointer comparison, no allocation, no call.  The CI e2e gate
   (``benchmarks/e2e``, 10 % bounds against the parent commit) enforces
   this stays cheap.
2. **Simulated-time stamps.**  Every event carries the simulation
   clock, not wall time, so a traced run is deterministic: the same
   spec produces the same trace, byte for byte, and two traces diff.
3. **Bounded memory.**  A :class:`RecordingTracer` stops appending past
   ``max_events`` and counts what it dropped; a runaway trace degrades
   to a truncated one, never to an OOM.

A :class:`TraceSession` groups one tracer per simulation run (an
experiment is a grid of independent runs, each with its own clock
starting at zero) — the exporter maps runs to Perfetto *processes* and
tracks to *threads*, which keeps per-track timestamps monotone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.flight import FlightRecorder
from repro.obs.probes import ProbeRegistry

# event-tuple phase tags (match the Chrome trace-event "ph" values)
PH_INSTANT = "i"
PH_COUNTER = "C"
PH_SPAN = "X"


class Tracer:
    """The tracing protocol.

    ``enabled`` is a class attribute components may branch on; the
    emission methods take explicit simulated-time stamps so callers
    never need a clock reference of their own.
    """

    enabled = False

    def instant(
        self, track: str, name: str, ts: float, args: Optional[Dict[str, Any]] = None
    ) -> None:
        """A point event (e.g. one LBP decision) at simulated ``ts``."""

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        """One sample of a named counter/gauge series."""

    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A duration event covering ``[start, end]`` simulated seconds."""

    def set_label(self, label: str) -> None:
        """Rename the run this tracer records (e.g. once the rate is known)."""


class NullTracer(Tracer):
    """The default: records nothing, allocates nothing."""

    enabled = False


#: the shared no-op instance; safe because it is stateless
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Captures events for one simulation run, bounded by ``max_events``.

    Events are stored as plain tuples ``(ph, track, name, ts, ...)`` —
    the cheapest append Python offers — and interpreted only at export
    time.  ``ts``/``start`` are simulated seconds.
    """

    enabled = True

    def __init__(self, label: str, max_events: int = 200_000, index: int = 0) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.index = index
        self.label = f"run{index}:{label}"
        self.max_events = max_events
        self.events: List[Tuple] = []
        self.dropped = 0

    def _room(self) -> bool:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return False
        return True

    def instant(
        self, track: str, name: str, ts: float, args: Optional[Dict[str, Any]] = None
    ) -> None:
        if self._room():
            self.events.append((PH_INSTANT, track, name, ts, args))

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        if self._room():
            self.events.append((PH_COUNTER, track, name, ts, value))

    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self._room():
            self.events.append((PH_SPAN, track, name, start, end - start, args))

    def set_label(self, label: str) -> None:
        """Re-label this run, keeping the unique ``runN:`` prefix."""
        self.label = f"run{self.index}:{label}"

    def tracks(self) -> List[str]:
        """Distinct track names, in first-emission order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event[1])
        return list(seen)


class TraceSession:
    """One tracing context: a tracer per run, shared probes, a flight
    recorder, and the capture-tap configuration.

    ``capture_packets`` > 0 asks systems to attach
    :class:`~repro.net.capture.CaptureTap` windows of that many packets
    at the eSwitch ports and the client egress.
    """

    enabled = True

    def __init__(
        self,
        max_events_per_run: int = 200_000,
        capture_packets: int = 0,
        probe_interval_s: Optional[float] = None,
    ) -> None:
        if capture_packets < 0:
            raise ValueError("capture_packets cannot be negative")
        self.max_events_per_run = max_events_per_run
        self.capture_packets = capture_packets
        self.probe_interval_s = probe_interval_s
        self.runs: List[RecordingTracer] = []
        self.probes = ProbeRegistry()
        self.flight = FlightRecorder()

    def new_run(self, label: str) -> RecordingTracer:
        """A fresh tracer for one simulation run (one Perfetto process)."""
        tracer = RecordingTracer(
            label, self.max_events_per_run, index=len(self.runs)
        )
        self.runs.append(tracer)
        return tracer

    def total_events(self) -> int:
        return sum(len(run.events) for run in self.runs)

    def total_dropped(self) -> int:
        return sum(run.dropped for run in self.runs)


class _NullSession:
    """Disabled session: ``new_run`` hands back the shared null tracer."""

    enabled = False
    capture_packets = 0
    probe_interval_s = None

    def new_run(self, label: str) -> NullTracer:
        return NULL_TRACER


NULL_SESSION = _NullSession()

_current: Any = NULL_SESSION


def current_session() -> Any:
    """The ambient session (the disabled :data:`NULL_SESSION` by default)."""
    return _current


@contextmanager
def use_session(session: TraceSession) -> Iterator[TraceSession]:
    """Make ``session`` ambient for the duration of the block.

    Systems constructed inside the block trace into it; systems
    constructed outside (including in worker processes — tracing is
    in-process only) keep the null tracer.
    """
    global _current
    previous = _current
    _current = session
    try:
        yield session
    finally:
        _current = previous
