"""Host time at nominal host speed: the clock of the untraced runs.

The shared host changes speed from one tenth of a second to the next
(see ``calibration.py``), so a whole repeat's host time mixes fast and
slow stretches in proportions that differ from run to run.  A
:class:`ScaledClock` therefore cuts each repeat into stretches of about
``WINDOW_S`` host seconds, takes a calibration round before each
stretch (``calibration.py``), and rescales the stretch's seconds by the speed that round
found.  The rescaled stretches are summed per phase (``setup``, ``run``,
...).  The calibration rounds sit between stretches and are not counted.

A stretch ends at a phase change, or at the first cut point after it has
lasted ``WINDOW_S``.  The cut points:

* every ``CHUNK_S`` simulated seconds inside :meth:`Simulator.run`: a run
  to ``until`` is executed as consecutive runs to ``now + CHUNK_S``,
  which pops the same events in the same order (the kernel only
  fast-forwards its clock between chunks, when no callback is running);
* before and after each :meth:`ShardedRunner.step` (one fabric barrier).

Forked fabric workers inherit the chunked ``Simulator.run``; their cut
points are ignored, because the workers' time is the parent's wait in
``ShardedRunner.step``.  The traced runs execute ``Simulator.run``
unsplit, and their payloads must hash like the untraced ones.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, Optional

import repro.exp  # noqa: F401  (import order: exp must load before runner)
from repro.runner.sharded import ShardedRunner
from repro.sim.engine import Simulator

#: simulated seconds per chunk of a ``Simulator.run``
CHUNK_S = 1e-3
#: host seconds a stretch lasts at least before a cut point ends it
WINDOW_S = 0.05
#: calibration samples per busy process in the round that starts a phase,
#: and in the round between two stretches of one phase.  A phase can be a
#: single stretch (a setup takes milliseconds), so its round is the
#: longer one: with 3 samples, the per-run setup times spread more once
#: rescaled than raw
PHASE_SAMPLES = 9
WINDOW_SAMPLES = 3


class ScaledClock:
    """Per-phase host time of the running repeat, raw and rescaled."""

    def __init__(self, calibrator: Any) -> None:
        self.calibrator = calibrator
        self._pid = os.getpid()
        self._phase: Optional[str] = None
        self._start = 0.0
        self._factor = 1.0
        self._raw: Dict[str, float] = {}
        self._scaled: Dict[str, float] = {}
        self._originals = [
            (Simulator, "run", Simulator.run),
            (ShardedRunner, "step", ShardedRunner.step),
        ]
        self._patch()

    def close(self) -> None:
        """Put back what :meth:`_patch` replaced."""
        for owner, name, original in self._originals:
            setattr(owner, name, original)

    def phase(self, name: str, calibrate: bool = True) -> None:
        """End the current stretch and start phase ``name`` here, after a
        round of ``PHASE_SAMPLES`` (at the speed of the last round
        instead, unless ``calibrate``)."""
        self._end_stretch()
        self._begin_stretch(name, PHASE_SAMPLES if calibrate else 0)

    def mark(self) -> None:
        """A cut point: end the stretch if it has lasted ``WINDOW_S``, and
        go on after a round of ``WINDOW_SAMPLES``."""
        if self._phase is None or os.getpid() != self._pid:
            return
        if perf_counter() - self._start >= WINDOW_S:
            self._end_stretch()
            self._begin_stretch(self._phase, WINDOW_SAMPLES)

    def stop(self) -> Dict[str, Dict[str, float]]:
        """End the repeat; its ``raw`` and ``scaled`` seconds per phase."""
        self._end_stretch()
        result = {"raw": self._raw, "scaled": self._scaled}
        self._raw, self._scaled, self._phase = {}, {}, None
        return result

    def _begin_stretch(self, name: str, samples: int) -> None:
        if samples:
            self._factor = self.calibrator.factor(samples)
        self._phase = name
        self._start = perf_counter()

    def _end_stretch(self) -> None:
        if self._phase is None:
            return
        seconds = perf_counter() - self._start
        self._raw[self._phase] = self._raw.get(self._phase, 0.0) + seconds
        self._scaled[self._phase] = (
            self._scaled.get(self._phase, 0.0) + seconds * self._factor
        )

    def _patch(self) -> None:
        clock = self
        run = Simulator.run
        step = ShardedRunner.step

        def chunked_run(
            sim: Any, until: Optional[float] = None, max_events: Optional[int] = None
        ) -> float:
            if until is None or max_events is not None:
                now = run(sim, until, max_events)
                clock.mark()
                return now
            while True:
                target = min(until, sim.now + CHUNK_S)
                now = run(sim, target)
                clock.mark()
                if target >= until:
                    return now

        def marked_step(runner: Any, inputs: Any) -> Any:
            clock.mark()
            try:
                return step(runner, inputs)
            finally:
                clock.mark()

        Simulator.run = chunked_run  # type: ignore[method-assign]
        ShardedRunner.step = marked_step  # type: ignore[method-assign]
