"""Host-speed calibration for the untraced runs.

The reference machine is shared.  It switches between a fast and a slow
state every tenth of a second or so, and the share of time it spends in
each drifts over minutes.  A :class:`Calibrator` times a fixed
pure-Python loop (:func:`calibration_sample`, no simulator code) with as
many processes busy at once as the workload keeps busy.  :mod:`timing`
takes a round of samples before every stretch of about ``WINDOW_S`` host
seconds and rescales the stretch by the speed the round found, so a run
that met a slow machine is not read as a slow simulator.

The loop is plain float arithmetic through the interpreter.  Over a
minute of interleaved samples, it and the packet cells slowed down by
about the same factor from the fast state to the slow one (1.24 to 1.34,
against 1.26 to 1.30), while a heap-and-closure event loop slowed down
by 1.6 to 1.7 and over-corrected: with it, ``fabric-k1``'s ``wall_s``
spread by 0.068 over six seeds, against 0.027 with this loop.

Helper processes are forked, never spawned: a spawned process makes
``multiprocessing`` start a resource-tracker process that nothing joins
and that outlives the benchmark.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from time import perf_counter
from typing import Any, Dict, List, Sequence

#: loop steps per sample (about half a millisecond at the host's best
#: speed), and the seconds one sample stands for in reported host times
CAL_STEPS = 6000
CAL_NOMINAL_S = 0.5e-3


def calibration_sample() -> float:
    """Seconds one fixed interpreter loop takes on this host right now."""
    total = 0.0
    start = perf_counter()
    for step in range(CAL_STEPS):
        total += math.sqrt(step) * 1.0001
    return perf_counter() - start


def quantile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated ``fraction`` quantile of ``samples``."""
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _helper(conn: Any) -> None:
    """Helper process: take the requested number of samples, reply."""
    while True:
        count = conn.recv()
        if count is None:
            break
        conn.send([calibration_sample() for _ in range(count)])
    conn.close()


class Calibrator:
    """Calibration rounds of ``processes`` processes busy at once.

    ``processes - 1`` helper processes wait, idle, between rounds; close
    the calibrator to stop them."""

    def __init__(self, processes: int) -> None:
        self.samples: List[List[float]] = [[] for _ in range(processes)]
        self._helpers: List[Any] = []
        self._conns: List[Any] = []
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(processes - 1):
                parent, child = context.Pipe()
                helper = context.Process(target=_helper, args=(child,), daemon=True)
                helper.start()
                child.close()
                self._helpers.append(helper)
                self._conns.append(parent)
        except BaseException:
            self.close()
            raise

    def factor(self, samples: int) -> float:
        """One round: every process takes ``samples`` samples at once.
        Returns the factor taking a host time measured right after it to
        the nominal speed (by the median of each process's samples, so a
        sample hit by a preemption does not move it, averaged over the
        processes)."""
        for conn in self._conns:
            conn.send(samples)
        rounds = [[calibration_sample() for _ in range(samples)]]
        rounds.extend(conn.recv() for conn in self._conns)
        for samples, taken in zip(self.samples, rounds):
            samples.extend(taken)
        return CAL_NOMINAL_S / statistics.fmean(statistics.median(r) for r in rounds)

    def stats(self) -> List[Dict[str, Any]]:
        """Per sampling process: how many samples, and their quantiles."""
        return [
            {
                "n": len(samples),
                "min": min(samples),
                "p10": quantile(samples, 0.1),
                "p50": quantile(samples, 0.5),
                "p90": quantile(samples, 0.9),
            }
            for samples in self.samples
            if samples
        ]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for helper in self._helpers:
            helper.join(timeout=5.0)
            if helper.is_alive():
                helper.terminate()
                helper.join(timeout=1.0)
        self._conns = []
        self._helpers = []
