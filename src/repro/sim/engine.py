"""Discrete-event simulation kernel.

The whole reproduction runs on this small engine: a monotonic simulation
clock, a binary-heap event queue, and a handful of conveniences for the
periodic processes (LBP epochs, throughput windows, probe sampling) that
the HAL system is built from.

Time is expressed in **seconds** as floats; sub-microsecond resolution is
ample for the microsecond-scale latencies the paper measures.

Event representation
--------------------
Events are plain lists ``[time, priority, seq, callback, args, status]``
rather than objects: heap comparisons stop at the unique ``seq`` (so the
callback is never compared), pushes allocate one small list, and the
``run()`` loop indexes slots directly instead of chasing attributes.
``status`` is one of the ``_PENDING``/``_CANCELLED``/``_POPPED``
module constants; cancellation flips it in place, and the heap compacts
cancelled entries lazily once they outnumber the live ones.
"""

from __future__ import annotations

import itertools
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, cast

# event slot indices
_TIME = 0
_PRIORITY = 1
_SEQ = 2
_CALLBACK = 3
_ARGS = 4
_STATUS = 5

# event status values
_PENDING = 0
_CANCELLED = 1
_POPPED = 2


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


def _cancel(event: List[Any], sim: "Simulator") -> None:
    """Cancel a pending event; a no-op if it already fired or was cancelled."""
    if event[_STATUS] != _PENDING:
        return
    event[_STATUS] = _CANCELLED
    event[_CALLBACK] = event[_ARGS] = None  # release references early
    sim._note_cancelled(1)


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: List[Any], sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        return cast(float, self._event[_TIME])

    @property
    def seq(self) -> int:
        """Insertion sequence number (the heap's final tie-break).

        Checkpoint code records it to re-arm coexisting pending events in
        their original relative order; the absolute value is meaningless.
        """
        return cast(int, self._event[_SEQ])

    @property
    def pending(self) -> bool:
        return bool(self._event[_STATUS] == _PENDING)

    @property
    def cancelled(self) -> bool:
        return bool(self._event[_STATUS] == _CANCELLED)

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        _cancel(self._event, self._sim)


class BatchHandle:
    """Handle to a batch of events scheduled with :meth:`Simulator.schedule_batch`.

    Cancelling the batch cancels every member that has not fired yet (one
    counter update + at most one heap compaction, however many remain).
    """

    __slots__ = ("_events", "_sim")

    def __init__(self, events: List[List[Any]], sim: "Simulator") -> None:
        self._events = events
        self._sim = sim

    def __len__(self) -> int:
        return len(self._events)

    def pending(self) -> int:
        """Members that have neither fired nor been cancelled."""
        return sum(1 for event in self._events if event[_STATUS] == _PENDING)

    def cancel(self) -> None:
        """Cancel every not-yet-fired member of the batch."""
        cancelled = 0
        for event in self._events:
            if event[_STATUS] == _PENDING:
                event[_STATUS] = _CANCELLED
                event[_CALLBACK] = event[_ARGS] = None
                cancelled += 1
        if cancelled:
            self._sim._note_cancelled(cancelled)


class RecurrenceHandle:
    """Stop/inspect handle for a recurrence built by :meth:`Simulator.every`.

    Calling the handle stops the recurrence (the historical contract:
    ``every()`` used to return a bare stop closure, and every call site
    just invokes it); stopping cancels the pending firing, so
    :meth:`Simulator.pending` stays exact.  On top of that it exposes the
    *currently pending* firing — next time and insertion seq — which is
    what lets checkpoint code snapshot a recurrence and re-arm it
    phase-exactly at restore
    (``sim.every(period, cb, start=next_time, priority=priority)``).
    """

    __slots__ = ("period", "priority", "stopped", "_event", "_sim")

    def __init__(self, period: float, priority: int, sim: "Simulator") -> None:
        self.period = period
        self.priority = priority
        self.stopped = False
        self._event: Optional[List[Any]] = None
        self._sim = sim

    def __call__(self) -> None:
        self.stop()

    def stop(self) -> None:
        self.stopped = True
        if self._event is not None:
            _cancel(self._event, self._sim)

    @property
    def next_time(self) -> Optional[float]:
        """Absolute time of the next firing; None once stopped/expired."""
        event = self._event
        if self.stopped or event is None or event[_STATUS] != _PENDING:
            return None
        return cast(float, event[_TIME])

    @property
    def next_seq(self) -> Optional[int]:
        """Insertion seq of the next firing; None once stopped/expired."""
        event = self._event
        if self.stopped or event is None or event[_STATUS] != _PENDING:
            return None
        return cast(int, event[_SEQ])


class Simulator:
    """A discrete-event simulator with a priority-ordered event heap.

    Events scheduled for the same instant fire in (priority, insertion)
    order, so components can guarantee e.g. that a rate-window rollover is
    observed before the packets of the next window arrive.
    """

    #: priority for ordinary events
    PRIORITY_NORMAL = 10
    #: priority for control-plane events that must precede data events
    PRIORITY_CONTROL = 0
    #: priority for bookkeeping that must follow data events
    PRIORITY_LATE = 20

    #: cancelled events are compacted out of the heap once they outnumber
    #: the live ones (and the heap is big enough for a rebuild to pay off)
    _COMPACT_MIN_CANCELLED = 16

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._cancelled_in_heap = 0
        # observability hook (repro.obs): None in untraced runs, so the
        # run() loop is untouched and only rare kernel-internal moments
        # (heap compaction) pay an is-not-None branch; typed Any rather
        # than the obs Tracer protocol to keep the kernel import-free
        self.tracer: Optional[Any] = None

    def set_tracer(self, tracer: Any) -> None:
        """Attach an ``repro.obs`` tracer (kernel-internal events only;
        periodic dispatch counters come from the system's probe pump)."""
        self.tracer = tracer

    def _note_cancelled(self, count: int) -> None:
        self._cancelled_in_heap += count
        if (
            self._cancelled_in_heap > self._COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            before = len(self._heap)
            self._heap = [e for e in self._heap if e[_STATUS] == _PENDING]
            _heapify(self._heap)
            self._cancelled_in_heap = 0
            if self.tracer is not None:
                self.tracer.instant(
                    "kernel",
                    "heap_compaction",
                    self._now,
                    {"before": before, "after": len(self._heap)},
                )

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        event = [when, priority, next(self._seq), callback, args, _PENDING]
        _heappush(self._heap, event)
        return EventHandle(event, self)

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        event = [when, priority, next(self._seq), callback, args, _PENDING]
        _heappush(self._heap, event)
        return EventHandle(event, self)

    def schedule_batch(
        self,
        times: Iterable[float],
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> BatchHandle:
        """Schedule ``callback(*args)`` at each absolute time in ``times``.

        ``times`` must be ascending and not in the past. This is the bulk
        counterpart of :meth:`schedule_at` for pre-computed arrival trains:
        large batches are appended and re-heapified in one O(n + m) pass
        instead of m individual O(log n) sifts. Event identity (seq order,
        priority semantics) is exactly as if :meth:`schedule_at` had been
        called once per time, so pop order is unchanged.
        """
        heap = self._heap
        seq = self._seq
        prev = self._now
        events: List[List[Any]] = []
        for when in times:
            if when < prev:
                raise SimulationError(
                    f"schedule_batch times must be ascending and not in the "
                    f"past (got {when} after {prev})"
                )
            prev = when
            events.append([when, priority, next(seq), callback, args, _PENDING])
        if events:
            # a heapify rebuild costs O(n + m); m pushes cost O(m log n).
            # Rebuild when the batch is big relative to the live heap.
            if len(events) * 4 >= len(heap):
                heap.extend(events)
                _heapify(heap)
            else:
                for event in events:
                    _heappush(heap, event)
        return BatchHandle(events, self)

    def every(
        self,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        start: Optional[float] = None,
        priority: int = PRIORITY_CONTROL,
    ) -> RecurrenceHandle:
        """Run ``callback(*args)`` every ``period`` seconds.

        Returns a :class:`RecurrenceHandle`; calling it stops the
        recurrence. The first firing is at ``start`` (absolute) if given,
        else one period from now.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive (got {period})")
        handle = RecurrenceHandle(period, priority, self)
        seq = self._seq

        def fire() -> None:
            callback(*args)
            if not handle.stopped:
                # push the next firing directly; self._heap is read now
                # because a compaction may have replaced the list
                event = [self._now + period, priority, next(seq), fire, (), _PENDING]
                _heappush(self._heap, event)
                handle._event = event

        first = start if start is not None else self._now + period
        handle._event = self.schedule_at(first, fire, priority=priority)._event
        return handle

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap is empty, ``until`` is reached, or
        ``max_events`` have been executed. Returns the final clock value.

        The clock only fast-forwards to ``until`` when the event heap was
        genuinely drained past it; stopping early on ``max_events`` leaves
        the clock at the last executed event.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        # localize everything the loop touches: the heap list, heappop, and
        # the budget counter live in locals; only _now (which callbacks read
        # through .now) is written back per event
        heap = self._heap
        pop = _heappop
        executed = 0
        budget = float("inf") if max_events is None else max_events
        hit_budget = False
        try:
            while heap:
                if executed >= budget:
                    hit_budget = True
                    break
                event = heap[0]
                when = event[_TIME]
                if until is not None and when > until:
                    break
                pop(heap)
                status = event[_STATUS]
                event[_STATUS] = _POPPED
                if status == _CANCELLED:
                    self._cancelled_in_heap -= 1
                    continue
                self._now = when
                event[_CALLBACK](*event[_ARGS])
                executed += 1
                self._events_processed += 1
                if heap is not self._heap:
                    # a cancel-triggered compaction replaced the heap list
                    heap = self._heap
            if until is not None and not hit_budget and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one pending event. Returns False if none remain."""
        while self._heap:
            event = _heappop(self._heap)
            status = event[_STATUS]
            event[_STATUS] = _POPPED
            if status == _CANCELLED:
                self._cancelled_in_heap -= 1
                continue
            self._now = event[_TIME]
            event[_CALLBACK](*event[_ARGS])
            self._events_processed += 1
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][_STATUS] == _CANCELLED:
            _heappop(heap)[_STATUS] = _POPPED
            self._cancelled_in_heap -= 1
        return cast(float, heap[0][_TIME]) if heap else None

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return len(self._heap) - self._cancelled_in_heap

    # -- checkpoint/restore primitives ----------------------------------
    #
    # The heap itself is deliberately *not* serialized: pending events
    # hold closures (recurrence ``fire`` wrappers, wake completions), so
    # a checkpoint records component state + timer phases instead and a
    # restore rebuilds the components and re-arms their timers.  Only the
    # relative seq order of coexisting pending events affects pop order,
    # so re-arming in ascending original-seq order on a fresh counter
    # reproduces the identical event sequence (see repro.serve.state).

    def clock_state(self) -> Dict[str, Any]:
        """The restorable clock portion of the engine's state."""
        return {"now": self._now, "events_processed": self._events_processed}

    def clear_events(self) -> int:
        """Drop every scheduled event; returns how many were live.

        Checkpoint-restore preamble: a freshly built component tree has
        construction-time timers in the heap that the restore re-arms
        with snapshot phases instead.
        """
        if self._running:
            raise SimulationError("cannot clear events while running")
        live = self.pending()
        self._heap = []
        self._cancelled_in_heap = 0
        return live

    def restore_clock(self, now: float, events_processed: int = 0) -> None:
        """Reset the clock to a snapshot taken by :meth:`clock_state`.

        Requires an empty heap (``clear_events`` first): rewinding or
        advancing the clock under pending events would fire them at the
        wrong instants.
        """
        if self._running:
            raise SimulationError("cannot restore the clock while running")
        if self._heap:
            raise SimulationError(
                "restore_clock requires an empty heap (call clear_events first)"
            )
        self._now = now
        self._events_processed = events_processed
