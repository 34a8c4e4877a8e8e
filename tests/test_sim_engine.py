"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert sim.pending() == 0
    assert sim.peek() is None


def test_schedule_and_run_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_same_time_priority_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, "late", priority=Simulator.PRIORITY_LATE)
    sim.schedule(0.1, fired.append, "normal", priority=Simulator.PRIORITY_NORMAL)
    sim.schedule(0.1, fired.append, "control", priority=Simulator.PRIORITY_CONTROL)
    sim.run()
    assert fired == ["control", "normal", "late"]


def test_same_time_same_priority_fifo():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(0.1, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=0.5)
    assert sim.now == pytest.approx(0.5)
    assert sim.pending() == 1
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, fired.append, "x")
    sim.run()
    handle.cancel()  # must not raise
    assert fired == ["x"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.1, fired.append, "inner")

    sim.schedule(0.1, outer)
    sim.run()
    assert fired == ["outer", "inner"]
    assert sim.now == pytest.approx(0.2)


def test_every_recurs_and_stops():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1

    stop = sim.every(0.1, tick)
    sim.run(until=0.55)
    assert count[0] == 5
    stop()
    sim.run(until=2.0)
    assert count[0] == 5


def test_stopped_recurrence_leaves_nothing_pending():
    """Stopping cancels the pending firing: pending() drops to zero and
    a plain run() neither moves the clock to the dead firing nor counts
    it as an event."""
    sim = Simulator()
    handle = sim.every(1.0, lambda: None)
    sim.run(until=2.5)
    assert sim.pending() == 1
    handle.stop()
    assert sim.pending() == 0
    assert handle.next_time is None
    sim.run()
    assert sim.now == 2.5
    assert sim.events_processed == 2


def test_recurrence_stopped_from_its_own_callback_does_not_rearm():
    sim = Simulator()
    fired = []
    handle = None

    def tick():
        fired.append(sim.now)
        if len(fired) == 3:
            handle.stop()

    handle = sim.every(0.5, tick)
    sim.run()
    assert fired == [0.5, 1.0, 1.5]
    assert sim.pending() == 0


def test_recurrence_rearms_across_heap_compaction():
    """A callback whose cancels compact the heap (replacing the list)
    still gets its next firing pushed onto the live heap."""
    sim = Simulator()
    victims = [sim.schedule(10.0 + i, lambda: None) for i in range(40)]
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 1:
            for victim in victims:
                victim.cancel()

    handle = sim.every(1.0, tick)
    sim.run(until=3.5)
    assert times == [1.0, 2.0, 3.0]
    assert handle.next_time == 4.0
    assert sim.pending() == 1


def test_recurrence_times_accumulate_like_repeated_addition():
    """Each firing is the previous firing time plus the period (the
    float recurrence the LBP tick cursor reproduces)."""
    sim = Simulator()
    times = []
    sim.every(1e-4, lambda: times.append(sim.now))
    sim.run(until=0.01)
    expected = [1e-4]
    while len(expected) < len(times):
        expected.append(expected[-1] + 1e-4)
    assert times == expected


def test_every_with_custom_start():
    sim = Simulator()
    times = []
    sim.every(0.1, lambda: times.append(sim.now), start=0.0)
    sim.run(until=0.25)
    assert times[0] == pytest.approx(0.0)
    assert len(times) == 3


def test_every_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert fired == [1, 2]
    assert not sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    handle.cancel()
    assert sim.peek() == pytest.approx(0.2)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(max_events=3)
    assert sim.events_processed == 3


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.1, reenter)
    sim.run()


def test_clock_advances_to_until_even_with_no_events():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == pytest.approx(3.0)


def test_cancelled_events_compacted_from_heap():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(100)]
    for handle in handles[:60]:
        handle.cancel()
    # more than half the heap was cancelled → lazy compaction kicked in
    # (at the triggering cancel; later cancels below threshold may remain)
    assert len(sim._heap) <= 49
    assert sim.pending() == 40
    sim.run()
    assert sim.events_processed == 40


def test_pending_is_exact_without_compaction():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(10)]
    handles[3].cancel()
    handles[7].cancel()
    assert sim.pending() == 8  # below threshold: no rebuild, still exact
    sim.run()
    assert sim.events_processed == 8


def test_double_cancel_counts_once():
    sim = Simulator()
    keep = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(5)]
    victim = sim.schedule(1.0, lambda: None)
    victim.cancel()
    victim.cancel()
    assert sim.pending() == 5
    sim.run()
    assert sim.events_processed == 5
    assert keep


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    sim.run()
    handle.cancel()  # already fired; must not corrupt the pending count
    assert sim.pending() == 0
    sim.schedule(0.2, lambda: None)
    assert sim.pending() == 1


def test_peek_skips_cancelled_and_keeps_count():
    sim = Simulator()
    first = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    first.cancel()
    assert sim.peek() == pytest.approx(0.2)
    assert sim.pending() == 1


# -- schedule_batch -----------------------------------------------------


def test_schedule_batch_fires_in_order():
    sim = Simulator()
    fired = []
    handle = sim.schedule_batch([0.1, 0.2, 0.3], fired.append, "t")
    assert len(handle) == 3
    assert handle.pending() == 3
    sim.run()
    assert fired == ["t", "t", "t"]
    assert sim.now == pytest.approx(0.3)
    assert handle.pending() == 0


def test_schedule_batch_matches_schedule_at_interleaving():
    """Batched events pop exactly as if schedule_at had been called per
    time — including priority and FIFO ties against individually
    scheduled events at the same instants."""

    def build(use_batch):
        sim = Simulator()
        fired = []
        if use_batch:
            sim.schedule_batch([0.1, 0.2], lambda: fired.append(("b", sim.now)))
        else:
            for t in (0.1, 0.2):
                sim.schedule_at(t, lambda: fired.append(("b", sim.now)))
        sim.schedule_at(0.2, lambda: fired.append(("ctl", sim.now)),
                        priority=Simulator.PRIORITY_CONTROL)
        sim.schedule_at(0.1, lambda: fired.append(("i", sim.now)))
        sim.run()
        return fired

    assert build(True) == build(False)


def test_schedule_batch_large_batch_heapifies():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "tail")
    # batch much larger than the existing heap → extend + heapify path
    times = [0.001 * (i + 1) for i in range(500)]
    sim.schedule_batch(times, lambda: fired.append(sim.now))
    sim.run()
    assert fired[:-1] == sorted(fired[:-1])
    assert len(fired) == 501
    assert fired[-1] == "tail"


def test_schedule_batch_small_batch_pushes():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(0.1 * (i + 1), fired.append, "base")
    # batch far smaller than the heap → individual-push path
    sim.schedule_batch([0.05], fired.append, "batched")
    sim.run()
    assert fired[0] == "batched"
    assert len(fired) == 101


def test_schedule_batch_rejects_descending_times():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_batch([0.2, 0.1], lambda: None)


def test_schedule_batch_rejects_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_batch([0.5], lambda: None)


def test_schedule_batch_empty_is_noop():
    sim = Simulator()
    handle = sim.schedule_batch([], lambda: None)
    assert len(handle) == 0
    assert handle.pending() == 0
    handle.cancel()  # must not raise
    assert sim.pending() == 0


def test_batch_cancel_skips_fired_members():
    sim = Simulator()
    fired = []
    handle = sim.schedule_batch([0.1, 0.2, 0.3, 0.4], lambda: fired.append(sim.now))
    sim.run(until=0.25)
    assert len(fired) == 2
    assert handle.pending() == 2
    handle.cancel()
    assert handle.pending() == 0
    sim.run()
    assert len(fired) == 2  # cancelled members never fire
    assert sim.pending() == 0


def test_batch_cancel_keeps_pending_count_exact():
    sim = Simulator()
    keep = [sim.schedule(1.0 + 0.1 * i, lambda: None) for i in range(3)]
    handle = sim.schedule_batch([0.1 * (i + 1) for i in range(50)], lambda: None)
    handle.cancel()
    handle.cancel()  # idempotent
    assert sim.pending() == 3
    sim.run()
    assert sim.events_processed == 3
    assert keep


# -- max_events / clock semantics ---------------------------------------


def test_max_events_break_leaves_clock_at_last_event():
    """Stopping on the event budget must not fast-forward the clock to
    ``until`` — the heap was not drained past it."""
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run(until=5.0, max_events=3)
    assert sim.now == pytest.approx(0.3)
    assert sim.pending() == 7


def test_until_fastforward_still_happens_when_drained():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.run(until=5.0, max_events=100)
    assert sim.now == pytest.approx(5.0)


def test_max_events_zero_executes_nothing():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    sim.run(max_events=0)
    assert sim.events_processed == 0
    assert sim.pending() == 1
    assert sim.now == 0.0


# -- cancelled-counter audit --------------------------------------------


def test_cancelled_counter_stress_across_peek_pop_compact():
    """pending() stays exact under interleaved schedule / cancel / peek /
    step / run — whichever of pop, peek, or compaction reaps a cancelled
    entry must decrement the counter exactly once."""
    import random

    rng = random.Random(1234)
    sim = Simulator()
    live = []
    expected = 0
    for round_no in range(60):
        for _ in range(rng.randrange(1, 12)):
            handle = sim.schedule(rng.uniform(0.0, 2.0), lambda: None)
            live.append(handle)
            expected += 1
        rng.shuffle(live)
        for _ in range(min(len(live), rng.randrange(0, 8))):
            victim = live.pop()
            if victim._event[5] == 0:  # pending
                expected -= 1
            victim.cancel()
            victim.cancel()
        assert sim.pending() == expected, f"round {round_no}"
        if rng.random() < 0.4:
            sim.peek()
            assert sim.pending() == expected
        if rng.random() < 0.3:
            before = sim.events_processed
            if sim.step():
                expected -= 1
                assert sim.events_processed == before + 1
            assert sim.pending() == expected
    fired_remaining = sim.pending()
    before = sim.events_processed
    sim.run()
    assert sim.events_processed == before + fired_remaining
    assert sim.pending() == 0
    assert sim._cancelled_in_heap == 0
