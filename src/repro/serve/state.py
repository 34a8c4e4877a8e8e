"""Shard state walkers: snapshot/restore a rack at an epoch barrier.

The simulator's event heap is never serialized — pending events hold
closures (recurrence ``fire`` wrappers, autoscaler wake completions) —
so a checkpoint records *component state plus timer phases* and a
restore rebuilds the component tree from its spec and re-arms the
timers.  Correctness rests on one property of the engine: only the
**relative seq order of coexisting pending events** affects pop order.
Re-arming every live timer in ascending original-seq order on a fresh
seq counter therefore reproduces the identical event sequence, and with
identical component state and RNG streams the resumed run is
byte-identical to the uninterrupted one.

The timers are the rack tick, the autoscaler tick and pending wakes.
The rack tick is the one flow-mode run loop
(:class:`repro.flow.system.RackStepper`, which a single flow server
also runs, as a rack of one); it alone counts generated packets, so a
member's state has no generated count (checkpoint version 3).
Algorithm 1 is not among them: in both simulation modes the policy is
evaluated on demand
(:meth:`repro.core.lbp.LoadBalancingPolicy.advance_to`), so its tick
cursor ``next_tick_s`` is component state, and ticks still pending
since the last station advance are evaluated after the resume exactly
as they would have been without it.  (In packet mode the same cursor
took the LBP ticks off the heap: rack8-web, seed 1, runs 13,745
simulator events instead of 31,345.)

The two entry points are module-level functions with the
``(shard, arg)`` signature :meth:`repro.runner.sharded.ShardedRunner.apply`
resolves by dotted path, so the parent process can snapshot and restore
shards living in worker processes without new runner verbs:

* ``repro.serve.state:shard_state`` — snapshot one rack shard;
* ``repro.serve.state:restore_shard`` — overwrite a freshly built
  shard with a snapshot taken at the same epoch barrier.

What is deliberately **not** captured: the telemetry side (probe
registries, delta taps) — probe deltas are recomputed per epoch from
the restored counters, so resumed telemetry streams are correct without
carrying observer state; and ``RunMetrics`` — in flow mode it is only
filled at ``finish`` from state this walker does capture.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.cluster.autoscaler import RackAutoscaler
from repro.core.lbp import LoadBalancingPolicy
from repro.fabric.shard import RackShard, RackSnapshot
from repro.flow.station import FlowStation
from repro.sim.engine import Simulator

#: timer-record kinds, in the vocabulary of :func:`_collect_timers`
_TIMER_STEPPER = "stepper_tick"
_TIMER_AUTOSCALER = "autoscaler_tick"
_TIMER_WAKE = "wake"


# -- per-component walkers (snapshot) ------------------------------------


def _station_state(station: FlowStation) -> Dict[str, Any]:
    return {
        "name": station.name,
        "backlog_packets": station.backlog_packets,
        "sleeping": station.sleeping,
        "wake_remaining_s": station._wake_remaining_s,
        "idle_s": station._idle_s,
        "rate_bps_ewma": station._rate_bps_ewma,
        "last_busy_fraction": station._last_busy_fraction,
        "received_packets": station.received_packets,
        "delivered_packets": station.delivered_packets,
        "delivered_bits": station.delivered_bits,
        "dropped_packets": station.dropped_packets,
        "wake_count": station.wake_count,
        "rings": [ring.occupancy_packets for ring in station._rings],
        "in_pipeline": list(station._in_pipeline),
    }


def _restore_station(station: FlowStation, state: Dict[str, Any]) -> None:
    if station.name != state["name"]:
        raise ValueError(
            f"station mismatch: rebuilt {station.name!r}, "
            f"snapshot {state['name']!r}"
        )
    station.backlog_packets = state["backlog_packets"]
    station.sleeping = state["sleeping"]
    station._wake_remaining_s = state["wake_remaining_s"]
    station._idle_s = state["idle_s"]
    station._rate_bps_ewma = state["rate_bps_ewma"]
    station._last_busy_fraction = state["last_busy_fraction"]
    station.received_packets = state["received_packets"]
    station.delivered_packets = state["delivered_packets"]
    station.delivered_bits = state["delivered_bits"]
    station.dropped_packets = state["dropped_packets"]
    station.wake_count = state["wake_count"]
    for ring, occupancy in zip(station._rings, state["rings"]):
        ring.occupancy_packets = occupancy
    station._in_pipeline = list(state["in_pipeline"])


def _lbp_state(lbp: LoadBalancingPolicy) -> Dict[str, Any]:
    # no timer: the policy is evaluated on demand, so its tick cursor is
    # all the phase there is
    return {
        "adjustments_up": lbp.adjustments_up,
        "adjustments_down": lbp.adjustments_down,
        "threshold_history": list(lbp.threshold_history),
        "estimator_last_bits": lbp._estimator._last_bits,
        "estimator_last_time": lbp._estimator._last_time,
        "next_tick_s": lbp.next_tick_s,
    }


def _restore_lbp(lbp: LoadBalancingPolicy, state: Dict[str, Any]) -> None:
    lbp.adjustments_up = state["adjustments_up"]
    lbp.adjustments_down = state["adjustments_down"]
    lbp.threshold_history = list(state["threshold_history"])
    lbp._estimator._last_bits = state["estimator_last_bits"]
    lbp._estimator._last_time = state["estimator_last_time"]
    lbp.next_tick_s = state["next_tick_s"]


def _member_state(member: Any) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "kind": member.kind,
        "samples": [[latency, weight] for latency, weight in member._samples],
        "delivered_packets": member._delivered_packets,
        "delivered_bits": member._delivered_bits,
        "dropped_packets": member._dropped_packets,
        "power": {
            "integrator": member.power.integrator.state_dict(),
            "server_asleep": member.power.server_asleep,
        },
        "stations": [_station_state(s) for s in member.engines()],
    }
    lbp = getattr(member, "lbp", None)
    if lbp is not None:
        state["lbp"] = _lbp_state(lbp)
    director = getattr(member, "director", None)
    if director is not None:
        state["director"] = {
            "fwd_threshold_gbps": director._fwd_threshold_gbps,
            "tokens_bits": director._tokens_bits,
            "last_refill": director._last_refill,
            "stats": asdict(director.stats),
        }
    if hasattr(member, "_merged_packets"):
        state["merged_packets"] = member._merged_packets
    return state


def _restore_member(member: Any, state: Dict[str, Any]) -> None:
    if member.kind != state["kind"]:
        raise ValueError(
            f"member mismatch: rebuilt {member.kind!r}, "
            f"snapshot {state['kind']!r}"
        )
    member._samples = [
        (latency, weight) for latency, weight in state["samples"]
    ]
    member._delivered_packets = state["delivered_packets"]
    member._delivered_bits = state["delivered_bits"]
    member._dropped_packets = state["dropped_packets"]
    member.power.integrator.restore_state(state["power"]["integrator"])
    member.power.server_asleep = state["power"]["server_asleep"]
    stations = member.engines()
    if len(stations) != len(state["stations"]):
        raise ValueError(
            f"station count mismatch: rebuilt {len(stations)}, "
            f"snapshot {len(state['stations'])}"
        )
    for station, station_state in zip(stations, state["stations"]):
        _restore_station(station, station_state)
    if "lbp" in state:
        _restore_lbp(member.lbp, state["lbp"])
    if "director" in state:
        director = member.director
        director_state = state["director"]
        director._fwd_threshold_gbps = director_state["fwd_threshold_gbps"]
        director._capacity_bits = director._bucket_capacity_bits()
        director._tokens_bits = director_state["tokens_bits"]
        director._last_refill = director_state["last_refill"]
        for field, value in director_state["stats"].items():
            setattr(director.stats, field, value)
    if "merged_packets" in state:
        member._merged_packets = state["merged_packets"]


# -- timer inventory ------------------------------------------------------


def _timer_record(
    kind: str, time: Optional[float], seq: Optional[int]
) -> Optional[Dict[str, Any]]:
    if time is None or seq is None:
        return None
    return {"kind": kind, "time": time, "seq": seq}


def _collect_timers(shard: RackShard) -> List[Dict[str, Any]]:
    """Every live timer in the shard, with its next firing time and the
    original insertion seq (the re-arm sort key)."""
    timers: List[Dict[str, Any]] = []
    tick = shard.stepper._stop_tick
    record = _timer_record(_TIMER_STEPPER, tick.next_time, tick.next_seq)
    if record is not None:
        timers.append(record)
    autoscaler = shard.cluster.autoscaler
    if autoscaler is not None:
        record = _timer_record(
            _TIMER_AUTOSCALER,
            autoscaler._stop.next_time,
            autoscaler._stop.next_seq,
        )
        if record is not None:
            timers.append(record)
        for index, handle in autoscaler._pending_wakes.items():
            if handle.pending:
                timers.append(
                    {
                        "kind": _TIMER_WAKE,
                        "time": handle.time,
                        "seq": handle.seq,
                        "server": index,
                    }
                )
    return timers


def _rearm_timers(shard: RackShard, timers: List[Dict[str, Any]]) -> None:
    """Re-arm snapshot timers in ascending original-seq order.

    The fresh shard's construction-time timers were already discarded
    with the event heap; each re-arm creates a new recurrence/event
    whose handle replaces the component's stale one.
    """
    sim = shard.cluster.sim
    autoscaler = shard.cluster.autoscaler
    for record in sorted(timers, key=lambda r: int(r["seq"])):
        kind = record["kind"]
        when = record["time"]
        if kind == _TIMER_STEPPER:
            shard.stepper._stop_tick = sim.every(
                shard.stepper.interval_s,
                shard.stepper._tick,
                start=when,
                priority=Simulator.PRIORITY_NORMAL,
            )
        elif kind == _TIMER_AUTOSCALER:
            if autoscaler is None:
                raise ValueError("snapshot has an autoscaler tick; shard has none")
            autoscaler._stop = sim.every(
                autoscaler.config.period_s, autoscaler._tick, start=when
            )
        elif kind == _TIMER_WAKE:
            if autoscaler is None:
                raise ValueError("snapshot has a pending wake; shard has no autoscaler")
            index = int(record["server"])
            autoscaler._pending_wakes[index] = sim.schedule_at(
                when, autoscaler._finish_wake, autoscaler.servers[index]
            )
        else:
            raise ValueError(f"unknown timer kind {kind!r} in snapshot")


def _stop_fresh_timers(shard: RackShard) -> None:
    """Mark the fresh shard's construction-time recurrences stopped so a
    stale ``fire`` closure can never re-schedule after the heap clear."""
    shard.stepper._stop_tick.stop()
    if shard.cluster.autoscaler is not None:
        shard.cluster.autoscaler._stop.stop()


def _autoscaler_state(autoscaler: RackAutoscaler) -> Dict[str, Any]:
    return {
        "wakes": autoscaler.wakes,
        "sleeps": autoscaler.sleeps,
        "rate_ewma_gbps": autoscaler.rate_ewma_gbps,
        "last_bits": autoscaler._last_bits,
        "surplus_ticks": autoscaler._surplus_ticks,
        "active_integral": autoscaler._active_integral,
        "last_t": autoscaler._last_t,
        "server_states": [server.state for server in autoscaler.servers],
    }


def _restore_autoscaler(
    autoscaler: RackAutoscaler, state: Dict[str, Any]
) -> None:
    autoscaler.wakes = state["wakes"]
    autoscaler.sleeps = state["sleeps"]
    autoscaler.rate_ewma_gbps = state["rate_ewma_gbps"]
    autoscaler._last_bits = state["last_bits"]
    autoscaler._surplus_ticks = state["surplus_ticks"]
    autoscaler._active_integral = state["active_integral"]
    autoscaler._last_t = state["last_t"]
    for server, server_state in zip(autoscaler.servers, state["server_states"]):
        server.state = server_state


# -- entry points ---------------------------------------------------------


def shard_state(shard: RackShard, _arg: Any = None) -> Dict[str, Any]:
    """Snapshot one rack shard at an epoch barrier (JSON-safe).

    Must be called between epochs (never from inside the simulator) —
    the timer inventory assumes every pending event is one of the known
    periodic processes or a wake completion.
    """
    if shard.stepper._finished:
        raise ValueError("cannot snapshot a finished shard")
    cluster = shard.cluster
    stepper = shard.stepper
    state: Dict[str, Any] = {
        "spec": asdict(shard.spec),
        "epoch": shard.epoch,
        "clock": cluster.sim.clock_state(),
        "rng": cluster.rng.state_dict(),
        "previous": asdict(shard._previous),
        "timers": _collect_timers(shard),
        "stepper": {
            "start_s": stepper._start_s,
            "rates": list(stepper._rates),
            "index": stepper._index,
            "generated_packets": stepper._generated_packets,
            "window_start_s": stepper._window_start_s,
            "window_bits": stepper._window_bits,
            "max_window_gbps": stepper._max_window_gbps,
            "frozen": dict(stepper._frozen),
            "sample_marks": list(shard._sample_marks),
        },
        "front": {
            "dispatched_bits": cluster.front.dispatched_bits,
            "dispatched_packets": cluster.front.dispatched_packets,
            "reroutes": cluster.front.reroutes,
            "last_primary": cluster.front._last_primary,
        },
        "slots": [
            {
                "routable": slot.routable,
                "dispatched_packets": slot.dispatched_packets,
                "dispatched_bits": slot.dispatched_bits,
                "responses": slot.responses,
            }
            for slot in cluster.slots
        ],
        "rack_power": {
            "integrator": cluster.rack_power.integrator.state_dict(),
            "awake_ports": cluster.rack_power._awake_ports,
        },
        "members": [_member_state(member) for member in cluster.members],
    }
    if cluster.autoscaler is not None:
        state["autoscaler"] = _autoscaler_state(cluster.autoscaler)
    return state


def restore_shard(shard: RackShard, state: Dict[str, Any]) -> bool:
    """Overwrite a freshly built shard with a barrier snapshot.

    The shard must come straight from :class:`RackShard`'s constructor
    (same spec, nothing stepped).  Restore order: stop the fresh timers,
    clear the heap, rewind the clock, re-arm the snapshot timers in
    ascending original-seq order, then overwrite component and RNG
    state.  Returns True so the runner's gather has a payload.
    """
    spec = asdict(shard.spec)
    snapshot_spec = dict(state["spec"])
    # the telemetry flag only attaches a read-only probe tap — it never
    # changes the rack's evolution, so a checkpoint taken with (or
    # without) telemetry resumes under either attachment
    spec.pop("telemetry", None)
    snapshot_spec.pop("telemetry", None)
    if spec != snapshot_spec:
        raise ValueError(
            "snapshot spec does not match this shard "
            f"(shard {spec!r}, snapshot {snapshot_spec!r})"
        )
    cluster = shard.cluster
    sim = cluster.sim
    _stop_fresh_timers(shard)
    sim.clear_events()
    clock = state["clock"]
    sim.restore_clock(clock["now"], clock["events_processed"])
    _rearm_timers(shard, state["timers"])

    shard.epoch = state["epoch"]
    shard._previous = RackSnapshot(**state["previous"])
    cluster.rng.restore_state(state["rng"])

    stepper = shard.stepper
    stepper_state = state["stepper"]
    stepper._start_s = stepper_state["start_s"]
    stepper._rates = list(stepper_state["rates"])
    stepper._index = stepper_state["index"]
    stepper._generated_packets = stepper_state["generated_packets"]
    stepper._window_start_s = stepper_state["window_start_s"]
    stepper._window_bits = stepper_state["window_bits"]
    stepper._max_window_gbps = stepper_state["max_window_gbps"]
    stepper._frozen = dict(stepper_state["frozen"])
    shard._sample_marks = list(stepper_state["sample_marks"])

    front_state = state["front"]
    cluster.front.dispatched_bits = front_state["dispatched_bits"]
    cluster.front.dispatched_packets = front_state["dispatched_packets"]
    cluster.front.reroutes = front_state["reroutes"]
    cluster.front._last_primary = front_state["last_primary"]

    for slot, slot_state in zip(cluster.slots, state["slots"]):
        slot.routable = slot_state["routable"]
        slot.dispatched_packets = slot_state["dispatched_packets"]
        slot.dispatched_bits = slot_state["dispatched_bits"]
        slot.responses = slot_state["responses"]

    cluster.rack_power.integrator.restore_state(
        state["rack_power"]["integrator"]
    )
    cluster.rack_power._awake_ports = state["rack_power"]["awake_ports"]

    for member, member_state in zip(cluster.members, state["members"]):
        _restore_member(member, member_state)

    if cluster.autoscaler is not None:
        if "autoscaler" not in state:
            raise ValueError("snapshot lacks autoscaler state this shard needs")
        _restore_autoscaler(cluster.autoscaler, state["autoscaler"])
    return True


#: dotted paths for callers assembling ShardedRunner.apply calls
SHARD_STATE = "repro.serve.state:shard_state"
RESTORE_SHARD = "repro.serve.state:restore_shard"
