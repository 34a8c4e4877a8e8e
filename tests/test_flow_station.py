"""Tests for the fluid queueing stage (repro.flow.batch / station)."""

import math

import pytest

from repro.core.hlb import HLB_LATENCY_S
from repro.core.slb import SLB_SERVICE_JITTER, _forward_profile
from repro.flow.batch import FlowBatch, batch_train
from repro.flow.station import (
    KINGMAN_MAX_RHO,
    LATENCY_QUANTILES,
    RATE_TAU_S,
    FlowStation,
    mean_latency_s,
)
from repro.hw.profiles import bf3_profile, get_profile
from repro.serve.state import _station_state

INTERVAL = 100e-6


def make_station(**kwargs):
    return FlowStation(bf3_profile("nat"), "snic", **kwargs)


def make_batch(rate_gbps, start_s=0.0, duration_s=INTERVAL, packet_bytes=1500):
    return FlowBatch(
        start_s=start_s,
        duration_s=duration_s,
        rate_gbps=rate_gbps,
        packet_bytes=packet_bytes,
    )


class TestFlowBatch:
    def test_packet_accounting(self):
        batch = make_batch(12.0)
        assert batch.bits == pytest.approx(12.0 * 1e9 * INTERVAL)
        assert batch.packets == pytest.approx(batch.bits / (1500 * 8))
        assert batch.pps == pytest.approx(batch.packets / INTERVAL)

    def test_split_scales_rate_only(self):
        batch = make_batch(40.0)
        half = batch.split(0.5)
        assert half.rate_gbps == pytest.approx(20.0)
        assert half.duration_s == batch.duration_s
        assert half.packet_bytes == batch.packet_bytes
        with pytest.raises(ValueError):
            batch.split(1.5)

    @pytest.mark.parametrize(
        "rate, threshold",
        [(0.0, 12.5), (0.0, 0.0), (12.5, 12.5), (40.0, 12.5), (41.3, 17.9)],
    )
    def test_steer_matches_split(self, rate, threshold):
        """``steer`` is the ``split`` pair it names, float for float:
        an empty train, an exact tie at the threshold, and a rate above
        it."""
        batch = make_batch(rate, start_s=0.25)
        kept = 1.0 if rate <= threshold else threshold / rate
        steered = batch.steer(threshold)
        for got, want in zip(steered, (batch.split(kept), batch.split(1.0 - kept))):
            assert float.hex(got.rate_gbps) == float.hex(want.rate_gbps)
            assert (got.start_s, got.duration_s, got.packet_bytes) == (
                want.start_s, want.duration_s, want.packet_bytes
            )

    def test_steer_hands_back_a_zero_rate_train_for_both_parts(self):
        # an empty train is its own kept part and its own (empty) excess
        batch = make_batch(0.0, start_s=0.25)
        kept, excess = batch.steer(12.5)
        assert kept is batch
        assert excess is batch

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_batch(-1.0)
        with pytest.raises(ValueError):
            make_batch(1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            make_batch(1.0, packet_bytes=0)

    def test_batch_train_expands_schedule(self):
        train = batch_train([10.0, 0.0, 20.0], INTERVAL, 1500, start_s=1.0)
        assert [b.rate_gbps for b in train] == [10.0, 0.0, 20.0]
        assert train[2].start_s == pytest.approx(1.0 + 2 * INTERVAL)
        with pytest.raises(ValueError):
            batch_train([1.0], 0.0, 1500)


class TestFlowStation:
    def test_conservation_under_load(self):
        station = make_station()
        for i in range(200):
            station.advance(make_batch(30.0, start_s=i * INTERVAL), [])
        assert station.received_packets == pytest.approx(
            station.delivered_packets
            + station.dropped_packets
            + station.backlog_packets
        )
        assert station.dropped_packets == 0.0

    def test_overload_drops_and_caps_backlog(self):
        station = make_station()
        ring_cap = station._ring_capacity_packets
        for i in range(100):
            station.advance(make_batch(200.0, start_s=i * INTERVAL), [])
        assert station.dropped_packets > 0
        assert station.backlog_packets <= ring_cap
        # conservation still holds with drops
        assert station.received_packets == pytest.approx(
            station.delivered_packets
            + station.dropped_packets
            + station.backlog_packets
        )

    def test_latency_grows_with_utilisation(self):
        low, high = make_station(), make_station()
        low_samples, high_samples = [], []
        for i in range(100):
            low.advance(make_batch(5.0, start_s=i * INTERVAL), low_samples)
            high.advance(make_batch(39.0, start_s=i * INTERVAL), high_samples)

        def weighted_mean(samples):
            total = sum(w for _, w in samples)
            return sum(lat * w for lat, w in samples) / total

        assert weighted_mean(high_samples) > weighted_mean(low_samples)

    def test_tick_sample_shape(self):
        station = make_station()
        samples = []
        served, dropped = station.advance(make_batch(10.0), samples)
        assert served > 0 and dropped == 0.0
        assert len(samples) == len(LATENCY_QUANTILES)
        assert mean_latency_s(samples) > 0
        weights = {w for _, w in samples}
        assert weights == {served / len(LATENCY_QUANTILES)}  # equal weights

    def test_idle_tick_produces_no_samples(self):
        station = make_station()
        samples = []
        assert station.advance(make_batch(0.0), samples) == (0.0, 0.0)
        assert samples == []

    def test_deterministic_replay(self):
        rates = [0.0, 10.0, 80.0, 0.0, 40.0] * 40
        a, b = make_station(), make_station()
        for i, rate in enumerate(rates):
            a.advance(make_batch(rate, start_s=i * INTERVAL), [])
        for i, rate in enumerate(rates):
            b.advance(make_batch(rate, start_s=i * INTERVAL), [])
        assert a.delivered_packets == b.delivered_packets
        assert a.delivered_bits == b.delivered_bits
        assert a.dropped_packets == b.dropped_packets
        assert a.backlog_packets == b.backlog_packets

    def test_sleep_and_wake_cycle(self):
        events = []
        station = make_station(
            sleep_enabled=True,
            on_power_change=lambda st: events.append(st.sleeping),
        )
        station.advance(make_batch(10.0), [])
        idle_ticks = int(station.sleep_after_idle_s / INTERVAL) + 2
        for i in range(idle_ticks):
            station.advance(make_batch(0.0, start_s=(i + 1) * INTERVAL), [])
        assert station.sleeping
        assert events[-1] is True
        woken = []
        station.advance(make_batch(10.0, start_s=1.0), woken)
        assert not station.sleeping
        assert station.wake_count == 1
        assert events[-1] is False
        # the wake latency shows up as extra wait on the first train
        awake = make_station()
        awake_samples = []
        awake.advance(make_batch(10.0), awake_samples)
        assert mean_latency_s(woken) > mean_latency_s(awake_samples)

    def test_engine_shim_surface(self):
        station = make_station()
        for i in range(50):
            station.advance(make_batch(120.0, start_s=i * INTERVAL), [])
        assert station.rx_queue_occupancy() == max(
            ring.occupancy_packets for ring in station._rings
        )
        assert station.total_queued_packets() == int(station.backlog_packets)
        assert 1 <= station.busy_cores <= station.active_cores
        assert 0.0 < station.utilization <= 1.0

    def test_rejects_bad_core_count(self):
        profile = bf3_profile("nat")
        with pytest.raises(ValueError):
            FlowStation(profile, "snic", active_cores=profile.cores + 1)


# -- bit-identity against the pre-flattening advance ------------------------


def reference_advance(station, batch, samples, train_multiplicity=1,
                      extra_latency_s=0.0):
    """``FlowStation.advance`` as it was written before the flow tick went
    flat (builtin ``min``/``max``, ``FlowBatch`` properties, a fresh
    sample list per call, a per-ring update loop), with the caller-side
    extra-latency step that used to live in ``FlowServerSystem._advance``.
    It drives the same station fields, so the two can be compared field
    by field."""
    st = station
    dt = batch.duration_s
    arriving = batch.packets
    packet_bits = batch.packet_bits
    per_packet_s = packet_bits / st._per_core_bps + st._per_packet_overhead_s
    mu_pps = st.active_cores / per_packet_s

    wake_used = 0.0
    if arriving > 0:
        st._idle_s = 0.0
        if st.sleeping:
            st.sleeping = False
            st._wake_remaining_s = st.wake_latency_s
            st.wake_count += 1
    if st._wake_remaining_s > 0:
        wake_used = min(dt, st._wake_remaining_s)
        st._wake_remaining_s -= wake_used

    service_budget = mu_pps * (dt - wake_used)
    backlog_0 = st.backlog_packets
    total = backlog_0 + arriving
    served = min(total, service_budget)
    backlog_1 = total - served
    dropped = max(0.0, backlog_1 - st._ring_capacity_packets)
    backlog_1 = min(backlog_1, st._ring_capacity_packets)

    decay = math.exp(-dt / RATE_TAU_S)
    delivered_bps = served * packet_bits / dt
    st._rate_bps_ewma = st._rate_bps_ewma * decay + delivered_bps * (1.0 - decay)
    overload_s = 0.0
    knee = st.profile.slo_knee_gbps
    if knee is not None and st._overload_ramp_s > 0:
        cap = st._capacity_gbps
        if not cap <= knee:
            frac = (st._rate_bps_ewma / 1e9 - knee) / (cap - knee)
            if not frac <= 0:
                overload_s = st._overload_ramp_s * min(1.0, frac) ** 2

    lam_pps = arriving / dt
    rho = min(KINGMAN_MAX_RHO, lam_pps / mu_pps)
    tick_samples = []
    if served > 0:
        service_component_s = per_packet_s * (train_multiplicity + 1) / 2.0
        kingman_wait_s = (
            rho
            / (1.0 - rho)
            * (st._service_cs_sq / 2.0)
            * (per_packet_s / st.active_cores)
        )
        fixed_s = (
            service_component_s
            + st._base_latency_s
            + st.delivery_latency_s
            + overload_s
        )
        weight = served / len(LATENCY_QUANTILES)
        for q in LATENCY_QUANTILES:
            elapsed = q * dt
            backlog_q = backlog_0 + lam_pps * elapsed
            backlog_q -= mu_pps * max(0.0, elapsed - wake_used)
            backlog_q = min(max(0.0, backlog_q), float(st._ring_capacity_packets))
            fluid_wait_s = backlog_q / mu_pps
            wake_wait_s = max(0.0, wake_used - elapsed)
            latency = max(fluid_wait_s, kingman_wait_s) + wake_wait_s + fixed_s
            tick_samples.append((latency, weight))

    st.backlog_packets = backlog_1
    st.received_packets += arriving
    st.delivered_packets += served
    st.delivered_bits += served * packet_bits
    st.dropped_packets += dropped
    st._last_busy_fraction = min(
        1.0, served * per_packet_s / (st.active_cores * dt)
    )
    occupancy = int(st.backlog_packets / st.active_cores + 0.5)
    for ring in st._rings:
        ring.occupancy_packets = occupancy

    if arriving <= 0 and served <= 0 and backlog_1 <= 0:
        st._idle_s += dt
        if (
            st.sleep_enabled
            and not st.sleeping
            and st._idle_s >= st.sleep_after_idle_s
        ):
            st.sleeping = True
    st._notify_power()

    if extra_latency_s > 0:
        samples.extend(
            (latency + extra_latency_s, weight) for latency, weight in tick_samples
        )
    else:
        samples.extend(tick_samples)
    return served, dropped


#: (rate Gbps, packet bytes, interval s, train multiplicity, extra latency s)
#: — idle stretches long enough to sleep, wakes at 100 µs and at 1 ms,
#: overload with ring-overflow drops, the kvs SNIC's ramp above its knee,
#: and 64 B / 1500 B packets at 100 µs / 1 ms switching mid-sequence.
#: The 184.32 Gbps train lands exactly 1536.0 packets on the sleeping
#: kvs host's 3 × 512-packet rings while its wake eats the whole
#: interval: a tie in the ring-capacity clamp, where ``min`` keeps the
#: float backlog rather than the int capacity.
REFERENCE_SEQUENCE = (
    [(2.0, 1500, 100e-6, 1, 0.0)] * 3
    + [(0.0, 1500, 100e-6, 1, 0.0)] * 6
    + [(184.32, 1500, 100e-6, 1, 0.0)]
    + [(3.5, 1500, 100e-6, 4, HLB_LATENCY_S)] * 2
    + [(0.0, 64, 1e-3, 1, 0.0)] * 2
    + [(3.6, 64, 1e-3, 32, HLB_LATENCY_S)] * 3
    + [(250.0, 1500, 100e-6, 1, 0.0)] * 8
    + [(3.9, 64, 100e-6, 32, HLB_LATENCY_S)] * 5
    + [(250.0, 64, 1e-3, 2, 0.0)] * 3
    + [(0.0, 1500, 1e-3, 1, 0.0)] * 3
    + [(20.0, 1500, 1e-3, 8, 5e-6)] * 4
    + [(1.0, 64, 100e-6, 1, 0.0), (0.0, 1500, 100e-6, 1, 0.0)] * 6
    + [(45.0, 1500, 100e-6, 32, HLB_LATENCY_S)] * 4
)


def _reference_stations():
    kvs = get_profile("kvs")
    return {
        # knee at 3 Gbps under a 4 Gbps capacity: the overload ramp
        "kvs snic": lambda power: FlowStation(
            kvs.snic, "snic", sleep_enabled=True, on_power_change=power,
        ),
        # a 1.5 ms wake latency spans intervals at both 100 µs and 1 ms
        "kvs host": lambda power: FlowStation(
            kvs.host, "host", active_cores=3, delivery_latency_s=2e-6,
            sleep_enabled=True, wake_latency_s=1.5e-3, on_power_change=power,
        ),
        "nat bf3": lambda power: FlowStation(
            bf3_profile("nat"), "bf3", sleep_enabled=True,
            sleep_after_idle_s=300e-6, on_power_change=power,
        ),
        "slb forward": lambda power: FlowStation(
            _forward_profile(4), "fwd", forward_stage=True,
            service_jitter=SLB_SERVICE_JITTER, on_power_change=power,
        ),
    }


def _walked(station):
    """Every field the checkpoint walker captures, with its type (a
    checkpoint serialises int 256 and float 256.0 differently)."""
    return [
        (key, type(value), value) for key, value in _station_state(station).items()
    ]


#: an idle-heavy sequence: idle from cold past ``sleep_after_idle_s`` at
#: 100 µs and at 1 ms, a train that wakes a sleeping station (the kvs
#: host's 1.5 ms wake spans intervals) followed by zero trains during the
#: wake, and an overload backlog that zero trains drain to exactly 0.0
IDLE_SEQUENCE = (
    [(0.0, 1500, 100e-6, 1, 0.0)] * 4
    + [(0.5, 1500, 100e-6, 1, 0.0)]
    + [(0.0, 1500, 100e-6, 1, 0.0)] * 18
    + [(250.0, 1500, 100e-6, 1, HLB_LATENCY_S)] * 2
    + [(0.0, 1500, 100e-6, 1, 0.0)] * 12
    + [(0.0, 64, 1e-3, 1, 0.0)] * 3
    + [(2.0, 64, 1e-3, 32, HLB_LATENCY_S)]
    + [(0.0, 64, 1e-3, 1, 0.0)] * 3
)


def _idle_stations():
    """The reference stations with sleep enabled and disabled."""
    stations = {}
    for kind, build in _reference_stations().items():
        for sleep in (True, False):
            def built(power, build=build, sleep=sleep):
                station = build(power)
                station.sleep_enabled = sleep
                return station

            stations[f"{kind} sleep={sleep}"] = built
    return stations


def _assert_matches_reference(build, sequence):
    new_power, old_power = [], []
    new = build(lambda st: new_power.append((st.sleeping, st.utilization)))
    old = build(lambda st: old_power.append((st.sleeping, st.utilization)))
    new_samples, old_samples = [], []
    start_s = 0.0
    for step, (rate, size, dt, mult, extra) in enumerate(sequence):
        batch = FlowBatch(start_s, dt, rate, size)
        start_s += dt
        got = new.advance(batch, new_samples, mult, extra)
        want = reference_advance(old, batch, old_samples, mult, extra)
        assert got == want, step
        assert [type(v) for v in got] == [type(v) for v in want], step
        assert _walked(new) == _walked(old), step
        assert new_samples == old_samples, step
        assert new_power == old_power, step
        assert len(new_power) == step + 1  # one notification per advance
        assert new.rx_queue_occupancy() == max(
            ring.occupancy_packets for ring in old._rings
        )
    assert new_samples  # the sequence served something


class TestAdvanceMatchesReference:
    @pytest.mark.parametrize("kind", sorted(_reference_stations()))
    def test_bit_identical_to_reference(self, kind):
        _assert_matches_reference(_reference_stations()[kind], REFERENCE_SEQUENCE)

    @pytest.mark.parametrize("kind", sorted(_idle_stations()))
    def test_idle_sequence_bit_identical_to_reference(self, kind):
        _assert_matches_reference(_idle_stations()[kind], IDLE_SEQUENCE)

    def test_idle_sequence_covers_each_regime(self):
        """The idle sequence takes the idle branch and also reaches each
        zero-train case that must stay on the full expansion."""
        fast = waking = draining = drained = slept = stayed_awake = False
        for kind, build in _idle_stations().items():
            station = build(None)
            start_s = 0.0
            for rate, size, dt, mult, extra in IDLE_SEQUENCE:
                backlog = station.backlog_packets
                wake = station._wake_remaining_s
                fast |= rate == 0.0 and backlog == 0.0 and wake == 0.0
                waking |= rate == 0.0 and wake > 0.0
                station.advance(FlowBatch(start_s, dt, rate, size), [], mult, extra)
                start_s += dt
                if rate == 0.0 and backlog > 0.0:
                    draining = True
                    drained |= (
                        station.backlog_packets == 0.0
                        and type(station.backlog_packets) is float
                    )
                if station.sleep_enabled:
                    slept |= station.sleeping
                else:
                    stayed_awake |= (
                        station._idle_s >= station.sleep_after_idle_s
                        and not station.sleeping
                    )
        assert fast and waking and draining and drained and slept and stayed_awake

    def test_sequence_covers_each_regime(self):
        """The sequence reaches every regime the identity test must see."""
        stations = {kind: build(None) for kind, build in _reference_stations().items()}
        woke_across_interval = dropped = ramped = slept = tied = False
        for kind, station in stations.items():
            start_s = 0.0
            for rate, size, dt, mult, extra in REFERENCE_SEQUENCE:
                wake_before = station.wake_count
                station.advance(FlowBatch(start_s, dt, rate, size), [], mult, extra)
                start_s += dt
                slept |= station.sleeping
                if station.wake_count > wake_before and station._wake_remaining_s > 0:
                    woke_across_interval = True
                dropped |= station.dropped_packets > 0
                knee = station._ramp_knee_gbps
                ramped |= knee is not None and station._rate_bps_ewma / 1e9 > knee
                tied |= (
                    station.backlog_packets == station._ring_capacity_packets
                    and type(station.backlog_packets) is float
                )
        assert slept and woke_across_interval and dropped and ramped and tied
