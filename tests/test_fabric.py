"""Tests for the fabric layer: diurnal stitching, the fleet control
plane, the sharded runner protocol, and the worker-count-independence
guarantee (byte-identical payloads at any ``--shard-jobs``)."""

import json

import pytest

import repro.exp  # noqa: F401  (import order: exp must load before runner)
from repro.cli import check_process_budget
from repro.exp.fabric import run_focused
from repro.exp.server import RunConfig
from repro.fabric.control import FleetBalancer, FleetControlConfig, spawn_rack_name
from repro.fabric.shard import RackShardSpec, build_rack_shard
from repro.fabric.system import FabricConfig, FabricResult, fleet_schedule, run_fabric
from repro.net.traffic import (
    DIURNAL_PHASES,
    META_TRACES,
    DiurnalPhase,
    diurnal_multiplier,
    stitch_diurnal_rates,
)
from repro.runner.sharded import (
    ShardedRunner,
    ShardWorkerError,
    _partition,
    resolve_factory,
)
from repro.sim.rng import RngRegistry, spawn_seed

# -- dummy shard for runner protocol tests (module-level: resolvable by
# dotted path in worker processes) -------------------------------------

DUMMY_FACTORY = "tests.test_fabric:build_dummy_shard"


class DummyShard:
    def __init__(self, spec):
        self.spec = spec
        self.total = 0.0

    def describe(self):
        return {"spec": self.spec}

    def step(self, value):
        if value == "boom":
            raise RuntimeError("boom")
        self.total += value
        return {"spec": self.spec, "total": self.total}

    def finish(self, value):
        return {"spec": self.spec, "total": self.total, "final": value}


def build_dummy_shard(spec):
    return DummyShard(spec)


# -- diurnal trace stitching -------------------------------------------


class TestDiurnal:
    def test_multiplier_peaks_at_peak_hour(self):
        assert diurnal_multiplier(14.0, 14.0, 0.45) == pytest.approx(1.45)
        assert diurnal_multiplier(2.0, 14.0, 0.45) == pytest.approx(0.55)

    def test_multiplier_mean_is_one_over_a_day(self):
        values = [
            diurnal_multiplier((h + 0.5) / 10.0, 14.0, 0.45)
            for h in range(240)
        ]
        assert sum(values) / len(values) == pytest.approx(1.0, abs=1e-9)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            DiurnalPhase(trace="nosuch", weight=1.0, peak_hour=12.0, swing=0.3)
        with pytest.raises(ValueError):
            DiurnalPhase(trace="web", weight=0.0, peak_hour=12.0, swing=0.3)
        with pytest.raises(ValueError):
            DiurnalPhase(trace="web", weight=1.0, peak_hour=24.0, swing=0.3)
        with pytest.raises(ValueError):
            DiurnalPhase(trace="web", weight=1.0, peak_hour=12.0, swing=1.0)

    def test_known_mixes_reference_known_traces(self):
        assert set(DIURNAL_PHASES) >= {"web", "cache", "hadoop", "mix"}
        for phases in DIURNAL_PHASES.values():
            for phase in phases:
                assert phase.trace in META_TRACES

    def test_stitch_mean_tracks_weighted_average(self):
        phases = (DiurnalPhase("web", weight=1.0, peak_hour=14.0, swing=0.45),)
        rates = stitch_diurnal_rates(
            phases, 24.0, 2000, RngRegistry(2024), scale=4.0,
            line_rate_gbps=10_000.0,
        )
        expected = META_TRACES["web"].average_gbps * 4.0
        assert sum(rates) / len(rates) == pytest.approx(expected, rel=0.15)

    def test_stitch_scale_scales_linearly(self):
        phases = (DiurnalPhase("web", weight=1.0, peak_hour=14.0, swing=0.45),)
        one = stitch_diurnal_rates(
            phases, 24.0, 200, RngRegistry(7), scale=1.0,
            line_rate_gbps=10_000.0,
        )
        two = stitch_diurnal_rates(
            phases, 24.0, 200, RngRegistry(7), scale=2.0,
            line_rate_gbps=10_000.0,
        )
        for a, b in zip(one, two):
            assert b == pytest.approx(2.0 * a, rel=1e-9)

    def test_stitch_clips_at_line_rate(self):
        # per-phase averages stay below the line rate (the trace fitter
        # requires that) but their sum exceeds it, so the total clips
        rates = stitch_diurnal_rates(
            DIURNAL_PHASES["mix"], 24.0, 300, RngRegistry(3),
            scale=30.0, line_rate_gbps=100.0,
        )
        assert all(0.0 <= r <= 100.0 for r in rates)
        assert max(rates) == pytest.approx(100.0)

    def test_stitch_is_seed_deterministic(self):
        phases = DIURNAL_PHASES["mix"]
        a = stitch_diurnal_rates(phases, 24.0, 100, RngRegistry(11))
        b = stitch_diurnal_rates(phases, 24.0, 100, RngRegistry(11))
        c = stitch_diurnal_rates(phases, 24.0, 100, RngRegistry(12))
        assert a == b
        assert a != c

    def test_stitch_rejects_bad_arguments(self):
        phases = DIURNAL_PHASES["web"]
        with pytest.raises(ValueError):
            stitch_diurnal_rates((), 24.0, 10, RngRegistry(1))
        with pytest.raises(ValueError):
            stitch_diurnal_rates(phases, 0.0, 10, RngRegistry(1))
        with pytest.raises(ValueError):
            stitch_diurnal_rates(phases, 24.0, 0, RngRegistry(1))
        with pytest.raises(ValueError):
            stitch_diurnal_rates(phases, 24.0, 10, RngRegistry(1), scale=0.0)


# -- fleet control plane -----------------------------------------------


def _summaries(racks, power_w=100.0, dispatched=None):
    return [
        {
            "power_w": power_w,
            "dispatched_gbps": 0.0 if dispatched is None else dispatched[i],
        }
        for i in range(racks)
    ]


class TestFleetBalancer:
    def test_spread_splits_evenly(self):
        balancer = FleetBalancer(
            FleetControlConfig(dispatch="spread"), [100.0] * 4
        )
        shares = balancer.split(80.0, 0.02)
        assert shares == [20.0] * 4

    def test_packing_concentrates_then_grows(self):
        balancer = FleetBalancer(
            FleetControlConfig(dispatch="packing", target_utilization=0.6),
            [100.0] * 4,
        )
        small = balancer.split(30.0, 0.02)
        assert small[0] == pytest.approx(30.0)
        assert small[1:] == [0.0] * 3
        assert balancer.hot_racks == 1
        big = balancer.split(150.0, 0.02)
        assert balancer.hot_racks == 3
        assert sum(big) == pytest.approx(150.0)
        assert big[3] == 0.0

    def test_packing_shrinks_with_hysteresis(self):
        config = FleetControlConfig(dispatch="packing", shrink_after_epochs=2)
        balancer = FleetBalancer(config, [100.0] * 4)
        balancer.split(150.0, 0.02)
        assert balancer.hot_racks == 3
        for _ in range(6):
            balancer.split(10.0, 0.02)
            balancer.observe(10.0, _summaries(4))
        assert balancer.hot_racks < 3

    def test_headroom_avoids_the_loaded_rack(self):
        balancer = FleetBalancer(
            FleetControlConfig(dispatch="headroom"), [100.0] * 2
        )
        for _ in range(10):
            balancer.observe(80.0, _summaries(2, dispatched=[90.0, 10.0]))
        shares = balancer.split(50.0, 0.02)
        assert shares[1] > shares[0]
        assert sum(shares) == pytest.approx(50.0)

    def test_power_cap_throttles_and_accounts(self):
        config = FleetControlConfig(power_cap_w=100.0, ewma_alpha=1.0)
        balancer = FleetBalancer(config, [100.0] * 2)
        balancer.observe(80.0, _summaries(2, power_w=100.0))  # 200 W > cap
        assert balancer.throttle == pytest.approx(0.5)
        shares = balancer.split(80.0, 1.0)
        assert sum(shares) == pytest.approx(40.0)
        assert balancer.throttled_gbps(1.0) == pytest.approx(40.0)

    def test_throttle_never_drops_below_floor(self):
        config = FleetControlConfig(
            power_cap_w=1.0, ewma_alpha=1.0, throttle_floor=0.25
        )
        balancer = FleetBalancer(config, [100.0])
        balancer.observe(80.0, _summaries(1, power_w=1000.0))
        assert balancer.throttle == pytest.approx(0.25)

    def test_throttle_recovers_when_under_cap(self):
        config = FleetControlConfig(power_cap_w=100.0, ewma_alpha=1.0)
        balancer = FleetBalancer(config, [100.0])
        balancer.observe(80.0, _summaries(1, power_w=200.0))
        throttled = balancer.throttle
        assert throttled < 1.0
        for _ in range(20):
            balancer.observe(80.0, _summaries(1, power_w=50.0))
        assert balancer.throttle == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetControlConfig(dispatch="nosuch")
        with pytest.raises(ValueError):
            FleetBalancer(FleetControlConfig(), [])
        with pytest.raises(ValueError):
            FleetBalancer(FleetControlConfig(), [100.0, 0.0])
        balancer = FleetBalancer(FleetControlConfig(), [100.0])
        with pytest.raises(ValueError):
            balancer.split(-1.0, 0.02)
        with pytest.raises(ValueError):
            balancer.observe(10.0, _summaries(3))

    def test_spawn_rack_name(self):
        assert spawn_rack_name(3) == "rack3"
        assert spawn_seed(2024, spawn_rack_name(0)) != spawn_seed(
            2024, spawn_rack_name(1)
        )


# -- sharded runner protocol -------------------------------------------


class TestShardedRunner:
    def test_partition_is_contiguous_and_covers(self):
        assert _partition(5, 2) == [(0, 3), (3, 5)]
        assert _partition(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        bounds = _partition(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_resolve_factory_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            resolve_factory("no.colon.here")
        with pytest.raises(TypeError):
            resolve_factory("tests.test_fabric:DUMMY_FACTORY")
        assert resolve_factory(DUMMY_FACTORY) is build_dummy_shard

    def test_jobs_clamped_to_shard_count(self):
        with ShardedRunner([1, 2], DUMMY_FACTORY, jobs=8) as runner:
            assert runner.jobs == 2

    def test_results_identical_in_process_and_sharded(self):
        specs = list(range(5))
        outputs = {}
        for jobs in (1, 2):
            with ShardedRunner(specs, DUMMY_FACTORY, jobs=jobs) as runner:
                trace = [runner.describe()]
                for value in (1.0, 2.0, 3.0):
                    trace.append(runner.step([value] * len(specs)))
                trace.append(runner.finish(["done"] * len(specs)))
                outputs[jobs] = trace
        assert outputs[1] == outputs[2]

    def test_step_requires_one_input_per_shard(self):
        with ShardedRunner([1, 2], DUMMY_FACTORY, jobs=1) as runner:
            with pytest.raises(ValueError):
                runner.step([1.0])

    def test_worker_exception_propagates(self):
        with ShardedRunner([1, 2], DUMMY_FACTORY, jobs=2) as runner:
            with pytest.raises(ShardWorkerError, match="boom"):
                runner.step(["boom", 1.0])

    def test_step_after_close_raises(self):
        runner = ShardedRunner([1], DUMMY_FACTORY, jobs=1)
        runner.close()
        runner.close()  # idempotent
        with pytest.raises(ShardWorkerError):
            runner.step([1.0])

    def test_wall_clock_accrues_in_runner_not_payload(self):
        with ShardedRunner([1], DUMMY_FACTORY, jobs=1) as runner:
            summary = runner.step([1.0])
            assert runner.steps == 1
            assert runner.step_wall_s >= 0.0
            assert "wall" not in json.dumps(summary)


# -- rack shard specs ---------------------------------------------------


class TestRackShardSpec:
    def _spec(self, **overrides):
        base = dict(
            index=0,
            member_kind="hal",
            function="nat",
            servers=2,
            policy="packing",
            seed=2024,
            flow_interval_s=1e-3,
            epoch_s=0.02,
            epochs=5,
            packet_bytes=1500,
            train_multiplicity=4,
        )
        base.update(overrides)
        return RackShardSpec(**base)

    def test_intervals_per_epoch(self):
        assert self._spec().intervals_per_epoch == 20
        assert self._spec(epoch_s=1e-3).intervals_per_epoch == 1

    def test_validation(self):
        for bad in (
            dict(index=-1),
            dict(servers=0),
            dict(flow_interval_s=0.0),
            dict(epoch_s=1e-4),
            dict(epochs=0),
            dict(train_multiplicity=0),
        ):
            with pytest.raises(ValueError):
                self._spec(**bad)

    def test_shard_refuses_extra_epochs(self):
        shard = build_rack_shard(self._spec(epochs=1, servers=1))
        shard.step(10.0)
        with pytest.raises(RuntimeError):
            shard.step(10.0)


# -- fabric determinism (the tentpole guarantee) -----------------------

FAST = RunConfig(duration_s=0.1, seed=2024)


def _fabric_blob(shard_jobs):
    result = run_focused(
        FAST,
        racks=4,
        servers=2,
        dispatch="packing",
        mix="mix",
        model_hours=24.0,
        shard_jobs=shard_jobs,
        systems=("hal",),
    )
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def fabric_blob_k1():
    return _fabric_blob(1)


class TestFabricDeterminism:
    def test_shard_jobs_do_not_change_payload_bytes(self, fabric_blob_k1):
        assert _fabric_blob(4) == fabric_blob_k1

    def test_double_run_is_byte_identical(self, fabric_blob_k1):
        assert _fabric_blob(1) == fabric_blob_k1

    def test_payload_is_wall_clock_free(self, fabric_blob_k1):
        assert "wall" not in fabric_blob_k1


class TestFabricSystem:
    def test_run_fabric_round_trips_and_aggregates(self):
        config = FabricConfig(
            racks=2, servers=2, duration_s=0.1, epoch_s=0.02,
            flow_interval_s=1e-3, seed=2024,
        )
        outcome = run_fabric(config, shard_jobs=1)
        fleet = outcome.fleet
        assert fleet.offered_gbps > 0
        assert fleet.average_power_w > 0
        extras = fleet.extras
        assert extras["racks"] == 2
        assert extras["epochs"] == config.epochs
        assert extras["uj_per_req"] > 0
        payload = outcome.to_dict()
        assert payload["kind"] == "fabric"
        restored = FabricResult.from_dict(config, payload)
        assert restored.to_dict() == payload

    def test_fleet_schedule_is_deterministic(self):
        config = FabricConfig(racks=2, servers=2, duration_s=0.1)
        assert fleet_schedule(config) == fleet_schedule(config)
        assert len(fleet_schedule(config)) == config.epochs

    def test_shard_seeds_are_pre_spawned_per_rack(self):
        config = FabricConfig(racks=3, servers=2, duration_s=0.1)
        seeds = [spec.seed for spec in config.shard_specs()]
        assert len(set(seeds)) == 3
        assert seeds == [
            spawn_seed(config.seed, spawn_rack_name(i)) for i in range(3)
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FabricConfig(racks=0)
        with pytest.raises(ValueError):
            FabricConfig(dispatch="nosuch")
        with pytest.raises(ValueError):
            FabricConfig(mix="nosuch")
        with pytest.raises(ValueError):
            FabricConfig(epoch_s=1e-4, flow_interval_s=1e-3)


# -- CLI process budget and bench ratchet hygiene ----------------------


class TestProcessBudget:
    def test_single_axis_parallelism_always_allowed(self):
        assert check_process_budget(1, 8, cores=2) is None
        assert check_process_budget(8, 1, cores=2) is None

    def test_oversubscribed_product_is_refused(self):
        message = check_process_budget(4, 4, cores=8)
        assert message is not None and "16" in message

    def test_fitting_product_is_allowed(self):
        assert check_process_budget(2, 2, cores=8) is None

    def test_jobs_zero_means_all_cores(self):
        assert check_process_budget(0, 2, cores=4) is not None
