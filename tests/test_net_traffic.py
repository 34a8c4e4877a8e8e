"""Unit tests for the traffic generators."""

import math

import pytest

from repro.net import traffic
from repro.net.addressing import AddressPlan
from repro.net.traffic import (
    DIURNAL_PHASES,
    META_TRACES,
    LogNormalSpec,
    ConstantRateGenerator,
    LogNormalTraceGenerator,
    PoissonGenerator,
    TrafficSpec,
    fit_lognormal_scale,
    synthesize_rate_trace,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

PLAN = AddressPlan.default()


def collect(generator, duration):
    sim = Simulator()
    packets = []
    generator.start(sim, packets.append, duration)
    sim.run(until=duration + 0.01)
    return packets


class TestConstantRate:
    def test_offered_rate_achieved(self):
        spec = TrafficSpec(packet_bytes=1500, batch=8)
        gen = ConstantRateGenerator(PLAN, spec, RngRegistry(1), rate_gbps=10.0)
        packets = collect(gen, 0.01)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.01 / 1e9 == pytest.approx(10.0, rel=0.05)

    def test_packets_addressed_to_snic(self):
        gen = ConstantRateGenerator(PLAN, TrafficSpec(batch=2), RngRegistry(1), 5.0)
        packets = collect(gen, 0.005)
        assert packets
        assert all(p.src == PLAN.client and p.dst == PLAN.snic for p in packets)
        assert all(p.checksum_ok() for p in packets)

    def test_roundrobin_flows_cycle(self):
        spec = TrafficSpec(batch=1, flow_count=4, flow_mode="roundrobin")
        gen = ConstantRateGenerator(PLAN, spec, RngRegistry(1), 1.0)
        packets = collect(gen, 0.001)
        flows = [p.flow_id for p in packets[:8]]
        assert flows == [(i + 1) % 4 for i in range(1, 9)] or len(set(flows)) == 4

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ConstantRateGenerator(PLAN, TrafficSpec(), RngRegistry(1), 0.0)

    def test_generation_stops_at_duration(self):
        gen = ConstantRateGenerator(PLAN, TrafficSpec(batch=4), RngRegistry(1), 10.0)
        sim = Simulator()
        packets = []
        gen.start(sim, packets.append, 0.005)
        sim.run(until=1.0)
        assert all(p.created_at <= 0.005 for p in packets)


class TestPoisson:
    def test_mean_rate(self):
        spec = TrafficSpec(packet_bytes=1500, batch=8)
        gen = PoissonGenerator(PLAN, spec, RngRegistry(7), rate_gbps=20.0)
        packets = collect(gen, 0.05)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.05 / 1e9 == pytest.approx(20.0, rel=0.15)

    def test_interarrival_variability(self):
        gen = PoissonGenerator(PLAN, TrafficSpec(batch=1), RngRegistry(7), 1.0)
        packets = collect(gen, 0.01)
        gaps = [
            b.created_at - a.created_at for a, b in zip(packets, packets[1:])
        ]
        assert len(set(round(g, 9) for g in gaps)) > 1


class TestTrafficSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(packet_bytes=0),
            dict(batch=0),
            dict(flow_count=0),
            dict(flow_mode="bogus"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrafficSpec(**kwargs)


class TestLogNormal:
    def test_fit_scale_hits_target(self):
        import math

        rng = RngRegistry(3)
        spec = META_TRACES["web"]
        scale = fit_lognormal_scale(spec, rng, samples=2000)
        stream = rng.stream("verify")
        draws = [
            min(scale * math.exp(spec.mu + spec.sigma * stream.gauss(0, 1)), 100.0)
            for _ in range(20_000)
        ]
        assert sum(draws) / len(draws) == pytest.approx(spec.average_gbps, rel=0.15)

    @pytest.mark.parametrize("name", sorted(META_TRACES))
    def test_stratified_schedule_mean_matches_average(self, name):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES[name],
            interval_s=0.01,
        )
        rates = gen.plan_rates(1.0)
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(META_TRACES[name].average_gbps, rel=0.05)
        assert max(rates) <= 100.0
        assert min(rates) >= 0.0

    def test_trace_run_generates_near_average(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["web"],
            interval_s=0.01,
        )
        packets = collect(gen, 0.5)
        bits = sum(p.size_bytes * 8 * p.multiplicity for p in packets)
        assert bits / 0.5 / 1e9 == pytest.approx(1.6, rel=0.25)

    def test_rate_series_recorded(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["cache"],
            interval_s=0.01,
        )
        collect(gen, 0.2)
        assert len(gen.rate_series) == 20

    def test_iid_mode_draws_differ_from_stratified(self):
        gen = LogNormalTraceGenerator(
            PLAN, TrafficSpec(batch=8), RngRegistry(5), META_TRACES["cache"],
            interval_s=0.01, stratified=False,
        )
        rates = gen.plan_rates(0.2)
        assert len(rates) == 20

    def test_synthesize_rate_trace(self):
        series = synthesize_rate_trace(
            META_TRACES["hadoop"], 50.0, 0.1, RngRegistry(9)
        )
        assert len(series) == 500
        assert series.maximum <= 100.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            LogNormalTraceGenerator(
                PLAN, TrafficSpec(), RngRegistry(1), META_TRACES["web"], interval_s=0
            )


def reference_fit(spec, rng, line_rate_gbps=100.0, samples=4096):
    """The plain 200-step bisection ``fit_lognormal_scale`` must reproduce."""
    stream = rng.stream(f"lognormal-fit-{spec.name}")
    draws = [math.exp(spec.mu + spec.sigma * stream.gauss(0.0, 1.0)) for _ in range(samples)]

    def clipped_mean(scale):
        return sum(min(scale * d, line_rate_gbps) for d in draws) / len(draws)

    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if clipped_mean(mid) < spec.average_gbps:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


#: the fabric's 4x4 fleet: line rate and phase averages scale by 16 servers
FABRIC_SERVERS = 16


def fit_cases(seed):
    """One (spec, line rate, samples) cell per trace, the variant rotating
    with the seed: the 100 Gbps port, the fabric's single-trace and mixed
    diurnal phases at 1600 Gbps, and a sample count that is no power of two."""
    mix_weight = {phase.trace: phase.weight for phase in DIURNAL_PHASES["mix"]}
    for name, base in sorted(META_TRACES.items()):
        variant = seed % 4
        weight = mix_weight[name] if variant == 2 else 1.0
        fabric = variant in (1, 2)
        spec = LogNormalSpec(
            name,
            mu=base.mu,
            sigma=base.sigma,
            average_gbps=base.average_gbps * (weight * FABRIC_SERVERS if fabric else 1.0),
        )
        line_rate = 100.0 * FABRIC_SERVERS if fabric else 100.0
        samples = 2000 if variant == 3 else 4096
        yield spec, line_rate, samples


class TestFitLogNormalScale:
    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_to_reference(self, seed, monkeypatch):
        evaluations = []
        clipped_mean = traffic._clipped_mean

        def counting(*args):
            evaluations.append(args[0])
            return clipped_mean(*args)

        monkeypatch.setattr(traffic, "_clipped_mean", counting)
        for spec, line_rate, samples in fit_cases(seed):
            evaluations.clear()
            got = fit_lognormal_scale(spec, RngRegistry(seed), line_rate, samples)
            expected = reference_fit(spec, RngRegistry(seed), line_rate, samples)
            assert got == expected, (spec, line_rate, samples)
            assert len(evaluations) <= 60

    def test_pinned_seed7_scales(self):
        scales = {
            name: repr(fit_lognormal_scale(spec, RngRegistry(7)))
            for name, spec in META_TRACES.items()
        }
        assert scales == {
            "cache": "1.4494618004571218",
            "hadoop": "0.5580929936508512",
            "web": "1.0516429242617489",
        }

    @pytest.mark.parametrize("name", sorted(META_TRACES))
    def test_fixed_point_stop_alone_is_exact(self, name, monkeypatch):
        monkeypatch.setattr(
            traffic, "_certain_bracket", lambda *args: (0.0, math.inf)
        )
        spec = META_TRACES[name]
        assert fit_lognormal_scale(spec, RngRegistry(7), samples=2000) == (
            reference_fit(spec, RngRegistry(7), samples=2000)
        )

    @pytest.mark.parametrize("name", sorted(META_TRACES))
    def test_bracket_decides_the_comparison(self, name):
        spec = META_TRACES[name]
        rng = RngRegistry(11)
        stream = rng.stream("draws")
        draws = [
            math.exp(spec.mu + spec.sigma * stream.gauss(0.0, 1.0)) for _ in range(4096)
        ]
        below, above = traffic._certain_bracket(draws, spec.average_gbps, 100.0)
        assert 0.0 < below < above < math.inf
        for scale in (below, below * (1 - 1e-9), below / 2):
            assert traffic._clipped_mean(scale, draws, 100.0) < spec.average_gbps
        for scale in (above, above * (1 + 1e-9), above * 2):
            assert traffic._clipped_mean(scale, draws, 100.0) > spec.average_gbps

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("servers", [1, 4, 8, 16])
    def test_bracket_terms_match_clipped_mean_bisection(self, seed, servers, monkeypatch):
        """Every Meta trace at the 100/400/800/1600 Gbps line rates of a
        server, the racks and the fabric: the fit returns, bit for bit,
        the 200-step bisection that evaluates ``_clipped_mean`` at every
        step, and only the bracket's own two checks still call it."""

        def bisection(spec, line_rate):
            stream = RngRegistry(seed).stream(f"lognormal-fit-{spec.name}")
            draws = [
                math.exp(spec.mu + spec.sigma * stream.gauss(0.0, 1.0))
                for _ in range(4096)
            ]
            lo, hi = 1e-12, 1e12
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                # a step that leaves (lo, hi) unchanged repeats forever
                if traffic._clipped_mean(mid, draws, line_rate) < spec.average_gbps:
                    if mid == lo:
                        break
                    lo = mid
                else:
                    if mid == hi:
                        break
                    hi = mid
            return math.sqrt(lo * hi)

        line_rate = 100.0 * servers
        for name, base in sorted(META_TRACES.items()):
            spec = LogNormalSpec(
                name, mu=base.mu, sigma=base.sigma,
                average_gbps=base.average_gbps * servers,
            )
            expected = bisection(spec, line_rate)
            evaluations = []
            clipped_mean = traffic._clipped_mean

            def counting(*args):
                evaluations.append(args[0])
                return clipped_mean(*args)

            monkeypatch.setattr(traffic, "_clipped_mean", counting)
            got = fit_lognormal_scale(spec, RngRegistry(seed), line_rate)
            monkeypatch.setattr(traffic, "_clipped_mean", clipped_mean)
            assert got.hex() == expected.hex(), (name, line_rate)
            assert len(evaluations) == 2

    def test_bracket_terms_cover_every_kind_of_draw(self):
        """Never-clipped, always-clipped and undecided draws, interleaved:
        every scale inside the bracket gives ``_clipped_mean``'s float."""
        below, above, line_rate = 1.0, 1.0 + 1e-9, 100.0
        undecided = line_rate / (1.0 + 5e-10)  # clipped only above 1 + 5e-10
        assert below * undecided < line_rate < above * undecided
        draws = [3.7, 0.0, 250.0, undecided, 41.3, 120.0, undecided, 1e-3, 99.0]
        clipped_mean = traffic._bracket_terms(draws, below, above, line_rate)
        for scale in (1.0 + 1e-12, 1.0 + 4e-10, 1.0 + 6e-10, 1.0 + 9.99e-10):
            expected = traffic._clipped_mean(scale, draws, line_rate)
            assert clipped_mean(scale).hex() == expected.hex()

    def test_bracket_falls_back_when_all_draws_vanish(self):
        assert traffic._certain_bracket([0.0] * 8, 1.0, 100.0) == (0.0, math.inf)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_non_positive_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be positive"):
            fit_lognormal_scale(META_TRACES["web"], RngRegistry(1), samples=samples)
