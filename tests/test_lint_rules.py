"""Fixture corpus for the repro.lint rule set.

Every rule gets at least one true-positive and one clean (potential
false-positive) case, plus the domain/allowlist boundaries that scope
it.  Fixtures are linted as strings with a *virtual path*, which is
what drives the sim-domain vs wall-clock-zone logic.
"""

import textwrap

import pytest

from repro.lint import lint_source

SIM = "src/repro/sim/example.py"
CORE = "src/repro/core/example.py"
NF = "src/repro/nf/example.py"
RUNNER = "src/repro/runner/example.py"
OBS = "src/repro/obs/example.py"
CLI = "src/repro/cli.py"
BENCH = "src/repro/bench.py"
RNG_HOME = "src/repro/sim/rng.py"
OUTSIDE = "tools/example.py"


def rules_of(source, path):
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


def findings(source, path):
    return lint_source(textwrap.dedent(source), path)


# ---------------------------------------------------------------------------
# DET01 — wall clock
# ---------------------------------------------------------------------------


class TestDet01WallClock:
    def test_time_time_in_sim_domain(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_of(src, SIM) == ["DET01"]

    def test_from_import_perf_counter(self):
        src = """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """
        assert rules_of(src, CORE) == ["DET01"]

    def test_datetime_now(self):
        src = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert rules_of(src, NF) == ["DET01"]

    def test_module_alias(self):
        src = """
        import time as t

        def stamp():
            return t.monotonic()
        """
        assert rules_of(src, SIM) == ["DET01"]

    def test_clean_sim_now(self):
        src = """
        def stamp(sim):
            return sim.now
        """
        assert rules_of(src, SIM) == []

    def test_time_sleep_not_flagged(self):
        # sleep is a throttle, not a clock read feeding results
        src = """
        import time

        def pause():
            time.sleep(0.1)
        """
        assert rules_of(src, SIM) == []

    def test_runner_allowlisted(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_of(src, RUNNER) == []

    def test_obs_cli_bench_allowlisted(self):
        src = """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """
        for path in (OBS, CLI):
            assert rules_of(src, path) == []

    def test_bench_pins_are_sim_domain(self):
        # bench.py computes the pinned payload sha256s: a clock read there
        # would leak into them
        src = """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """
        assert rules_of(src, BENCH) == ["DET01"]

    def test_serve_package_is_sim_domain(self):
        # every serve module produces or replays checkpointed simulation
        # state, the package __init__ included
        src = """
        from time import perf_counter

        def stamp():
            return perf_counter()
        """
        for module in ("__init__", "snapshot", "state", "checkpoint"):
            path = f"src/repro/serve/{module}.py"
            assert rules_of(src, path) == ["DET01"]

    def test_outside_repro_not_flagged(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_of(src, OUTSIDE) == []

    def test_unrelated_now_method_clean(self):
        # a method *called* now() on some object is not datetime.now
        src = """
        def stamp(clock):
            return clock.now()
        """
        assert rules_of(src, SIM) == []


# ---------------------------------------------------------------------------
# DET02 — randomized hash / set iteration
# ---------------------------------------------------------------------------


class TestDet02RandomizedHash:
    def test_builtins_hash(self):
        src = """
        def block_of(key, count):
            return hash(key) % count
        """
        assert rules_of(src, NF) == ["DET02"]

    def test_old_nf_state_block_of_is_caught(self):
        # the exact pre-fix body of SharedStateDomain._block_of: the
        # seeded bug this rule exists for (fixed in nf/state.py)
        src = """
        import zlib

        class SharedStateDomain:
            def _block_of(self, key):
                if isinstance(key, (str, bytes)):
                    data = key.encode() if isinstance(key, str) else key
                    return zlib.crc32(data) % self.block_count
                return hash(key) % self.block_count
        """
        found = findings(src, "src/repro/nf/state.py")
        assert [f.rule for f in found] == ["DET02"]
        assert "PYTHONHASHSEED" in found[0].message

    def test_fixed_nf_state_is_clean(self):
        from repro.lint import lint_file

        assert lint_file("src/repro/nf/state.py") == []

    def test_crc32_clean(self):
        src = """
        import zlib

        def block_of(key, count):
            return zlib.crc32(key) % count
        """
        assert rules_of(src, NF) == []

    def test_set_iteration(self):
        src = """
        def visit(parts):
            for part in set(parts):
                part.go()
        """
        assert rules_of(src, CORE) == ["DET02"]

    def test_set_literal_comprehension(self):
        src = """
        def visit(a, b):
            return [x.id for x in {a, b}]
        """
        assert rules_of(src, CORE) == ["DET02"]

    def test_sorted_set_clean(self):
        src = """
        def visit(parts):
            for part in sorted(set(parts)):
                part.go()
        """
        assert rules_of(src, CORE) == []

    def test_dict_iteration_clean(self):
        # dicts preserve insertion order; only sets are unordered
        src = """
        def visit(table):
            for key in table:
                table[key] += 1
        """
        assert rules_of(src, CORE) == []

    def test_hash_in_runner_allowlisted(self):
        src = """
        def key_of(spec):
            return hash(spec)
        """
        assert rules_of(src, RUNNER) == []

    def test_dunder_hash_definition_clean(self):
        src = """
        class Spec:
            def __hash__(self):
                return 7
        """
        assert rules_of(src, NF) == []


# ---------------------------------------------------------------------------
# DET03 — global / unseeded randomness
# ---------------------------------------------------------------------------


class TestDet03GlobalRandom:
    def test_global_random_fn(self):
        src = """
        import random

        def jitter():
            return random.random()
        """
        assert rules_of(src, NF) == ["DET03"]

    def test_from_import_global_fn(self):
        src = """
        from random import randint

        def pick():
            return randint(0, 7)
        """
        assert rules_of(src, CORE) == ["DET03"]

    def test_unseeded_random_instance(self):
        src = """
        import random

        def make_rng():
            return random.Random()
        """
        assert rules_of(src, NF) == ["DET03"]

    def test_global_seed_flagged(self):
        src = """
        import random

        def reseed(n):
            random.seed(n)
        """
        assert rules_of(src, NF) == ["DET03"]

    def test_system_random_flagged(self):
        src = """
        import random

        def entropy():
            return random.SystemRandom()
        """
        assert rules_of(src, NF) == ["DET03"]

    def test_seeded_random_clean(self):
        src = """
        import random

        def make_rng(seed):
            return random.Random(seed)
        """
        assert rules_of(src, NF) == []

    def test_registry_stream_clean(self):
        src = """
        def draws(registry):
            return registry.stream("traffic").random()
        """
        assert rules_of(src, NF) == []

    def test_rng_home_allowlisted(self):
        src = """
        import random

        def raw():
            return random.Random()
        """
        assert rules_of(src, RNG_HOME) == []

    def test_runner_zone_allowlisted(self):
        src = """
        import random

        def jitter():
            return random.random()
        """
        assert rules_of(src, RUNNER) == []


# ---------------------------------------------------------------------------
# MUT01 — mutable / config-object defaults
# ---------------------------------------------------------------------------


class TestMut01MutableDefaults:
    def test_list_default(self):
        src = """
        def collect(into=[]):
            into.append(1)
            return into
        """
        assert rules_of(src, RUNNER) == ["MUT01"]

    def test_dict_and_set_defaults(self):
        src = """
        def merge(a={}, b=set()):
            return a, b
        """
        assert rules_of(src, SIM) == ["MUT01", "MUT01"]

    def test_config_object_default(self):
        # the PR 4 bug class: one shared LbpConfig mutated by two systems
        src = """
        class LbpConfig:
            pass

        def build(config=LbpConfig()):
            return config
        """
        assert rules_of(src, CORE) == ["MUT01"]

    def test_kwonly_default(self):
        src = """
        def build(*, table={}):
            return table
        """
        assert rules_of(src, CORE) == ["MUT01"]

    def test_lambda_default(self):
        src = """
        f = lambda xs=[]: xs
        """
        assert rules_of(src, CORE) == ["MUT01"]

    def test_none_sentinel_clean(self):
        src = """
        def build(config=None):
            config = config if config is not None else object()
            return config
        """
        assert rules_of(src, CORE) == []

    def test_immutable_defaults_clean(self):
        src = """
        def build(name="x", count=0, scale=1.5, items=(), frozen=frozenset()):
            return name, count, scale, items, frozen
        """
        assert rules_of(src, CORE) == []

    def test_module_constant_name_clean(self):
        # referencing a module-level constant by name is conventional
        src = """
        DEFAULTS = {"a": 1}

        def build(table=DEFAULTS):
            return table
        """
        assert rules_of(src, CORE) == []

    def test_applies_outside_repro_too(self):
        src = """
        def collect(into=[]):
            return into
        """
        assert rules_of(src, OUTSIDE) == ["MUT01"]

    def test_dataclass_field_factory_clean(self):
        src = """
        from dataclasses import dataclass, field

        @dataclass
        class Stats:
            values: list = field(default_factory=list)
        """
        assert rules_of(src, CORE) == []


# ---------------------------------------------------------------------------
# OBS01 — unguarded tracer emission
# ---------------------------------------------------------------------------


class TestObs01TracerGuards:
    def test_unguarded_emission(self):
        src = """
        class Engine:
            def work(self, now):
                self.tracer.counter("engine", "busy", now, 1.0)
        """
        assert rules_of(src, SIM) == ["OBS01"]

    def test_guarded_emission_clean(self):
        src = """
        class Engine:
            def work(self, now):
                if self.tracer is not None:
                    self.tracer.counter("engine", "busy", now, 1.0)
        """
        assert rules_of(src, SIM) == []

    def test_early_return_guard_clean(self):
        # the hw.power pattern: bind, reject None, then emit freely
        src = """
        class Power:
            def sample(self, now):
                tracer = self.tracer
                if tracer is None:
                    return
                tracer.counter("power", "dcmi_w", now, 42.0)
                tracer.instant("power", "sample", now)
        """
        assert rules_of(src, SIM) == []

    def test_local_guard_does_not_cover_attribute(self):
        # guard on the local does not prove self.tracer is non-None
        src = """
        class Engine:
            def work(self, now):
                tracer = self.tracer
                if tracer is not None:
                    self.tracer.span("engine", "busy", now, now + 1.0)
        """
        assert rules_of(src, SIM) == ["OBS01"]

    def test_guard_with_conjunction_clean(self):
        src = """
        class Engine:
            def work(self, now, hot):
                if self.tracer is not None and hot:
                    self.tracer.instant("engine", "hot", now)
        """
        assert rules_of(src, SIM) == []

    def test_else_branch_of_is_none_clean(self):
        src = """
        class Engine:
            def work(self, now):
                if self.tracer is None:
                    pass
                else:
                    self.tracer.instant("engine", "tick", now)
        """
        assert rules_of(src, SIM) == []

    def test_guard_does_not_leak_to_sibling(self):
        src = """
        class Engine:
            def work(self, now):
                if self.tracer is not None:
                    pass
                self.tracer.instant("engine", "tick", now)
        """
        assert rules_of(src, SIM) == ["OBS01"]

    def test_nested_function_does_not_inherit_guard(self):
        # a closure may run long after the guard was evaluated
        src = """
        class Engine:
            def install(self, sim):
                if self.tracer is not None:
                    def pump():
                        self.tracer.counter("engine", "busy", sim.now, 1.0)
                    sim.every(0.1, pump)
        """
        assert rules_of(src, SIM) == ["OBS01"]

    def test_non_tracer_receiver_clean(self):
        src = """
        class Meter:
            def work(self, probes, now):
                probes.counter("engine", "busy", now, 1.0)
                self.meter.span("engine", "busy", now, now + 1)
        """
        assert rules_of(src, SIM) == []

    def test_obs_package_allowlisted(self):
        # the tracer implementation itself calls its own methods freely
        src = """
        class RecordingTracer:
            def flush(self, other, now):
                other.tracer.instant("kernel", "flush", now)
        """
        assert rules_of(src, OBS) == []


# ---------------------------------------------------------------------------
# UNIT01 — unit-suffix consistency
# ---------------------------------------------------------------------------


class TestUnit01UnitSuffixes:
    def test_mixed_time_units_assignment(self):
        src = """
        def total(base_s, overhead_us):
            latency_us = base_s + overhead_us
            return latency_us
        """
        assert rules_of(src, SIM) == ["UNIT01", "UNIT01"]  # mixing + target

    def test_converted_assignment_clean(self):
        src = """
        def total(base_s):
            latency_us = base_s * 1e6
            return latency_us
        """
        assert rules_of(src, SIM) == []

    def test_same_unit_clean(self):
        src = """
        def total(base_us, overhead_us):
            latency_us = base_us + overhead_us
            return latency_us
        """
        assert rules_of(src, SIM) == []

    def test_power_family(self):
        src = """
        def total(host_w, snic_mw):
            system_w = host_w + snic_mw
            return system_w
        """
        assert len(rules_of(src, SIM)) >= 1

    def test_time_power_product_clean(self):
        # watts x seconds = joules is legitimate cross-family math
        src = """
        def energy(power_w, dt_s):
            joules = power_w * dt_s
            return joules
        """
        assert rules_of(src, SIM) == []

    def test_augassign_mixing(self):
        src = """
        def accumulate(total_s, step_us):
            total_s += step_us
            return total_s
        """
        assert rules_of(src, SIM) == ["UNIT01"]

    def test_unsuffixed_names_clean(self):
        src = """
        def tally(count, total):
            result = count + total
            return result
        """
        assert rules_of(src, SIM) == []

    def test_applies_everywhere(self):
        src = """
        def total(a_s, b_us):
            c_s = a_s + b_us
            return c_s
        """
        assert len(rules_of(src, OUTSIDE)) >= 1


# ---------------------------------------------------------------------------
# finding metadata
# ---------------------------------------------------------------------------


class TestFindingShape:
    def test_location_and_render(self):
        src = "import time\n\n\ndef f():\n    return time.time()\n"
        found = lint_source(src, SIM)
        assert len(found) == 1
        finding = found[0]
        assert finding.line == 5
        assert finding.rule == "DET01"
        assert finding.path == SIM
        rendered = finding.render()
        assert rendered.startswith(f"{SIM}:5:")
        assert "DET01" in rendered

    def test_to_dict_round_trips_through_json(self):
        import json

        src = "def f(xs=[]):\n    return xs\n"
        finding = lint_source(src, SIM)[0]
        data = json.loads(json.dumps(finding.to_dict()))
        assert data["rule"] == "MUT01"
        assert data["line"] == 1

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", SIM)
